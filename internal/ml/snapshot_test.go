package ml_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/kernel"
	"parcost/internal/ml/linmodel"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// synthXY generates a smooth 4-feature regression problem, echoing the
// paper's ⟨O, V, nodes, tile⟩ layout.
func synthXY(n int, seed uint64) ([][]float64, []float64) {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		o := 40 + 300*r.Float64()
		v := 200 + 1200*r.Float64()
		nodes := 5 + 900*r.Float64()
		tile := 40 + 140*r.Float64()
		x[i] = []float64{o, v, nodes, tile}
		y[i] = o*v/(nodes*40) + tile/10 + 3*math.Sin(o/50) + 0.05*r.Normal()
	}
	return x, y
}

// snapshotModels returns one freshly-constructed, unfitted model per
// artifact kind in the library.
func snapshotModels() map[string]ml.Regressor {
	bases := []ml.Regressor{linmodel.NewRidge(1, 1e-3), ml.NewKNN(4, false)}
	return map[string]ml.Regressor{
		"ridge":      linmodel.NewRidge(1, 1e-3),
		"poly2":      linmodel.NewPolynomial(2, 1e-3),
		"bayesridge": linmodel.NewBayesianRidge(),
		"knn":        ml.NewKNN(5, true),
		"kr_rbf":     kernel.NewKernelRidge(kernel.RBF{Length: 1.5}, 1e-3),
		"kr_poly":    kernel.NewKernelRidge(kernel.Poly{Degree: 2, Gamma: 0.5, Coef0: 1}, 1e-3),
		"gp":         kernel.NewGaussianProcess(kernel.RBF{Length: 1.5}, 1e-4),
		"svr":        kernel.NewSVR(kernel.RBF{Length: 1.5}, 10, 0.05),
		"tree_exact": tree.New(tree.Params{MaxDepth: 8, MinSamplesSplit: 2, MinSamplesLeaf: 1, Splitter: tree.SplitterExact}, rng.New(3)),
		"tree_hist":  tree.New(tree.Params{MaxDepth: 8, MinSamplesSplit: 2, MinSamplesLeaf: 1, Splitter: tree.SplitterHist}, rng.New(3)),
		"gb":         ensemble.NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 4}, 7),
		"rf":         ensemble.NewRandomForest(25, tree.Params{MaxDepth: 6}, 7),
		"adaboost":   ensemble.NewAdaBoost(15, tree.Params{MaxDepth: 4}, 7),
		"stacking":   ml.NewStacking(bases, linmodel.NewRidge(1, 1e-2), 3, 11),
	}
}

// TestSnapshotRoundTripBitIdentical is the tentpole guarantee: for every
// model family, save→load→Predict matches the in-memory fitted model bit
// for bit.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	x, y := synthXY(200, 1)
	qx, _ := synthXY(64, 2)
	for name, m := range snapshotModels() {
		t.Run(name, func(t *testing.T) {
			if err := m.Fit(x, y); err != nil {
				t.Fatalf("fit: %v", err)
			}
			want := m.Predict(qx)

			data, err := ml.EncodeModel(m)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			restored, err := ml.DecodeModel(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if restored.Name() != m.Name() {
				t.Fatalf("restored name %q, want %q", restored.Name(), m.Name())
			}
			got := restored.Predict(qx)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("prediction %d differs after round-trip: %v != %v (Δ=%g)",
						i, got[i], want[i], got[i]-want[i])
				}
			}
		})
	}
}

// TestSnapshotRoundTripGPStd checks the GP's uncertainty path too: a
// restored GP's PredictStd matches the fitted model exactly (the Cholesky
// factor is recomputed from bit-exact inputs through the Fit code path).
func TestSnapshotRoundTripGPStd(t *testing.T) {
	x, y := synthXY(120, 3)
	qx, _ := synthXY(32, 4)
	gp := kernel.NewGaussianProcess(kernel.RBF{Length: 2}, 1e-4).AutoLength(true)
	if err := gp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	wantMean, wantStd := gp.PredictStd(qx)

	data, err := ml.EncodeModel(gp)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ml.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	rgp, ok := restored.(*kernel.GaussianProcess)
	if !ok {
		t.Fatalf("restored %T, want *kernel.GaussianProcess", restored)
	}
	gotMean, gotStd := rgp.PredictStd(qx)
	for i := range wantMean {
		if gotMean[i] != wantMean[i] || gotStd[i] != wantStd[i] {
			t.Fatalf("GP row %d: mean %v/%v std %v/%v", i, gotMean[i], wantMean[i], gotStd[i], wantStd[i])
		}
	}
}

// TestSnapshotRoundTripImportances verifies feature importances survive the
// round-trip for tree ensembles (gains are part of the artifact).
func TestSnapshotRoundTripImportances(t *testing.T) {
	x, y := synthXY(200, 5)
	gb := ensemble.NewGradientBoosting(30, 0.1, tree.Params{MaxDepth: 4}, 7)
	if err := gb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	want := gb.FeatureImportances()
	data, err := ml.EncodeModel(gb)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ml.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.(*ensemble.GradientBoosting).FeatureImportances()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("importance %d: %v != %v", i, got[i], want[i])
		}
	}
}

// nonSnapshotModel is a Regressor outside the snapshot system.
type nonSnapshotModel struct{}

func (nonSnapshotModel) Fit(x [][]float64, y []float64) error { return nil }
func (nonSnapshotModel) Predict(x [][]float64) []float64      { return make([]float64, len(x)) }
func (nonSnapshotModel) Name() string                         { return "stub" }

func TestEncodeModelRejections(t *testing.T) {
	if _, err := ml.EncodeModel(nonSnapshotModel{}); err == nil {
		t.Fatal("encoding a non-Snapshotter should error")
	}
	// Unfitted models of every family refuse to snapshot.
	for name, m := range snapshotModels() {
		if _, err := ml.EncodeModel(m); err == nil {
			t.Fatalf("%s: encoding an unfitted model should error", name)
		}
	}
}

// TestDecodeModelRejectsCorruptArtifacts: model states that cannot be
// restored are rejected. The envelope checks (format, version, checksum)
// live with the fleet bundle, the one file format, in internal/guide.
func TestDecodeModelRejectsCorruptArtifacts(t *testing.T) {
	x, y := synthXY(80, 6)
	m := ml.NewKNN(3, false)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	good, err := ml.EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.DecodeModel(good); err != nil {
		t.Fatalf("control state failed to decode: %v", err)
	}

	cases := map[string]ml.ModelState{
		"truncated JSON": {Kind: good.Kind, State: good.State[:len(good.State)/2]},
		"not JSON":       {Kind: good.Kind, State: json.RawMessage("definitely not a state")},
		"no state":       {Kind: good.Kind},
		"unknown kind":   {Kind: "ml.does-not-exist", State: good.State},
		"garbage state":  {Kind: good.Kind, State: json.RawMessage(`{"k":0}`)},
		// Tree states whose splits would index past a served row of the
		// declared width. The controls below show the same shapes decode
		// when the widths are consistent.
		"tree with dim 0 splitting on feature 7": {Kind: tree.TreeSnapshotKind, State: treeBlock(t, treeState(0))},
		"gb members disagreeing on dim":          {Kind: ensemble.GradientBoostingSnapshotKind, State: gbState(t, 8, 9)},
	}
	for name, ms := range map[string]ml.ModelState{
		"tree": {Kind: tree.TreeSnapshotKind, State: treeBlock(t, treeState(8))},
		"gb":   {Kind: ensemble.GradientBoostingSnapshotKind, State: gbState(t, 8, 8)},
	} {
		m, err := ml.DecodeModel(ms)
		if err != nil {
			t.Fatalf("control %s state failed to decode: %v", name, err)
		}
		m.Predict([][]float64{make([]float64, 8)})
	}
	for name, ms := range cases {
		if _, err := ml.DecodeModel(ms); err == nil {
			t.Errorf("%s: expected decode error, got none", name)
		}
	}
}

// TestDecodeTreeStatesRejected: tree and tree-ensemble states that a fit
// could not have written are refused, whichever kind carries them — a
// non-finite float or a negative sample count in a member, a block cut
// short or claiming more nodes than the state holds, bytes after the last
// block, an ensemble without members, and AdaBoost vote weights that do
// not match its members. The controls show the same shapes decode intact.
func TestDecodeTreeStatesRejected(t *testing.T) {
	gbHeader := `{"num_trees":2,"learning_rate":0.1,"init":1}`
	abHeader := `{"num_trees":2,"betas":[1,1]}`
	for name, ms := range map[string]ml.ModelState{
		"tree": {Kind: tree.TreeSnapshotKind, State: treeBlock(t, treeState(8))},
		"gb":   {Kind: ensemble.GradientBoostingSnapshotKind, State: ensembleState(t, gbHeader, treeState(8), treeState(8))},
		"rf":   {Kind: ensemble.RandomForestSnapshotKind, State: ensembleState(t, `{"num_trees":2}`, treeState(8), treeState(8))},
		"ab":   {Kind: ensemble.AdaBoostSnapshotKind, State: ensembleState(t, abHeader, treeState(8), treeState(8))},
	} {
		if _, err := ml.DecodeModel(ms); err != nil {
			t.Fatalf("control %s state failed to decode: %v", name, err)
		}
	}

	// patched encodes a valid tree state, then overwrites the 8 bytes of
	// its first threshold (0.5, which occurs nowhere else in the block).
	patched := func(bits uint64) []byte {
		b := treeBlock(t, treeState(8))
		at := bytes.Index(b, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5)))
		binary.LittleEndian.PutUint64(b[at:], bits)
		return b
	}
	negSamples := treeState(8)
	negSamples.Samples[2] = -1
	whole := treeBlock(t, treeState(8))
	gb := ensembleState(t, gbHeader, treeState(8), treeState(8))
	for name, ms := range map[string]ml.ModelState{
		"NaN threshold":            {Kind: tree.TreeSnapshotKind, State: patched(math.Float64bits(math.NaN()))},
		"+Inf threshold":           {Kind: tree.TreeSnapshotKind, State: patched(math.Float64bits(math.Inf(1)))},
		"negative samples":         {Kind: tree.TreeSnapshotKind, State: treeBlock(t, negSamples)},
		"truncated tree block":     {Kind: tree.TreeSnapshotKind, State: whole[:len(whole)-1]},
		"bytes after tree block":   {Kind: tree.TreeSnapshotKind, State: append(treeBlock(t, treeState(8)), 0)},
		"gb truncated member":      {Kind: ensemble.GradientBoostingSnapshotKind, State: gb[:len(gb)-10]},
		"gb NaN member threshold":  {Kind: ensemble.GradientBoostingSnapshotKind, State: append(ensembleState(t, gbHeader, treeState(8)), patched(math.Float64bits(math.NaN()))...)},
		"gb header overruns state": {Kind: ensemble.GradientBoostingSnapshotKind, State: binary.AppendUvarint(nil, 1<<40)},
		"gb without members":       {Kind: ensemble.GradientBoostingSnapshotKind, State: ensembleState(t, gbHeader)},
		"rf without members":       {Kind: ensemble.RandomForestSnapshotKind, State: ensembleState(t, `{"num_trees":2}`)},
		"rf members disagree":      {Kind: ensemble.RandomForestSnapshotKind, State: ensembleState(t, `{"num_trees":2}`, treeState(8), treeState(9))},
		"ab fewer betas":           {Kind: ensemble.AdaBoostSnapshotKind, State: ensembleState(t, `{"num_trees":2,"betas":[1]}`, treeState(8), treeState(8))},
		"ab zero-node member":      {Kind: ensemble.AdaBoostSnapshotKind, State: ensembleState(t, abHeader, treeState(8), tree.State{})},
	} {
		if _, err := ml.DecodeModel(ms); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// treeState is a three-node tree state of the given width whose root
// splits on feature 7.
func treeState(dim int) tree.State {
	st := tree.State{Dim: dim, Depth: 1, Gains: make([]float64, dim)}
	st.Leaf = []bool{false, true, true}
	st.Value = []float64{0, 1, 2}
	st.Feature = []int{7, 0, 0}
	st.Threshold = []float64{0.5, 0, 0}
	st.Left = []int{1, -1, -1}
	st.Right = []int{2, -1, -1}
	st.Samples = []int{2, 1, 1}
	return st
}

// treeBlock encodes st as a tree.cart state: one tree block.
func treeBlock(t testing.TB, st tree.State) []byte {
	t.Helper()
	return ensembleState(t, "", st)
}

// ensembleState lays out a tree-ensemble state: the JSON header, prefixed
// by its length as a uvarint, then one tree block per member. An empty
// header writes the member blocks alone, which is a tree.cart state.
func ensembleState(t testing.TB, header string, members ...tree.State) []byte {
	t.Helper()
	var b []byte
	if header != "" {
		b = append(binary.AppendUvarint(nil, uint64(len(header))), header...)
	}
	for i := range members {
		var err error
		if b, err = tree.AppendState(b, &members[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// gbState is a two-member boosting state with the given member widths.
func gbState(t testing.TB, dimA, dimB int) []byte {
	t.Helper()
	return ensembleState(t, `{"num_trees":2,"learning_rate":0.1,"init":1}`, treeState(dimA), treeState(dimB))
}

// TestDecodeModelRejectsMismatchedState: a well-formed JSON state that
// doesn't satisfy its model's invariants is rejected by RestoreState.
func TestDecodeModelRejectsMismatchedState(t *testing.T) {
	x, y := synthXY(80, 7)
	m := ml.NewKNN(3, false)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	good, err := ml.EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// Swapping in a different (valid-JSON) state under the same kind.
	if _, err := ml.DecodeModel(ml.ModelState{Kind: good.Kind, State: json.RawMessage(`{}`)}); err == nil {
		t.Fatal("empty KNN state decoded")
	}
	if err := ml.NewKNN(0, false).RestoreState([]byte(`{}`)); err == nil {
		t.Fatal("empty KNN state should be rejected")
	}
	if err := (&ml.Stacking{}).RestoreState([]byte(`{}`)); err == nil {
		t.Fatal("empty stacking state should be rejected")
	}
}

// TestSnapshotKindsRegistered pins the registry contents: every family the
// tentpole names must be present.
func TestSnapshotKindsRegistered(t *testing.T) {
	want := []string{
		"ensemble.ab", "ensemble.gb", "ensemble.rf",
		"kernel.gp", "kernel.kr", "kernel.svr",
		"linmodel.bayesridge", "linmodel.ridge",
		"ml.knn", "ml.stacking", "tree.cart",
	}
	got := ml.SnapshotKinds()
	gotSet := map[string]bool{}
	for _, k := range got {
		gotSet[k] = true
	}
	for _, k := range want {
		if !gotSet[k] {
			t.Errorf("kind %q not registered (have %v)", k, got)
		}
	}
}
