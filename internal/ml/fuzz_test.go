package ml_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
)

// fuzzKinds are the state decoders FuzzDecodeModel reaches: the tree and
// the three ensembles that share its member codec. A fuzz input's kind
// byte picks one, modulo the list's length.
var fuzzKinds = []string{
	tree.TreeSnapshotKind,
	ensemble.GradientBoostingSnapshotKind,
	ensemble.RandomForestSnapshotKind,
	ensemble.AdaBoostSnapshotKind,
}

// FuzzDecodeModel feeds arbitrary tree.cart, ensemble.gb, ensemble.rf and
// ensemble.ab states through DecodeModel, so mutations reach the tree
// block codec and the ensemble headers. Properties:
//   - decoding never panics;
//   - a decoded model predicts rows of its state's declared width, and
//     reports feature importances, without panicking;
//   - re-encoding a decoded model is a fixed point.
//
// Seeds are a small fitted tree and one small fitted ensemble of each kind.
// testdata/fuzz holds the rest of the corpus, every crasher found included:
// hand-built states, each refused for the one defect its file name says
// (tree_* in a tree block, such as a leaf with children or a feature below
// -1; gb_* and ab_* in an ensemble header or its members).
func FuzzDecodeModel(f *testing.F) {
	x, y := synthXY(60, 3)
	for _, m := range []ml.Snapshotter{
		tree.New(tree.Params{MaxDepth: 3, Splitter: tree.SplitterExact}, nil),
		ensemble.NewGradientBoosting(5, 0.1, tree.Params{MaxDepth: 2}, 1),
		ensemble.NewRandomForest(3, tree.Params{MaxDepth: 2}, 1),
		ensemble.NewAdaBoost(3, tree.Params{MaxDepth: 2}, 1),
	} {
		if err := m.Fit(x, y); err != nil {
			f.Fatal(err)
		}
		state, err := m.SnapshotState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(slices.Index(fuzzKinds, m.SnapshotKind())), state)
	}

	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		kind := fuzzKinds[int(which)%len(fuzzKinds)]
		m, err := ml.DecodeModel(ml.ModelState{Kind: kind, State: state})
		if err != nil {
			return
		}

		dim := declaredDim(kind, state)
		rows := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim)}
		for j := 0; j < dim; j++ {
			rows[1][j] = math.MaxFloat64
			rows[2][j] = -math.MaxFloat64
		}
		m.Predict(rows)
		if imp, ok := m.(interface{ FeatureImportances() []float64 }); ok {
			imp.FeatureImportances()
		}

		once, err := ml.EncodeModel(m)
		if err != nil {
			t.Fatalf("re-encoding a decoded model: %v", err)
		}
		again, err := ml.DecodeModel(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded model: %v", err)
		}
		twice, err := ml.EncodeModel(again)
		if err != nil {
			t.Fatalf("re-encoding twice: %v", err)
		}
		if once.Kind != twice.Kind || !bytes.Equal(once.State, twice.State) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", once.State, twice.State)
		}
	})
}

// declaredDim reads the feature width a decoded state declares: the tree's
// dim, or for an ensemble its first member's (decoding checked the members
// agree). An ensemble state opens with its uvarint-prefixed JSON header; a
// tree block opens with seven 8-byte params words, then its dim as an
// int64.
func declaredDim(kind string, state []byte) int {
	if kind != tree.TreeSnapshotKind {
		n, k := binary.Uvarint(state)
		state = state[k+int(n):]
	}
	return int(int64(binary.LittleEndian.Uint64(state[7*8:])))
}
