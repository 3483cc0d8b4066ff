package ml_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
)

// FuzzDecodeModel feeds arbitrary tree.cart and ensemble.gb states through
// DecodeModel, so mutations reach the state decoders. Properties:
//   - decoding never panics;
//   - a decoded model predicts rows of its state's declared width, and
//     reports feature importances, without panicking;
//   - re-encoding a decoded model is a fixed point.
//
// Seeds are a small fitted tree and a 5-tree GB; testdata/fuzz holds the
// corpus, every crasher found included.
func FuzzDecodeModel(f *testing.F) {
	x, y := synthXY(60, 3)
	dt := tree.New(tree.Params{MaxDepth: 3, Splitter: tree.SplitterExact}, nil)
	gb := ensemble.NewGradientBoosting(5, 0.1, tree.Params{MaxDepth: 2}, 1)
	for _, m := range []ml.Snapshotter{dt, gb} {
		if err := m.Fit(x, y); err != nil {
			f.Fatal(err)
		}
		state, err := m.SnapshotState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(m.SnapshotKind() == ensemble.GradientBoostingSnapshotKind, state)
	}

	f.Fuzz(func(t *testing.T, isGB bool, state []byte) {
		kind := tree.TreeSnapshotKind
		if isGB {
			kind = ensemble.GradientBoostingSnapshotKind
		}
		m, err := ml.DecodeModel(ml.ModelState{Kind: kind, State: state})
		if err != nil {
			return
		}

		dim := declaredDim(t, isGB, state)
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
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once.State, twice.State)
		}
	})
}

// declaredDim reads the feature width a decoded state declares: the tree's
// dim, or for GB its first member's (decoding checked the members agree).
func declaredDim(t *testing.T, isGB bool, state []byte) int {
	var err error
	if isGB {
		var st struct {
			Trees []struct {
				Dim int `json:"dim"`
			} `json:"trees"`
		}
		if err = json.Unmarshal(state, &st); err == nil {
			return st.Trees[0].Dim
		}
	} else {
		var st struct {
			Dim int `json:"dim"`
		}
		if err = json.Unmarshal(state, &st); err == nil {
			return st.Dim
		}
	}
	t.Fatalf("state decoded as a model but its width does not: %v", err)
	return 0
}
