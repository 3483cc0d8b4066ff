package ensemble

import (
	"bytes"
	"runtime"
	"testing"

	"parcost/internal/ml"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// treeSnaps returns every member tree's snapshot bytes (the node arrays of
// tree/snapshot.go), the strongest available
// equality: two ensembles with equal snapshots grew identical trees node
// for node, bit for bit.
func treeSnaps(t *testing.T, trees []*tree.Tree) [][]byte {
	t.Helper()
	out := make([][]byte, len(trees))
	for i, tr := range trees {
		if tr == nil {
			t.Fatalf("tree %d is nil", i)
		}
		snap, err := tr.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = snap
	}
	return out
}

func requireSameFit(t *testing.T, name string, wantSnaps [][]byte, wantPred []float64, trees []*tree.Tree, pred []float64) {
	t.Helper()
	snaps := treeSnaps(t, trees)
	if len(snaps) != len(wantSnaps) {
		t.Fatalf("%s: %d trees vs %d in reference", name, len(snaps), len(wantSnaps))
	}
	for i := range snaps {
		if !bytes.Equal(snaps[i], wantSnaps[i]) {
			t.Fatalf("%s: tree %d node arrays differ from serial reference", name, i)
		}
	}
	for i := range pred {
		if pred[i] != wantPred[i] {
			t.Fatalf("%s: prediction %d differs: %v vs %v", name, i, pred[i], wantPred[i])
		}
	}
}

// TestEnsemblesParallelBitIdentical is the ensemble-level tentpole
// contract: GB, RF, and AdaBoost fits must be bit-identical — member-tree
// node arrays AND predictions — between a forced-serial fit and every
// combination of GOMAXPROCS ∈ {1,2,4,8} and SetFitWorkers ∈ {auto,2,8}.
// The GB case is wide enough that member trees cross the row-sharding
// threshold, so the canonical sharded arithmetic is live inside the fits.
func TestEnsemblesParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-fit bit-identity battery")
	}
	r := rng.New(31)
	xw, yw := nonlinearData(r, 8500, 0.2) // crosses 2×rowShardSize at the root
	xs, ys := nonlinearData(r, 700, 0.2)

	type fitResult struct {
		trees []*tree.Tree
		pred  []float64
	}
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
		fit  func(workers int) fitResult
	}{
		{"gb-wide", xw, yw, func(workers int) fitResult {
			g := NewGradientBoosting(6, 0.1, tree.Params{MaxDepth: 5}, 7)
			g.SetFitWorkers(workers)
			if err := g.Fit(xw, yw); err != nil {
				t.Fatal(err)
			}
			return fitResult{g.trees, g.Predict(xw[:400])}
		}},
		{"gb-subsample", xs, ys, func(workers int) fitResult {
			g := NewGradientBoosting(10, 0.1, tree.Params{MaxDepth: 4}, 7)
			g.Subsample = 0.7
			g.SetFitWorkers(workers)
			if err := g.Fit(xs, ys); err != nil {
				t.Fatal(err)
			}
			return fitResult{g.trees, g.Predict(xs[:200])}
		}},
		{"rf", xs, ys, func(workers int) fitResult {
			f := NewRandomForest(24, tree.Params{MaxDepth: 7}, 11)
			f.SetFitWorkers(workers)
			if err := f.Fit(xs, ys); err != nil {
				t.Fatal(err)
			}
			return fitResult{f.trees, f.Predict(xs[:200])}
		}},
		{"adaboost", xs, ys, func(workers int) fitResult {
			a := NewAdaBoost(10, tree.Params{MaxDepth: 4}, 13)
			a.SetFitWorkers(workers)
			if err := a.Fit(xs, ys); err != nil {
				t.Fatal(err)
			}
			return fitResult{a.trees, a.Predict(xs[:200])}
		}},
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, tc := range cases {
		runtime.GOMAXPROCS(orig)
		ref := tc.fit(1) // forced-serial reference
		refSnaps := treeSnaps(t, ref.trees)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{0, 2, 8} {
				got := tc.fit(workers)
				requireSameFit(t, tc.name, refSnaps, ref.pred, got.trees, got.pred)
			}
		}
	}
}

// TestRandomForestPoolReuseAcrossFits pins the retained sharded pool: a
// second Fit on the same forest (the retrain loop's pattern) reuses last
// fit's buffers and must land on the identical model.
func TestRandomForestPoolReuseAcrossFits(t *testing.T) {
	r := rng.New(32)
	x, y := nonlinearData(r, 400, 0.2)
	f := NewRandomForest(16, tree.Params{MaxDepth: 6}, 9)
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	first := treeSnaps(t, f.trees)
	p1 := f.Predict(x[:100])
	if f.pool == nil {
		t.Fatal("hist-engine forest fit retained no sharded pool")
	}
	pool := f.pool
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if f.pool != pool {
		t.Fatal("refit rebuilt the sharded pool instead of reusing it")
	}
	requireSameFit(t, "refit", first, p1, f.trees, f.Predict(x[:100]))
}

// TestFitWorkerSetterClamps pins the ml.FitWorkerSetter contract edge:
// negative values are treated as auto, and the setting persists across Fit
// calls.
func TestFitWorkerSetterClamps(t *testing.T) {
	var fw ml.FitWorkerSetter = NewGradientBoosting(2, 0.1, tree.Params{MaxDepth: 2}, 1)
	fw.SetFitWorkers(-3)
	if g := fw.(*GradientBoosting); g.fitWorkers != 0 {
		t.Fatalf("negative SetFitWorkers stored %d, want 0 (auto)", g.fitWorkers)
	}
	fw.SetFitWorkers(4)
	if g := fw.(*GradientBoosting); g.fitWorkers != 4 {
		t.Fatalf("SetFitWorkers stored %d, want 4", g.fitWorkers)
	}
}
