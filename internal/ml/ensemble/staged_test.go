package ensemble

import (
	"math"
	"testing"

	"parcost/internal/ml"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

func stagedData(r *rng.Source, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := r.Uniform(-2, 2), r.Uniform(-2, 2)
		x[i] = []float64{a, b}
		y[i] = a*a - 2*b + 0.2*r.Normal()
	}
	return x, y
}

// TestFitStagedMatchesDirectFits is the prefix-property guarantee: each
// stage's emitted predictions must be bit-identical to fitting a fresh
// ensemble of exactly that size and predicting directly.
func TestFitStagedMatchesDirectFits(t *testing.T) {
	r := rng.New(31)
	trX, trY := stagedData(r, 120)
	teX, _ := stagedData(r, 40)
	stages := []int{3, 7, 15}

	build := map[string]func(size int) ml.StagedFitter{
		"gb": func(size int) ml.StagedFitter {
			return NewGradientBoosting(size, 0.1, tree.Params{MaxDepth: 3}, 5)
		},
		"rf": func(size int) ml.StagedFitter {
			return NewRandomForest(size, tree.Params{MaxDepth: 5}, 5)
		},
		"ab": func(size int) ml.StagedFitter {
			return NewAdaBoost(size, tree.Params{MaxDepth: 3}, 5)
		},
	}
	for name, mk := range build {
		got := make([][]float64, len(stages))
		sf := mk(stages[len(stages)-1])
		if err := sf.FitStaged(trX, trY, teX, stages, func(si int, pred []float64) {
			got[si] = append([]float64(nil), pred...)
		}); err != nil {
			t.Fatalf("%s FitStaged: %v", name, err)
		}
		for si, size := range stages {
			direct := mk(size)
			if err := direct.Fit(trX, trY); err != nil {
				t.Fatalf("%s direct fit %d: %v", name, size, err)
			}
			want := direct.Predict(teX)
			if got[si] == nil {
				t.Fatalf("%s stage %d never emitted", name, size)
			}
			for i := range want {
				if got[si][i] != want[i] {
					t.Fatalf("%s stage %d row %d: staged %v direct %v (not bit-identical)",
						name, size, i, got[si][i], want[i])
				}
			}
		}
	}
}

// TestFitStagedValidatesStages covers the stage-list contract.
func TestFitStagedValidatesStages(t *testing.T) {
	r := rng.New(32)
	trX, trY := stagedData(r, 50)
	g := NewGradientBoosting(10, 0.1, tree.Params{MaxDepth: 2}, 1)
	noop := func(int, []float64) {}
	if err := g.FitStaged(trX, trY, trX, nil, noop); err == nil {
		t.Fatal("empty stages accepted")
	}
	if err := g.FitStaged(trX, trY, trX, []int{5, 5, 10}, noop); err == nil {
		t.Fatal("non-ascending stages accepted")
	}
	if err := g.FitStaged(trX, trY, trX, []int{5, 8}, noop); err == nil {
		t.Fatal("last stage != NumTrees accepted")
	}
}

// TestSharedHistPoolKeepsFitsIdentical fits the same booster with and
// without buffer sharing wired through a prior fit, ensuring the
// recycled scratch never leaks state between trees.
func TestSharedHistPoolKeepsFitsIdentical(t *testing.T) {
	r := rng.New(33)
	trX, trY := stagedData(r, 150)
	teX, _ := stagedData(r, 30)

	a := NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 4}, 9)
	if err := a.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	pa := a.Predict(teX)
	// A second fit on the same instance reuses nothing stale.
	b := NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 4}, 9)
	if err := b.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	pb := b.Predict(teX)
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) != 0 {
			t.Fatalf("repeat fit diverged at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}
