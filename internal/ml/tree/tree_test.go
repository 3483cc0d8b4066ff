package tree

import (
	"math"
	"testing"
	"testing/quick"

	"parcost/internal/rng"
	"parcost/internal/stats"
)

func stepData(r *rng.Source, n int) ([][]float64, []float64) {
	// Piecewise-constant target, ideal for a tree.
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := r.Uniform(0, 10)
		b := r.Uniform(0, 10)
		x[i] = []float64{a, b}
		switch {
		case a < 5 && b < 5:
			y[i] = 1
		case a < 5:
			y[i] = 2
		case b < 5:
			y[i] = 3
		default:
			y[i] = 4
		}
	}
	return x, y
}

func TestTreeFitsStepFunction(t *testing.T) {
	r := rng.New(1)
	x, y := stepData(r, 400)
	tr := New(DefaultParams(), nil)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, tr.Predict(x)); r2 < 0.999 {
		t.Fatalf("tree R2 on step data = %v", r2)
	}
	if tr.Name() != "decisiontree" {
		t.Fatal("name")
	}
}

func TestTreeMemorizesTrainingData(t *testing.T) {
	// Unrestricted tree can memorize distinct points.
	r := rng.New(2)
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{float64(i), r.Uniform(0, 1)}
		y[i] = r.Uniform(-5, 5)
	}
	tr := New(DefaultParams(), nil)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := tr.Predict(x)
	for i := range y {
		if math.Abs(pred[i]-y[i]) > 1e-9 {
			t.Fatalf("tree did not memorize sample %d: %v vs %v", i, pred[i], y[i])
		}
	}
}

func TestTreeMaxDepthLimits(t *testing.T) {
	r := rng.New(3)
	x, y := stepData(r, 300)
	shallow := New(Params{MaxDepth: 1, MinSamplesSplit: 2, MinSamplesLeaf: 1}, nil)
	if err := shallow.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if shallow.Depth() > 1 {
		t.Fatalf("depth %d exceeds MaxDepth 1", shallow.Depth())
	}
	// A depth-1 stump predicts at most 2 distinct values.
	vals := map[float64]bool{}
	for _, p := range shallow.Predict(x) {
		vals[p] = true
	}
	if len(vals) > 2 {
		t.Fatalf("stump produced %d distinct predictions", len(vals))
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []float64{7, 7, 7}
	tr := New(DefaultParams(), nil)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 1 {
		t.Fatalf("constant target should yield a single leaf, got %d nodes", tr.NodeCount())
	}
	for _, p := range tr.Predict(x) {
		if p != 7 {
			t.Fatalf("constant prediction = %v", p)
		}
	}
}

// TestTreeMinSamplesLeaf: with either engine, every leaf of a tree grown
// with MinSamplesLeaf 30 holds at least 30 of the training rows routed to
// it, and no leaf is reached by none. The noise keeps every node's target
// from being constant, so only MinSamplesLeaf stops the growth.
func TestTreeMinSamplesLeaf(t *testing.T) {
	r := rng.New(4)
	x, y := stepData(r, 200)
	for i := range y {
		y[i] += r.Uniform(-0.5, 0.5)
	}
	for _, s := range []Splitter{SplitterExact, SplitterHist} {
		tr := New(Params{MinSamplesLeaf: 30, MinSamplesSplit: 2, Splitter: s}, nil)
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if tr.NodeCount() == 1 {
			t.Fatalf("splitter %d: the tree is one leaf", s)
		}
		a := &tr.nodes
		rows := make(map[int32]int)
		for _, row := range x {
			i := int32(0)
			for f := a.Feature[i]; f >= 0; f = a.Feature[i] {
				if row[f] <= a.Cut[i] {
					i = a.Left[i]
				} else {
					i = a.Right[i]
				}
			}
			rows[i]++
		}
		for leaf, n := range rows {
			if n < 30 {
				t.Fatalf("splitter %d: leaf %d holds %d training rows, want ≥ 30", s, leaf, n)
			}
		}
		if leaves := (tr.NodeCount() + 1) / 2; len(rows) != leaves {
			t.Fatalf("splitter %d: training rows reach %d of %d leaves", s, len(rows), leaves)
		}
	}
}

func TestTreeWeightedFit(t *testing.T) {
	// Heavily upweight a subset; the tree should favor fitting it.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 10, 10}
	w := []float64{1, 1, 1, 1}
	tr := New(Params{MaxDepth: 1, MinSamplesLeaf: 1}, nil)
	if err := tr.FitWeighted(x, y, w); err != nil {
		t.Fatal(err)
	}
	pred := tr.Predict(x)
	if math.Abs(pred[0]-0) > 1e-9 || math.Abs(pred[3]-10) > 1e-9 {
		t.Fatalf("weighted tree predictions %v", pred)
	}
}

func TestTreeWeightMismatchErrors(t *testing.T) {
	tr := New(DefaultParams(), nil)
	if err := tr.FitWeighted([][]float64{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("weight mismatch not caught")
	}
}

func TestTreeMaxFeatures(t *testing.T) {
	r := rng.New(5)
	x, y := stepData(r, 200)
	tr := New(Params{MaxFeatures: 1, MinSamplesLeaf: 5}, rng.New(123))
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Should still fit reasonably even considering one feature per split.
	if r2 := stats.R2(y, tr.Predict(x)); r2 < 0.5 {
		t.Fatalf("max-features tree R2 = %v", r2)
	}
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(DefaultParams(), nil).Predict([][]float64{{1}})
}

func TestWeightedHelpers(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	w := []float64{1, 1, 1, 1}
	idx := []int{0, 1, 2, 3}
	if m := weightedMean(y, w, idx); m != 2.5 {
		t.Fatalf("weightedMean = %v", m)
	}
	sse, totW := weightedSSE(y, w, idx)
	// variance*n = 1.25*4 = 5
	if math.Abs(sse-5) > 1e-12 || totW != 4 {
		t.Fatalf("weightedSSE = %v, totW = %v", sse, totW)
	}
	if !constantTarget([]float64{5, 5}, []int{0, 1}) {
		t.Fatal("constantTarget false negative")
	}
	if constantTarget([]float64{5, 6}, []int{0, 1}) {
		t.Fatal("constantTarget false positive")
	}
}

// Property: an unrestricted tree interpolates any dataset with unique
// feature rows (train R2 = 1).
func TestQuickTreeInterpolates(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(60)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = []float64{float64(i), float64(n - i)} // unique rows
			y[i] = r.Uniform(-10, 10)
		}
		tr := New(DefaultParams(), nil)
		if err := tr.Fit(x, y); err != nil {
			return false
		}
		return stats.R2(y, tr.Predict(x)) > 0.9999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are bounded by the training target range.
func TestQuickTreePredictionsBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x, y := stepData(r, 100)
		lo, hi := y[0], y[0]
		for _, v := range y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tr := New(Params{MaxDepth: 3}, nil)
		if err := tr.Fit(x, y); err != nil {
			return false
		}
		// Query arbitrary points.
		for i := 0; i < 20; i++ {
			p := tr.predictRow([]float64{r.Uniform(-5, 15), r.Uniform(-5, 15)})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeFit(b *testing.B) {
	r := rng.New(1)
	x, y := stepData(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Params{MaxDepth: 10}, nil)
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
