package tree

import (
	"math"
	"testing"

	"parcost/internal/rng"
	"parcost/internal/stats"
)

// TestBinnedMatrixCodeCutEquivalence checks the core binning invariant:
// code(v) ≤ b exactly when v ≤ Cut(f, b), so binned splits and
// float-threshold prediction route every sample identically.
func TestBinnedMatrixCodeCutEquivalence(t *testing.T) {
	r := rng.New(1)
	n := 500
	x := make([][]float64, n)
	for i := range x {
		// Feature 0 continuous, feature 1 few distinct values, feature 2
		// heavily duplicated (quantile boundaries inside runs).
		x[i] = []float64{r.Uniform(-10, 10), float64(r.Intn(7)), float64(r.Intn(3))}
	}
	bm := NewBinnedMatrix(x, 64)
	for f := 0; f < bm.Dim(); f++ {
		nb := bm.NumBins(f)
		if nb < 1 || nb > 64 {
			t.Fatalf("feature %d: %d bins", f, nb)
		}
		for b := 0; b < nb-1; b++ {
			cut := bm.Cut(f, b)
			for i, row := range x {
				wantLeft := row[f] <= cut
				gotLeft := int(bm.Code(f, i)) <= b
				if wantLeft != gotLeft {
					t.Fatalf("feature %d bin %d row %d: value %v cut %v code %d",
						f, b, i, row[f], cut, bm.Code(f, i))
				}
			}
		}
	}
}

// TestBinnedMatrixSkewedFeatureStaysSplittable: a feature dominated by one
// value but with more distinct values than bins must not lose all its cuts
// (every raw quantile boundary lands inside the dominant run and would be
// skipped without relocation, collapsing the tree to a stump).
func TestBinnedMatrixSkewedFeatureStaysSplittable(t *testing.T) {
	n := 100000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := 0.0
		if i%333 == 0 { // ~0.3% informative tail, > 256 distinct values
			v = float64(i)
		}
		x[i] = []float64{v}
		y[i] = v
	}
	bm := NewBinnedMatrix(x, 256)
	if bm.NumBins(0) < 2 {
		t.Fatalf("skewed feature has %d bins; unsplittable", bm.NumBins(0))
	}
	// The dominant-run boundary must be present so the zero mass separates
	// from the tail.
	tr := New(Params{MaxDepth: 4, Splitter: SplitterHist}, nil)
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() == 1 {
		t.Fatal("hist tree degenerated to a stump on a skewed feature")
	}
	// Mirror case: dominant run at the top of the value range.
	for i := range x {
		v := 1000.0
		if i%333 == 0 {
			v = float64(-i)
		}
		x[i][0] = v
	}
	if bm = NewBinnedMatrix(x, 256); bm.NumBins(0) < 2 {
		t.Fatalf("top-heavy skewed feature has %d bins; unsplittable", bm.NumBins(0))
	}
}

func TestBinnedMatrixFewDistinctUsesOneBinPerValue(t *testing.T) {
	x := [][]float64{{1}, {3}, {3}, {7}, {1}, {7}}
	bm := NewBinnedMatrix(x, 256)
	if bm.NumBins(0) != 3 {
		t.Fatalf("3 distinct values should give 3 bins, got %d", bm.NumBins(0))
	}
}

// TestHistMatchesExactOnFewDistinctValues: when every feature has fewer
// distinct values than bins, the histogram engine sees exactly the exact
// splitter's candidate thresholds and must grow an equivalent tree.
func TestHistMatchesExactOnFewDistinctValues(t *testing.T) {
	r := rng.New(7)
	n := 600
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := float64(r.Intn(12))
		b := float64(r.Intn(9))
		c := float64(r.Intn(5))
		x[i] = []float64{a, b, c}
		y[i] = 2*a - b*c + 0.5*c
	}
	exact := New(Params{MaxDepth: 8, Splitter: SplitterExact}, nil)
	hist := New(Params{MaxDepth: 8, Splitter: SplitterHist}, nil)
	if err := exact.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := hist.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pe, ph := exact.Predict(x), hist.Predict(x)
	for i := range pe {
		if math.Abs(pe[i]-ph[i]) > 1e-9 {
			t.Fatalf("row %d: exact %v hist %v", i, pe[i], ph[i])
		}
	}
	if exact.NodeCount() != hist.NodeCount() {
		t.Fatalf("node counts differ: exact %d hist %d", exact.NodeCount(), hist.NodeCount())
	}
}

// TestHistParityOnContinuousData: on continuous features the engines pick
// slightly different thresholds, but held-out accuracy must agree closely.
func TestHistParityOnContinuousData(t *testing.T) {
	r := rng.New(11)
	gen := func(n int) ([][]float64, []float64) {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := r.Uniform(-3, 3), r.Uniform(0, 5)
			x[i] = []float64{a, b}
			y[i] = math.Sin(a)*b + 0.3*a*a + 0.05*r.Normal()
		}
		return x, y
	}
	trX, trY := gen(1500)
	teX, teY := gen(400)
	exact := New(Params{MaxDepth: 8, MinSamplesLeaf: 3, Splitter: SplitterExact}, nil)
	hist := New(Params{MaxDepth: 8, MinSamplesLeaf: 3, Splitter: SplitterHist}, nil)
	if err := exact.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	if err := hist.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	re := stats.RMSE(teY, exact.Predict(teX))
	rh := stats.RMSE(teY, hist.Predict(teX))
	// Binning often regularizes (hist beats exact here); only bound how much
	// worse the histogram engine may get.
	if rh > 1.15*re {
		t.Fatalf("held-out RMSE diverged: exact %v hist %v", re, rh)
	}
}

func TestHistWeightedFit(t *testing.T) {
	// Mirrors TestTreeWeightedFit but forces the histogram engine.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 10, 10}
	w := []float64{1, 1, 1, 1}
	tr := New(Params{MaxDepth: 1, MinSamplesLeaf: 1, Splitter: SplitterHist}, nil)
	if err := tr.FitWeighted(x, y, w); err != nil {
		t.Fatal(err)
	}
	pred := tr.Predict(x)
	if math.Abs(pred[0]-0) > 1e-9 || math.Abs(pred[3]-10) > 1e-9 {
		t.Fatalf("weighted hist tree predictions %v", pred)
	}
}

func TestHistMaxFeaturesSubsampling(t *testing.T) {
	// MaxFeatures < dim disables the subtraction trick; the per-node
	// histogram path must still fit well.
	r := rng.New(5)
	x, y := stepData(r, 700)
	tr := New(Params{MaxFeatures: 1, MinSamplesLeaf: 5, Splitter: SplitterHist}, rng.New(123))
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, tr.Predict(x)); r2 < 0.5 {
		t.Fatalf("max-features hist tree R2 = %v", r2)
	}
}

func TestHistTrainPredictionsMatchPredict(t *testing.T) {
	r := rng.New(9)
	x, y := stepData(r, 900)
	bm := NewBinnedMatrix(x, 0)
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	tr := New(Params{MaxDepth: 6, Splitter: SplitterHist}, nil)
	tr.CacheTrainPredictions(true)
	if err := tr.FitBinned(bm, y, rows); err != nil {
		t.Fatal(err)
	}
	cached := tr.TrainPredictions()
	float := tr.Predict(x)
	for i := range cached {
		if cached[i] != float[i] {
			t.Fatalf("row %d: cached %v float %v", i, cached[i], float[i])
		}
	}

	// Without opting in, no cache is retained.
	plain := New(Params{MaxDepth: 6, Splitter: SplitterHist}, nil)
	for i := range rows {
		rows[i] = i
	}
	if err := plain.FitBinned(bm, y, rows); err != nil {
		t.Fatal(err)
	}
	if plain.TrainPredictions() != nil {
		t.Fatal("train cache allocated without CacheTrainPredictions")
	}
}

func TestSplitterAutoSelectsBySize(t *testing.T) {
	small := New(DefaultParams(), nil)
	if s := small.resolveSplitter(HistAutoMinSamples - 1); s != SplitterExact {
		t.Fatalf("small fit resolved to %v", s)
	}
	if s := small.resolveSplitter(HistAutoMinSamples); s != SplitterHist {
		t.Fatalf("large fit resolved to %v", s)
	}
	forced := New(Params{Splitter: SplitterExact}, nil)
	if s := forced.resolveSplitter(1 << 20); s != SplitterExact {
		t.Fatalf("explicit exact resolved to %v", s)
	}
}

// TestHistFitAllocationRegression pins the allocation count of a single
// histogram-engine tree fit against a pre-built BinnedMatrix. Node arrays
// reused across refits, pooled histograms, and in-place partitioning keep the
// count to a few dozen regardless of sample count; the exact engine needs
// thousands.
func TestHistFitAllocationRegression(t *testing.T) {
	r := rng.New(3)
	x, y := stepData(r, 2000)
	bm := NewBinnedMatrix(x, 0)
	rows := make([]int, len(x))
	tr := New(Params{MaxDepth: 10, Splitter: SplitterHist}, nil)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range rows {
			rows[i] = i
		}
		if err := tr.FitBinned(bm, y, rows); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: node arrays (kept across refits), ~depth histogram buffers, gains,
	// trainPred, builder bookkeeping — comfortably under 64 with headroom
	// against noise, three orders of magnitude below the exact engine.
	if allocs > 64 {
		t.Fatalf("hist Fit allocated %v times per run, budget 64", allocs)
	}
}

func BenchmarkHistTreeFit(b *testing.B) {
	r := rng.New(1)
	x, y := stepData(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Params{MaxDepth: 10, Splitter: SplitterHist}, nil)
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactTreeFit(b *testing.B) {
	r := rng.New(1)
	x, y := stepData(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Params{MaxDepth: 10, Splitter: SplitterExact}, nil)
		if err := tr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
