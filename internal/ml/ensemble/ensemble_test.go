package ensemble

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parcost/internal/ml/tree"
	"parcost/internal/rng"
	"parcost/internal/stats"
)

// nonlinearData is a smooth-ish surface with interactions and mild noise.
func nonlinearData(r *rng.Source, n int, noise float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := r.Uniform(-3, 3)
		b := r.Uniform(-3, 3)
		c := r.Uniform(0, 5)
		x[i] = []float64{a, b, c}
		y[i] = 3*math.Sin(a) + b*b - 0.5*a*b + 0.8*c + noise*r.Normal()
	}
	return x, y
}

func TestRandomForestFits(t *testing.T) {
	r := rng.New(1)
	x, y := nonlinearData(r, 400, 0.1)
	rf := NewRandomForest(50, tree.Params{MaxDepth: 8}, 7)
	if err := rf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, rf.Predict(x)); r2 < 0.9 {
		t.Fatalf("RF train R2 = %v", r2)
	}
	if rf.Name() != "randomforest" {
		t.Fatal("name")
	}
}

func TestRandomForestGeneralizes(t *testing.T) {
	r := rng.New(2)
	xTr, yTr := nonlinearData(r, 600, 0.2)
	xTe, yTe := nonlinearData(r, 200, 0.2)
	rf := NewRandomForest(100, tree.Params{MaxDepth: 10}, 11)
	if err := rf.Fit(xTr, yTr); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(yTe, rf.Predict(xTe)); r2 < 0.8 {
		t.Fatalf("RF test R2 = %v", r2)
	}
}

func TestRandomForestDeterministic(t *testing.T) {
	r := rng.New(3)
	x, y := nonlinearData(r, 200, 0.1)
	a := NewRandomForest(30, tree.Params{MaxDepth: 6}, 99)
	b := NewRandomForest(30, tree.Params{MaxDepth: 6}, 99)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pa := a.Predict(x)
	pb := b.Predict(x)
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-12 {
			t.Fatalf("RF not deterministic at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestRandomForestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRandomForest(10, tree.DefaultParams(), 1).Predict([][]float64{{1}})
}

func TestGradientBoostingFits(t *testing.T) {
	r := rng.New(4)
	x, y := nonlinearData(r, 400, 0.1)
	gb := NewGradientBoosting(200, 0.1, tree.Params{MaxDepth: 4}, 5)
	if err := gb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, gb.Predict(x)); r2 < 0.95 {
		t.Fatalf("GB train R2 = %v", r2)
	}
	if gb.Name() != "gradientboosting" {
		t.Fatal("name")
	}
}

func TestGradientBoostingGeneralizes(t *testing.T) {
	r := rng.New(5)
	xTr, yTr := nonlinearData(r, 600, 0.2)
	xTe, yTe := nonlinearData(r, 200, 0.2)
	gb := NewGradientBoosting(300, 0.05, tree.Params{MaxDepth: 4}, 13)
	if err := gb.Fit(xTr, yTr); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(yTe, gb.Predict(xTe)); r2 < 0.85 {
		t.Fatalf("GB test R2 = %v", r2)
	}
}

func TestGradientBoostingReducesResidual(t *testing.T) {
	// More trees should not worsen training fit (monotone staged R2 early on).
	r := rng.New(6)
	x, y := nonlinearData(r, 300, 0.05)
	gb := NewGradientBoosting(100, 0.1, tree.Params{MaxDepth: 3}, 1)
	var first, last float64
	err := gb.FitStaged(x, y, x, []int{1, 100}, func(stage int, pred []float64) {
		if stage == 0 {
			first = stats.R2(y, pred)
		} else {
			last = stats.R2(y, pred)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("staged R2 did not improve: %v -> %v", first, last)
	}
}

func TestGradientBoostingStochastic(t *testing.T) {
	r := rng.New(7)
	x, y := nonlinearData(r, 400, 0.1)
	gb := NewGradientBoosting(150, 0.1, tree.Params{MaxDepth: 4}, 3)
	gb.Subsample = 0.7
	if err := gb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, gb.Predict(x)); r2 < 0.9 {
		t.Fatalf("stochastic GB R2 = %v", r2)
	}
}

func TestGradientBoostingPaperConfig(t *testing.T) {
	gb := NewGradientBoostingPaper(1)
	if gb.NumTrees != 750 || gb.Params.MaxDepth != 10 {
		t.Fatalf("paper config wrong: %d trees depth %d", gb.NumTrees, gb.Params.MaxDepth)
	}
}

func TestGradientBoostingPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGradientBoosting(10, 0.1, tree.DefaultParams(), 1).Predict([][]float64{{1}})
}

func TestAdaBoostFits(t *testing.T) {
	r := rng.New(8)
	x, y := nonlinearData(r, 400, 0.1)
	ab := NewAdaBoost(100, tree.Params{MaxDepth: 4}, 5)
	if err := ab.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r2 := stats.R2(y, ab.Predict(x)); r2 < 0.85 {
		t.Fatalf("AB train R2 = %v", r2)
	}
	if ab.Name() != "adaboost" {
		t.Fatal("name")
	}
	if ab.NumLearners() == 0 {
		t.Fatal("no learners")
	}
}

func TestAdaBoostLossKinds(t *testing.T) {
	r := rng.New(9)
	x, y := nonlinearData(r, 300, 0.1)
	for _, loss := range []LossKind{LinearLoss, SquareLoss, ExponentialLoss} {
		ab := NewAdaBoost(60, tree.Params{MaxDepth: 4}, 2)
		ab.Loss = loss
		if err := ab.Fit(x, y); err != nil {
			t.Fatalf("loss %d: %v", loss, err)
		}
		if r2 := stats.R2(y, ab.Predict(x)); r2 < 0.7 {
			t.Fatalf("loss %d R2 = %v", loss, r2)
		}
	}
}

func TestAdaBoostDeterministic(t *testing.T) {
	r := rng.New(10)
	x, y := nonlinearData(r, 200, 0.1)
	a := NewAdaBoost(40, tree.Params{MaxDepth: 3}, 77)
	b := NewAdaBoost(40, tree.Params{MaxDepth: 3}, 77)
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Predict(x), b.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("AdaBoost not deterministic")
		}
	}
}

func TestAdaBoostPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewAdaBoost(10, tree.DefaultParams(), 1).Predict([][]float64{{1}})
}

func TestWeightedMedian(t *testing.T) {
	// Equal weights: median of {1,2,3,4} reaching half total (2) => value 2.
	if m := weightedMedian([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1}); m != 2 {
		t.Fatalf("weightedMedian = %v", m)
	}
	// Heavy weight on one value dominates.
	if m := weightedMedian([]float64{1, 2, 100}, []float64{0.1, 0.1, 10}); m != 100 {
		t.Fatalf("dominated median = %v", m)
	}
}

func TestWeightedSample(t *testing.T) {
	// Weight concentrated on index 2 should oversample it.
	w := []float64{0.01, 0.01, 0.97, 0.01}
	idx := weightedSample(w, 1000, rng.New(1))
	counts := make([]int, 4)
	for _, i := range idx {
		counts[i]++
	}
	if counts[2] < 800 {
		t.Fatalf("weighted sampling did not favor heavy index: %v", counts)
	}
}

// Property: RF prediction lies within the member trees' prediction range.
func TestQuickRFWithinMemberRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x, y := nonlinearData(r, 150, 0.1)
		rf := NewRandomForest(10, tree.Params{MaxDepth: 5}, seed)
		if err := rf.Fit(x, y); err != nil {
			return false
		}
		query := [][]float64{{0, 0, 2}}
		avg := rf.Predict(query)[0]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, tr := range rf.trees {
			p := tr.Predict(query)[0]
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: GB staged prediction's final stage equals Predict of the same
// fit bit for bit.
func TestQuickGBStagedMatchesPredict(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x, y := nonlinearData(r, 100, 0.1)
		var final []float64
		staged := NewGradientBoosting(30, 0.1, tree.Params{MaxDepth: 3}, seed)
		err := staged.FitStaged(x, y, x, []int{30}, func(_ int, pred []float64) {
			final = slices.Clone(pred)
		})
		if err != nil {
			return false
		}
		gb := NewGradientBoosting(30, 0.1, tree.Params{MaxDepth: 3}, seed)
		if err := gb.Fit(x, y); err != nil {
			return false
		}
		direct := gb.Predict(x)
		for i := range direct {
			if math.Float64bits(final[i]) != math.Float64bits(direct[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGBFitPaperScale(b *testing.B) {
	r := rng.New(1)
	x, y := nonlinearData(r, 1500, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := NewGradientBoosting(100, 0.1, tree.Params{MaxDepth: 6}, 1)
		if err := gb.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFFit(b *testing.B) {
	r := rng.New(1)
	x, y := nonlinearData(r, 1500, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := NewRandomForest(100, tree.Params{MaxDepth: 10}, 1)
		if err := rf.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
