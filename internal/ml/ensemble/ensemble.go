// Package ensemble implements the tree-ensemble regressors from the paper:
// Random Forest (RF), Gradient Boosting (GB), and AdaBoost.R2 (AB).
//
// Gradient Boosting is the paper's best-performing model (and the surrogate
// used in query-by-committee active learning), so it is the most complete:
// it supports the 750-estimator, depth-10 configuration the paper settles
// on, with a configurable learning rate and subsample fraction.
package ensemble

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"parcost/internal/mat"
	"parcost/internal/ml"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
	"parcost/internal/stats"
)

// histMinSamples is the training-set size at which an ensemble with
// tree.SplitterAuto switches to the histogram engine. It is far below the
// standalone tree.HistAutoMinSamples cutover because the ensemble builds the
// BinnedMatrix once and shares it across every member tree, so the binning
// cost is amortized over up to hundreds of fits.
const histMinSamples = 32

// resolveSplitter maps SplitterAuto to a concrete engine for an ensemble fit
// over n samples.
func resolveSplitter(p tree.Params, n int) tree.Splitter {
	if p.Splitter != tree.SplitterAuto {
		return p.Splitter
	}
	if n >= histMinSamples {
		return tree.SplitterHist
	}
	return tree.SplitterExact
}

// resolveFitWorkers maps a model's SetFitWorkers value (0 = auto) to a
// concrete width through the audited mat.Workers() choke point.
func resolveFitWorkers(n int) int {
	if n > 0 {
		return n
	}
	return mat.Workers()
}

// gatherMinRows is the training-set size below which the between-round
// gather loops (residuals, prediction updates, full-matrix tree predicts)
// stay serial: per-element work is a handful of flops, so small sets can't
// recoup goroutine overhead.
const gatherMinRows = 2048

// parRange runs fn over contiguous chunks of [0, n) on up to w goroutines,
// reusing the calling goroutine for the first chunk. Every index belongs to
// exactly one chunk, so element-wise loops over disjoint indices are
// race-free and — being per-element independent — bit-identical at any w.
// Serial below gatherMinRows or with fewer than two workers.
func parRange(w, n int, fn func(lo, hi int)) {
	if w > n {
		w = n
	}
	if w < 2 || n < gatherMinRows {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		lo, hi := g*n/w, (g+1)*n/w
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, n/w)
	wg.Wait()
}

// RandomForest is a bagged ensemble of regression trees with per-split
// feature subsampling, averaging the member predictions. The paper lists it
// as model "RF".
type RandomForest struct {
	NumTrees      int
	Params        tree.Params
	Seed          uint64
	BootstrapFrac float64 // fraction of samples per tree (1.0 = full bootstrap)

	trees []*tree.Tree
	name  string

	// fitWorkers bounds Fit's tree-growing fan-out (0 = auto via
	// mat.Workers(); see ml.FitWorkerSetter). Results are width-independent:
	// per-tree seeds are pre-derived and trees land at their own index.
	fitWorkers int
	// pool persists histogram buffers across Fit calls (the retrain loop
	// refits forests in place); shard w is owned by worker w of a fit.
	pool *tree.ShardedHistPool
}

// SetFitWorkers bounds the fan-out of subsequent Fit calls (0 = auto,
// 1 = serial). Implements ml.FitWorkerSetter; results are bit-identical at
// any width.
func (f *RandomForest) SetFitWorkers(n int) {
	if n < 0 {
		n = 0
	}
	f.fitWorkers = n
}

// NewRandomForest returns a random forest. If params.MaxFeatures is zero it
// defaults to ⌈d/3⌉ at fit time (the regression default).
func NewRandomForest(numTrees int, params tree.Params, seed uint64) *RandomForest {
	if numTrees < 1 {
		numTrees = 1
	}
	return &RandomForest{NumTrees: numTrees, Params: params, Seed: seed, BootstrapFrac: 1.0, name: "randomforest"}
}

// Name returns the model identifier.
func (f *RandomForest) Name() string { return f.name }

// Fit trains the ensemble, growing trees concurrently on bootstrap samples.
func (f *RandomForest) Fit(x [][]float64, y []float64) error {
	d, err := ml.CheckXY(x, y)
	if err != nil {
		return err
	}
	params := f.Params
	if params.MaxFeatures <= 0 {
		params.MaxFeatures = (d + 2) / 3
		if params.MaxFeatures < 1 {
			params.MaxFeatures = 1
		}
	}
	frac := f.BootstrapFrac
	if frac <= 0 || frac > 1 {
		frac = 1.0
	}
	sampleN := int(math.Round(frac * float64(len(x))))
	if sampleN < 1 {
		sampleN = 1
	}

	params.Splitter = resolveSplitter(params, len(x))
	workers := resolveFitWorkers(f.fitWorkers)
	var bm *tree.BinnedMatrix
	if params.Splitter == tree.SplitterHist {
		// Bin the training matrix once; every tree fits against it. The
		// sharded pool outlives the fit: repeated refits (the retrain loop)
		// reuse last fit's buffers, and each worker owns its shard alone, so
		// HistPool's single-goroutine contract holds under the fan-out.
		bm = tree.NewBinnedMatrix(x, params.MaxBins)
		if f.pool == nil || f.pool.Shards() < workers {
			f.pool = tree.NewShardedHistPool(workers)
		}
	}

	f.trees = make([]*tree.Tree, f.NumTrees)
	base := rng.New(f.Seed)
	// Pre-derive per-tree seeds so concurrency doesn't affect results.
	seeds := make([]uint64, f.NumTrees)
	for i := range seeds {
		seeds[i] = base.Uint64()
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	// The lowest-indexed failure wins so the reported error does not depend
	// on goroutine scheduling.
	var fitErr error
	fitErrIdx := -1
	var errMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Member trees stay serial within their own fit — the fan-out
			// across trees already fills the budgeted workers.
			var pool *tree.HistPool
			if f.pool != nil {
				pool = f.pool.Shard(w)
			}
			for ti := range jobs {
				tr, err := fitOneForestTree(x, y, bm, params, seeds[ti], sampleN, pool)
				if err != nil {
					errMu.Lock()
					if fitErrIdx < 0 || ti < fitErrIdx {
						fitErr = fmt.Errorf("ensemble: RF tree %d: %w", ti, err)
						fitErrIdx = ti
					}
					errMu.Unlock()
					continue
				}
				f.trees[ti] = tr
			}
		}(w)
	}
	for i := 0; i < f.NumTrees; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if fitErr != nil {
		f.trees = nil // a partial forest must not serve predictions
		return fitErr
	}
	return nil
}

func fitOneForestTree(x [][]float64, y []float64, bm *tree.BinnedMatrix, params tree.Params, seed uint64, sampleN int, pool *tree.HistPool) (*tree.Tree, error) {
	r := rng.New(seed)
	idx := r.Bootstrap(len(x))[:sampleN]
	tr := tree.New(params, r.Split())
	if bm != nil {
		tr.ShareHistPool(pool)
		if err := tr.FitBinned(bm, y, idx); err != nil {
			return nil, err
		}
		return tr, nil
	}
	bx, by := ml.Subset(x, y, idx)
	if err := tr.Fit(bx, by); err != nil {
		return nil, err
	}
	return tr, nil
}

// Predict averages the predictions of the fitted member trees.
func (f *RandomForest) Predict(x [][]float64) []float64 {
	if f.trees == nil {
		panic("ensemble: RandomForest.Predict before Fit")
	}
	out := make([]float64, len(x))
	p := make([]float64, len(x))
	fitted := 0
	for _, tr := range f.trees {
		if tr == nil {
			continue
		}
		fitted++
		tr.PredictInto(x, p)
		for i := range out {
			out[i] += p[i]
		}
	}
	if fitted == 0 {
		panic("ensemble: RandomForest.Predict with no fitted trees")
	}
	inv := 1.0 / float64(fitted)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FeatureImportances returns the mean impurity-based feature importance
// across the forest's trees, normalized to sum to 1.
func (f *RandomForest) FeatureImportances() []float64 {
	return meanImportances(f.trees)
}

// GradientBoosting is a gradient-boosted regression-tree ensemble fitting
// the squared-error loss: each tree is fit to the residual of the current
// ensemble, scaled by the learning rate. The paper's tuned configuration is
// 750 estimators at depth 10; NewGradientBoostingPaper constructs it.
type GradientBoosting struct {
	NumTrees     int
	LearningRate float64
	Params       tree.Params
	Subsample    float64 // stochastic-GB row fraction per tree (1.0 = off)
	Seed         uint64

	init  float64 // initial prediction (target mean)
	trees []*tree.Tree

	// Staged-CV streaming mode (see FitStaged): afterRound observes each
	// round's tree before the next round starts, and discard drops trees
	// instead of retaining them.
	afterRound func(m int, tr *tree.Tree)
	discard    bool

	// fitWorkers bounds the within-round fan-out (0 = auto via
	// mat.Workers()). Boosting rounds are inherently sequential, so the
	// width goes into each round: within-fit tree parallelism plus the
	// row-parallel residual/prediction gathers between rounds. Bit-identical
	// at any width.
	fitWorkers int
}

// SetFitWorkers bounds the within-round fan-out of subsequent Fit calls
// (0 = auto, 1 = serial). Implements ml.FitWorkerSetter; results are
// bit-identical at any width.
func (g *GradientBoosting) SetFitWorkers(n int) {
	if n < 0 {
		n = 0
	}
	g.fitWorkers = n
}

// NewGradientBoosting returns a gradient booster.
func NewGradientBoosting(numTrees int, lr float64, params tree.Params, seed uint64) *GradientBoosting {
	if numTrees < 1 {
		numTrees = 1
	}
	if lr <= 0 {
		lr = 0.1
	}
	return &GradientBoosting{NumTrees: numTrees, LearningRate: lr, Params: params, Subsample: 1.0, Seed: seed}
}

// NewGradientBoostingPaper returns the 750-estimator, depth-10 configuration
// the paper settles on after hyper-parameter optimization (§4.2).
func NewGradientBoostingPaper(seed uint64) *GradientBoosting {
	return NewGradientBoosting(750, 0.1, tree.Params{MaxDepth: 10, MinSamplesSplit: 2, MinSamplesLeaf: 1}, seed)
}

// Name returns the model identifier.
func (g *GradientBoosting) Name() string { return "gradientboosting" }

// Fit trains the boosting ensemble sequentially on residuals.
func (g *GradientBoosting) Fit(x [][]float64, y []float64) error {
	if _, err := ml.CheckXY(x, y); err != nil {
		return err
	}
	g.init = stats.Mean(y)
	g.trees = make([]*tree.Tree, 0, g.NumTrees)

	// Running ensemble prediction.
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = g.init
	}
	residual := make([]float64, len(y))
	r := rng.New(g.Seed)
	sub := g.Subsample
	if sub <= 0 || sub > 1 {
		sub = 1.0
	}
	subN := int(math.Round(sub * float64(len(x))))
	if subN < 1 {
		subN = 1
	}

	params := g.Params
	params.Splitter = resolveSplitter(params, len(x))
	workers := resolveFitWorkers(g.fitWorkers)
	if params.Splitter == tree.SplitterHist {
		return g.fitHist(x, y, params, pred, residual, r, sub, subN, workers)
	}

	step := make([]float64, len(x))
	for m := 0; m < g.NumTrees; m++ {
		parRange(workers, len(residual), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				residual[i] = y[i] - pred[i] // negative gradient of ½(y−f)²
			}
		})
		tr := tree.New(params, r.Split())
		var err error
		if sub < 1.0 {
			idx := r.Sample(len(x), subN)
			sx, sr := ml.Subset(x, residual, idx)
			err = tr.Fit(sx, sr)
		} else {
			err = tr.Fit(x, residual)
		}
		if err != nil {
			return fmt.Errorf("ensemble: GB tree %d: %w", m, err)
		}
		// Update the ensemble prediction over all samples.
		parRange(workers, len(pred), func(lo, hi int) {
			tr.PredictInto(x[lo:hi], step[lo:hi])
			for i := lo; i < hi; i++ {
				pred[i] += g.LearningRate * step[i]
			}
		})
		if g.afterRound != nil {
			g.afterRound(m, tr)
		}
		if !g.discard {
			g.trees = append(g.trees, tr)
		}
	}
	return nil
}

// fitHist is the histogram-engine boosting loop: the training matrix is
// binned once and shared by all rounds, trees fit against row indices (no
// per-round feature-matrix copies), and each round's training-set update
// comes from the just-grown tree's cached leaf assignments instead of a full
// root-to-leaf traversal of every sample. The worker budget goes into each
// round (rounds are sequential): within-fit tree parallelism plus
// row-parallel residual and prediction gathers, all bit-identical at any
// width.
func (g *GradientBoosting) fitHist(x [][]float64, y []float64, params tree.Params, pred, residual []float64, r *rng.Source, sub float64, subN, workers int) error {
	bm := tree.NewBinnedMatrix(x, params.MaxBins)
	n := len(x)
	var par *tree.Parallel
	if workers > 1 {
		par = tree.NewParallel(workers)
	}
	allRows := make([]int, n)
	for i := range allRows {
		allRows[i] = i
	}
	// All boosting rounds share one histogram-buffer pool over the shared
	// binned matrix and one train-prediction buffer; the sequential loop
	// makes that race-free.
	pool := tree.NewHistPool()
	// Per-round training predictions land in one shared buffer: the
	// full-sample path caches leaf assignments into it, the subsample path
	// predicts into it.
	trainBuf := make([]float64, n)
	var tr *tree.Tree
	var trRNG *rng.Source
	for m := 0; m < g.NumTrees; m++ {
		parRange(workers, len(residual), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				residual[i] = y[i] - pred[i] // negative gradient of ½(y−f)²
			}
		})
		if g.discard && tr != nil {
			// The previous round's tree is dead in discard mode: refit it,
			// reusing its node storage. Reseeding its generator in place
			// gives it the draws a fresh tree would get.
			*trRNG = *r.Split()
		} else {
			trRNG = r.Split()
			tr = tree.New(params, trRNG)
			tr.ShareHistPool(pool)
			tr.SetParallel(par)
		}
		var step []float64
		if sub < 1.0 {
			idx := r.Sample(n, subN)
			if err := tr.FitBinned(bm, residual, idx); err != nil {
				return fmt.Errorf("ensemble: GB tree %d: %w", m, err)
			}
			// Out-of-sample rows weren't assigned leaves during growth, and
			// they must route exactly as the deployed model will route them —
			// predict through the float thresholds. Row chunks are
			// independent traversals, so the gather parallelizes freely.
			parRange(workers, n, func(lo, hi int) {
				tr.PredictInto(x[lo:hi], trainBuf[lo:hi])
			})
			step = trainBuf
		} else {
			tr.CacheTrainPredictionsInto(trainBuf)
			if err := tr.FitBinned(bm, residual, allRows); err != nil {
				return fmt.Errorf("ensemble: GB tree %d: %w", m, err)
			}
			step = tr.TrainPredictions()
		}
		parRange(workers, len(pred), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += g.LearningRate * step[i]
			}
		})
		tr.DropTrainCache()
		if g.afterRound != nil {
			g.afterRound(m, tr)
		}
		if !g.discard {
			g.trees = append(g.trees, tr)
		}
	}
	return nil
}

// Predict returns init + lr·Σ treeₘ(x).
func (g *GradientBoosting) Predict(x [][]float64) []float64 {
	if g.trees == nil {
		panic("ensemble: GradientBoosting.Predict before Fit")
	}
	out := make([]float64, len(x))
	for i := range out {
		out[i] = g.init
	}
	step := make([]float64, len(x))
	for _, tr := range g.trees {
		tr.PredictInto(x, step)
		for i := range out {
			// Rounding the product on its own keeps the sum PredictGrid's,
			// bit for bit, on platforms that would fuse it into the add.
			out[i] += float64(g.LearningRate * step[i])
		}
	}
	return out
}

// PredictGrid predicts every cell of a product grid of rows in one walk per
// tree: cell i*len(bs)+j is the row base with base[fa] = as[i] and
// base[fb] = bs[j]. It equals Predict over those rows bit for bit — each
// cell sums init and the same lr-scaled leaf values in the same tree order
// — but walks each tree once over index boxes of the grid instead of once
// per cell. as and bs must be strictly increasing, fa and fb distinct
// indices into base; anything else panics.
func (g *GradientBoosting) PredictGrid(base []float64, fa int, as []float64, fb int, bs []float64) []float64 {
	if g.trees == nil {
		panic("ensemble: GradientBoosting.PredictGrid before Fit")
	}
	if fa == fb || fa < 0 || fb < 0 || fa >= len(base) || fb >= len(base) {
		panic(fmt.Sprintf("ensemble: PredictGrid axes %d and %d over a %d-feature row", fa, fb, len(base)))
	}
	if !strictlyIncreasing(as) || !strictlyIncreasing(bs) {
		panic("ensemble: PredictGrid axes must be strictly increasing")
	}
	out := make([]float64, len(as)*len(bs))
	for i := range out {
		out[i] = g.init
	}
	var s tree.GridScratch
	for _, tr := range g.trees {
		tr.AddGrid(out, base, fa, as, fb, bs, g.LearningRate, &s)
	}
	return out
}

// strictlyIncreasing reports whether xs[i] < xs[i+1] for every i, which
// also refuses NaN.
func strictlyIncreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i-1] < xs[i]) {
			return false
		}
	}
	return true
}

// SplitThresholds returns the sorted, distinct thresholds of every split on
// feature across the boosting stages. A prediction sees the feature only
// through them: two rows that differ only in feature, with the same number
// of listed thresholds below each value, reach the same leaf in every tree
// and get the same prediction bit for bit. A NaN threshold sends every row
// right, so it splits nothing and is left out.
func (g *GradientBoosting) SplitThresholds(feature int) []float64 {
	// The paper GB splits a feature ~10⁵ times on under 200 distinct
	// thresholds, so a set keeps the sort small. It is keyed by bits, the
	// map's fast path, with -0 stored as +0, which compares equal to it.
	seen := map[uint64]struct{}{}
	var out, buf []float64
	for _, tr := range g.trees {
		buf = tr.AppendThresholds(buf[:0], feature)
		for _, th := range buf {
			if th == 0 {
				th = 0
			}
			k := math.Float64bits(th)
			if _, dup := seen[k]; !dup && !math.IsNaN(th) {
				seen[k] = struct{}{}
				out = append(out, th)
			}
		}
	}
	slices.Sort(out)
	return out
}

// FeatureImportances returns the mean impurity-based feature importance
// across the boosting stages, normalized to sum to 1.
func (g *GradientBoosting) FeatureImportances() []float64 {
	return meanImportances(g.trees)
}

// meanImportances averages the per-tree impurity importances and renormalizes
// the result to sum to 1. Nil or empty trees yield a nil slice.
func meanImportances(trees []*tree.Tree) []float64 {
	var sum []float64
	var count int
	for _, tr := range trees {
		if tr == nil {
			continue
		}
		imp := tr.FeatureImportances()
		if sum == nil {
			sum = make([]float64, len(imp))
		}
		for i, v := range imp {
			sum[i] += v
		}
		count++
	}
	if count == 0 || sum == nil {
		return sum
	}
	var total float64
	for i := range sum {
		sum[i] /= float64(count)
		total += sum[i]
	}
	if total > 0 {
		for i := range sum {
			sum[i] /= total
		}
	}
	return sum
}

var (
	_ ml.Regressor       = (*RandomForest)(nil)
	_ ml.Regressor       = (*GradientBoosting)(nil)
	_ ml.FitWorkerSetter = (*RandomForest)(nil)
	_ ml.FitWorkerSetter = (*GradientBoosting)(nil)
	_ ml.FitWorkerSetter = (*AdaBoost)(nil)
)
