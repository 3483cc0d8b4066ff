// Package tree implements a CART regression tree: the paper's Decision
// Tree (DT) model, and the base learner for the Random Forest, Gradient
// Boosting, and AdaBoost ensembles.
//
// Two split engines are available, selected by Params.Splitter:
//
//   - SplitterExact sorts the samples per candidate feature and evaluates
//     every threshold between adjacent distinct values, choosing the split
//     that maximizes variance reduction (equivalently, minimizes the
//     weighted child sum-of-squared-error). It is the reference engine.
//   - SplitterHist quantile-bins every feature into ≤ 256 codes once (see
//     BinnedMatrix) and finds splits by scanning per-bin statistics, the
//     LightGBM/XGBoost-hist approach: O(bins) per feature per node instead
//     of O(n log n), with the parent-minus-sibling subtraction trick and
//     in-place sample partitioning. Ensembles share one BinnedMatrix
//     across all member trees via FitBinned.
//   - SplitterAuto (the default) picks the histogram engine for large
//     training sets and the exact engine otherwise.
//
// Sample weights are supported by both engines so the same tree drives
// AdaBoost. Fitted trees predict from ordinary float thresholds regardless
// of the engine that grew them.
//
// A tree has one node form: flat parallel arrays (see State), which both
// engines append to as they grow, Predict walks by index, and artifacts
// store as they are.
//
// # Parallel discipline
//
// The histogram engine runs multicore under the repo's bit-identical-at-
// any-GOMAXPROCS contract. Worker counts are sized exclusively through
// mat.Workers() — the audited GOMAXPROCS choke point; the gomaxprocsdep
// lint forbids direct runtime reads in this package — and every dispatch
// decision is made before a goroutine starts (the all-or-nothing admission
// style of mat's blocked Cholesky). Two within-fit axes exist: feature
// fan-out, where each feature's histogram region and split scan belongs to
// exactly one goroutine and cross-feature reductions run single-threaded
// in fixed feature order (pure scheduling — incapable of changing a bit);
// and wide-node row sharding, whose shard geometry is a pure function of
// the node's row count, making the fixed-shard-order reduction the
// engine's canonical arithmetic whether executed serially or in parallel.
// See parallel.go for the mechanics, and ShardedHistPool for how
// concurrent fitters keep HistPool's single-goroutine ownership contract.
package tree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"parcost/internal/ml"
	"parcost/internal/rng"
)

// Splitter selects the split-finding engine.
type Splitter int

const (
	// SplitterAuto uses the histogram engine when the training set has at
	// least HistAutoMinSamples rows, the exact engine otherwise.
	SplitterAuto Splitter = iota
	// SplitterExact evaluates every threshold between adjacent distinct
	// values (reference engine; exact feature importances).
	SplitterExact
	// SplitterHist finds splits over quantile-binned features (fast engine).
	SplitterHist
)

// HistAutoMinSamples is the training-set size at which SplitterAuto switches
// a standalone tree fit to the histogram engine. Below it the exact engine
// is cheap and keeps the DT model's interpolation property on small data.
// Ensembles amortize binning across hundreds of trees and switch much
// earlier (see the ensemble package).
const HistAutoMinSamples = 512

// Params configures tree growth.
type Params struct {
	MaxDepth        int      // maximum depth (0 = unlimited)
	MinSamplesSplit int      // minimum samples required to split a node
	MinSamplesLeaf  int      // minimum samples in each resulting leaf
	MaxFeatures     int      // features considered per split (0 = all)
	MinImpurityDec  float64  // minimum variance reduction to accept a split
	Splitter        Splitter // split engine (default SplitterAuto)
	MaxBins         int      // histogram bins per feature (0 = DefaultMaxBins)
}

// DefaultParams returns unrestricted growth with leaf size 1.
func DefaultParams() Params {
	return Params{MaxDepth: 0, MinSamplesSplit: 2, MinSamplesLeaf: 1}
}

// nodeArrays holds a tree's nodes as four parallel columns, one entry per
// node, each read by predict. Entry 0 is the root. A split node i sends a
// row x to Left[i] when x[Feature[i]] <= Cut[i] and to Right[i] otherwise;
// every child sits at a higher index than its parent, so a walk from the
// root always ends. A leaf has Feature -1 and children -1, and predicts
// Cut[i].
type nodeArrays struct {
	Feature []int32
	Cut     []float64
	Left    []int32
	Right   []int32
}

// reset empties the arrays for a fit over n samples to maxDepth, keeping
// their storage and reserving room for the fit's node-count bound: a binary
// tree has at most 2·leaves−1 nodes, with leaves bounded by n/minLeaf and by
// 2^maxDepth.
func (a *nodeArrays) reset(n, minLeaf, maxDepth int) {
	bound := 2*(n/max(minLeaf, 1)) - 1
	if maxDepth > 0 && maxDepth < 31 {
		bound = min(bound, 1<<(maxDepth+1)-1)
	}
	bound = max(bound, 1)
	a.Feature = slices.Grow(a.Feature[:0], bound)
	a.Cut = slices.Grow(a.Cut[:0], bound)
	a.Left = slices.Grow(a.Left[:0], bound)
	a.Right = slices.Grow(a.Right[:0], bound)
}

// add appends a leaf predicting value and returns its index.
func (a *nodeArrays) add(value float64) int {
	a.Feature = append(a.Feature, -1)
	a.Cut = append(a.Cut, value)
	a.Left = append(a.Left, -1)
	a.Right = append(a.Right, -1)
	return len(a.Feature) - 1
}

// split turns leaf i into a split on feature ≤ threshold with the given
// children.
func (a *nodeArrays) split(i, feature int, threshold float64, left, right int) {
	a.Feature[i] = int32(feature)
	a.Cut[i] = threshold
	a.Left[i], a.Right[i] = int32(left), int32(right)
}

// Tree is a fitted regression tree.
type Tree struct {
	Params Params
	nodes  nodeArrays
	dim    int
	rng    *rng.Source // for MaxFeatures subsampling
	depth  int
	gains  []float64 // accumulated variance-reduction per feature

	// trainPred caches, for a histogram fit with cacheTrain set, the leaf
	// value assigned to each BinnedMatrix row that participated in training
	// (see CacheTrainPredictions / TrainPredictions).
	cacheTrain bool
	trainPred  []float64

	// histPool, when set via ShareHistPool, recycles histogram buffers
	// across fits (ensembles share one pool over all member trees).
	histPool *HistPool

	// par, when set via SetParallel, lets histogram fits run within-node
	// work (feature fan-out, wide-node shard builds) on goroutines. Results
	// are bit-identical at any setting; see parallel.go.
	par *Parallel
}

// ShareHistPool makes subsequent histogram fits draw their scratch buffers
// from the given pool instead of allocating fresh ones. Ensembles that grow
// many trees over one BinnedMatrix pass each member the same pool, reducing
// per-tree allocation to the node arrays. The pool must not be shared across
// goroutines.
func (t *Tree) ShareHistPool(p *HistPool) { t.histPool = p }

// SetParallel installs a within-fit execution policy for subsequent
// histogram fits (the exact engine ignores it). nil restores strictly
// serial execution. Any policy produces bit-identical trees — parallelism
// here is pure scheduling (see parallel.go) — so callers choose purely on
// throughput grounds: ensembles that already parallelize across member
// trees leave their members serial, while single-tree fits on multicore
// hosts pass AutoParallel().
func (t *Tree) SetParallel(p *Parallel) { t.par = p }

// New returns an unfitted tree with the given parameters. The rng is used
// only when MaxFeatures < dim (random split-feature subsampling); pass a
// deterministic source for reproducibility.
func New(p Params, r *rng.Source) *Tree {
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	return &Tree{Params: p, rng: r}
}

// Name returns the model identifier.
func (t *Tree) Name() string { return "decisiontree" }

// Fit grows the tree with uniform sample weights.
func (t *Tree) Fit(x [][]float64, y []float64) error {
	if t.resolveSplitter(len(x)) == SplitterHist {
		if _, err := ml.CheckXY(x, y); err != nil {
			return err
		}
		bm := NewBinnedMatrix(x, t.Params.MaxBins)
		rows := make([]int, len(x))
		for i := range rows {
			rows[i] = i
		}
		return t.FitBinned(bm, y, rows)
	}
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(x, y, w)
}

// FitWeighted grows the tree with explicit sample weights (used by AdaBoost).
func (t *Tree) FitWeighted(x [][]float64, y, w []float64) error {
	d, err := ml.CheckXY(x, y)
	if err != nil {
		return err
	}
	if len(w) != len(y) {
		return fmt.Errorf("tree: %d weights but %d samples", len(w), len(y))
	}
	if t.resolveSplitter(len(x)) == SplitterHist {
		bm := NewBinnedMatrix(x, t.Params.MaxBins)
		rows := make([]int, len(x))
		for i := range rows {
			rows[i] = i
		}
		return t.FitBinnedWeighted(bm, y, w, rows)
	}
	t.dim = d
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.nodes.reset(len(idx), t.Params.MinSamplesLeaf, t.Params.MaxDepth)
	t.depth = 0
	t.gains = make([]float64, d)
	t.trainPred = nil
	t.build(x, y, w, idx, 0)
	return nil
}

// resolveSplitter maps SplitterAuto to a concrete engine for n samples.
func (t *Tree) resolveSplitter(n int) Splitter {
	if t.Params.Splitter == SplitterAuto {
		if n >= HistAutoMinSamples {
			return SplitterHist
		}
		return SplitterExact
	}
	return t.Params.Splitter
}

// FitBinned grows the tree with the histogram engine over the given rows of
// a pre-binned matrix, with uniform sample weights. rows may repeat indices
// (bootstrap resampling) and is reordered in place during partitioning.
// Ensembles build one BinnedMatrix per fit and share it across all trees.
func (t *Tree) FitBinned(bm *BinnedMatrix, y []float64, rows []int) error {
	return t.FitBinnedWeighted(bm, y, nil, rows)
}

// FitBinnedWeighted is FitBinned with explicit per-row sample weights
// (indexed by BinnedMatrix row id; nil means uniform).
func (t *Tree) FitBinnedWeighted(bm *BinnedMatrix, y, w []float64, rows []int) error {
	if bm == nil || bm.Rows() == 0 {
		return fmt.Errorf("tree: empty binned matrix")
	}
	if len(y) != bm.Rows() {
		return fmt.Errorf("tree: %d targets but %d binned rows", len(y), bm.Rows())
	}
	if w != nil && len(w) != bm.Rows() {
		return fmt.Errorf("tree: %d weights but %d binned rows", len(w), bm.Rows())
	}
	if len(rows) == 0 {
		return fmt.Errorf("tree: no training rows")
	}
	t.dim = bm.Dim()
	t.nodes.reset(len(rows), t.Params.MinSamplesLeaf, t.Params.MaxDepth)
	t.depth = 0
	t.gains = make([]float64, t.dim)
	if !t.cacheTrain {
		t.trainPred = nil
	} else if len(t.trainPred) != bm.Rows() {
		t.trainPred = make([]float64, bm.Rows())
	}
	pool := t.histPool
	if pool == nil {
		pool = NewHistPool()
	}
	hb := &histBuilder{
		t: t, bm: bm, y: y, w: w,
		stride: histStride,
		pool:   pool,
		useSub: t.Params.MaxFeatures <= 0 || t.Params.MaxFeatures >= t.dim,
		par:    t.par,
	}
	sums := hb.rowSums(rows)
	var hist *histBuf
	if hb.useSub {
		hb.feats = make([]int, t.dim)
		for i := range hb.feats {
			hb.feats[i] = i
		}
		if !hb.stops(rows, 0) {
			hist = hb.getHist()
			hb.accumulate(hist, hb.feats, rows)
		}
	}
	hb.build(rows, hist, sums, 0)
	return nil
}

// CacheTrainPredictions arranges for subsequent FitBinned* calls to record
// each training row's leaf value as the tree is grown, retrievable via
// TrainPredictions. Off by default: only callers that consume the cache
// (gradient boosting's per-round training-set update) should pay the
// n-sized allocation and per-leaf stores.
func (t *Tree) CacheTrainPredictions(on bool) {
	t.cacheTrain = on
	if !on {
		t.trainPred = nil
	}
}

// CacheTrainPredictionsInto is CacheTrainPredictions(true) with a
// caller-owned buffer, which must have one entry per BinnedMatrix row.
// Boosting loops hand every round the same buffer so the per-round cache
// allocation disappears; the fit overwrites entries for its training rows.
func (t *Tree) CacheTrainPredictionsInto(buf []float64) {
	t.cacheTrain = true
	t.trainPred = buf
}

// TrainPredictions returns the cached per-row leaf assignments from the most
// recent histogram fit: entry i is the fitted tree's prediction for row i of
// the BinnedMatrix, recorded as the tree was grown (no traversal pass).
// Entries for rows excluded from the fit are stale. Returns nil unless
// CacheTrainPredictions(true) was set before fitting.
func (t *Tree) TrainPredictions() []float64 { return t.trainPred }

// DropTrainCache releases the cached training predictions. Ensembles call it
// once a tree's training-set predictions have been consumed so retained
// member trees don't pin an n-sized slice each.
func (t *Tree) DropTrainCache() { t.trainPred = nil }

// build recursively constructs a subtree over the given sample indices,
// appending its nodes in left-first preorder, and returns its root index.
func (t *Tree) build(x [][]float64, y, w []float64, idx []int, depth int) int {
	if depth > t.depth {
		t.depth = depth
	}
	id := t.nodes.add(weightedMean(y, w, idx))

	// Stopping conditions.
	if len(idx) < t.Params.MinSamplesSplit ||
		(t.Params.MaxDepth > 0 && depth >= t.Params.MaxDepth) ||
		constantTarget(y, idx) {
		return id
	}

	feat, thr, gain, ok := t.bestSplit(x, y, w, idx)
	if !ok || gain < t.Params.MinImpurityDec {
		return id
	}

	// Partition idx in place around the threshold; the recursion owns idx,
	// so reordering it is free and avoids append-grown child slices.
	lo, hi := 0, len(idx)
	for lo < hi {
		if x[idx[lo]][feat] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	leftIdx, rightIdx := idx[:lo], idx[lo:]
	if len(leftIdx) < t.Params.MinSamplesLeaf || len(rightIdx) < t.Params.MinSamplesLeaf {
		return id
	}
	// Accumulate the total variance reduction attributable to this feature
	// (the standard impurity-based feature-importance measure).
	t.gains[feat] += gain
	left := t.build(x, y, w, leftIdx, depth+1)
	right := t.build(x, y, w, rightIdx, depth+1)
	t.nodes.split(id, feat, thr, left, right)
	return id
}

// FeatureImportances returns the normalized impurity-based importance of
// each feature: the fraction of total variance reduction attributable to
// splits on that feature. The returned slice sums to 1 (or is all zeros for
// a stump with no splits).
func (t *Tree) FeatureImportances() []float64 {
	if t.gains == nil {
		panic("tree: FeatureImportances before Fit")
	}
	out := make([]float64, len(t.gains))
	var total float64
	for _, g := range t.gains {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range t.gains {
		out[i] = g / total
	}
	return out
}

// featureSubset returns the feature indices to consider at a split.
func (t *Tree) featureSubset() []int {
	if t.Params.MaxFeatures <= 0 || t.Params.MaxFeatures >= t.dim {
		all := make([]int, t.dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if t.rng == nil {
		t.rng = rng.New(0)
	}
	return t.rng.Sample(t.dim, t.Params.MaxFeatures)
}

// bestSplit finds the variance-reducing split over the candidate features.
// It returns the feature, threshold, weighted SSE reduction, and whether any
// valid split was found.
func (t *Tree) bestSplit(x [][]float64, y, w []float64, idx []int) (int, float64, float64, bool) {
	parentSSE, parentW := weightedSSE(y, w, idx)
	if parentW == 0 {
		return 0, 0, 0, false
	}
	bestGain := 0.0
	bestFeat := -1
	bestThr := 0.0

	order := make([]int, len(idx))
	for _, feat := range t.featureSubset() {
		copy(order, idx)
		f := feat
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })

		// Prefix sums of w, w*y, w*y² for O(n) threshold scan.
		var leftW, leftWY, leftWY2 float64
		totW, totWY, totWY2 := parentW, 0.0, 0.0
		for _, i := range idx {
			totWY += w[i] * y[i]
			totWY2 += w[i] * y[i] * y[i]
		}
		for s := 0; s < len(order)-1; s++ {
			i := order[s]
			leftW += w[i]
			leftWY += w[i] * y[i]
			leftWY2 += w[i] * y[i] * y[i]
			// Only split between distinct feature values.
			if x[order[s]][f] == x[order[s+1]][f] {
				continue
			}
			rightW := totW - leftW
			if leftW <= 0 || rightW <= 0 {
				continue
			}
			leftSSE := leftWY2 - leftWY*leftWY/leftW
			rightWY := totWY - leftWY
			rightWY2 := totWY2 - leftWY2
			rightSSE := rightWY2 - rightWY*rightWY/rightW
			gain := parentSSE - (leftSSE + rightSSE)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (x[order[s]][f] + x[order[s+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0, false
	}
	return bestFeat, bestThr, bestGain, true
}

// Predict returns one prediction per input row.
func (t *Tree) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	t.PredictInto(x, out)
	return out
}

// PredictInto writes one prediction per row of x into dst (len(dst) must be
// len(x)). Ensemble loops that predict tree-by-tree pass one scratch buffer
// so per-tree prediction costs no allocation.
func (t *Tree) PredictInto(x [][]float64, dst []float64) {
	if len(t.nodes.Feature) == 0 {
		panic("tree: Predict before Fit")
	}
	for i, row := range x {
		dst[i] = t.predictRow(row)
	}
}

func (t *Tree) predictRow(row []float64) float64 {
	a := &t.nodes
	feat := a.Feature
	// Slicing every array to len(feat) lets the compiler drop their bounds
	// checks once feat[i] has passed its own.
	n := len(feat)
	cut, left, right := a.Cut[:n], a.Left[:n], a.Right[:n]
	i := int32(0)
	for f := feat[i]; f >= 0; f = feat[i] {
		if row[f] <= cut[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
	return cut[i]
}

// AppendThresholds appends the threshold of every split on feature (an
// index, ≥ 0) to dst, in node order, and returns the extended slice.
func (t *Tree) AppendThresholds(dst []float64, feature int) []float64 {
	a := &t.nodes
	n := len(a.Feature)
	feat, cut := a.Feature, a.Cut[:n]
	// Every cut is written and only a split on feature advances k: whether
	// a node matches is close to a coin flip, so a branch on it would
	// mispredict about every other node. A leaf's feature is -1, which
	// never matches.
	k := len(dst)
	dst = slices.Grow(dst, n)[:k+n]
	for i := range n {
		dst[k] = cut[i]
		if int(feat[i]) == feature {
			k++
		}
	}
	return dst[:k]
}

// NodeCount returns the number of nodes in the fitted tree.
func (t *Tree) NodeCount() int { return len(t.nodes.Feature) }

// Depth returns the depth of the fitted tree.
func (t *Tree) Depth() int { return t.depth }

// weightedMean returns Σ wᵢyᵢ / Σ wᵢ over the given indices.
func weightedMean(y, w []float64, idx []int) float64 {
	var sw, swy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * y[i]
	}
	if sw == 0 {
		return 0
	}
	return swy / sw
}

// weightedSSE returns the weighted sum of squared deviations from the
// weighted mean, and the total weight.
func weightedSSE(y, w []float64, idx []int) (sse, totW float64) {
	var swy, swy2 float64
	for _, i := range idx {
		totW += w[i]
		swy += w[i] * y[i]
		swy2 += w[i] * y[i] * y[i]
	}
	if totW == 0 {
		return 0, 0
	}
	return swy2 - swy*swy/totW, totW
}

// constantTarget reports whether all targets at idx are equal.
func constantTarget(y []float64, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if math.Abs(y[i]-first) > 1e-15 {
			return false
		}
	}
	return true
}

var _ ml.Regressor = (*Tree)(nil)
