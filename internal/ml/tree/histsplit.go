package tree

// Histogram-based tree growth (LightGBM/XGBoost-hist style). Instead of
// sorting samples per feature per node, each node accumulates per-bin
// statistics (count, Σw, Σwy, Σwy²) over pre-binned feature codes and scans
// the ≤ 256 bin boundaries for the best variance-reducing split. Three
// further techniques keep the hot path allocation-free:
//
//   - the parent-minus-sibling subtraction trick: after a split only the
//     smaller child accumulates its histogram from samples; the larger child
//     reuses the parent's buffer with the sibling subtracted in place;
//   - in-place sample-index partitioning over one shared rows slice, instead
//     of append-grown left/right index slices per node;
//   - a free-list pool of histogram buffers;
//   - occupied-bin lists: every histogram tracks which bins it actually
//     touched, so deep nodes with a handful of samples scan, subtract, and
//     clear O(samples) bins instead of O(256) — empty bins can never win a
//     split (the scan conditions reject one-sided candidates and strict
//     gain comparison keeps the first bin of an equal-gain run), so the
//     sparse scan picks the identical split the dense scan would.

import (
	"math"
	"slices"
)

// histBin holds one bin's accumulated statistics.
type histBin struct {
	n   float64 // sample count (bootstrap duplicates count once each)
	w   float64 // Σ w
	wy  float64 // Σ w·y
	wy2 float64 // Σ w·y²
}

// histSums is a node's total statistics (the zeroth histogram moment).
type histSums struct {
	n   int
	w   float64
	wy  float64
	wy2 float64
}

func (s histSums) sse() float64 {
	if s.w <= 0 {
		return 0
	}
	return s.wy2 - s.wy*s.wy/s.w
}

// histBuf is one pooled histogram buffer plus, per feature, the list of bin
// codes it has touched. Pooled buffers hold an all-zero invariant: putHist
// clears exactly the touched bins, so getHist never pays an O(bins) clear
// and sparse nodes never pay for bins they don't use.
type histBuf struct {
	bins []histBin
	occ  [][]uint8 // [feature] touched bin codes, deduplicated, unsorted
}

// HistPool recycles histogram buffers. A tree fit creates one implicitly,
// but ensembles that grow hundreds of trees over one BinnedMatrix should
// share a pool across their member fits (via Tree.ShareHistPool) so the
// per-tree buffer allocations disappear. Pooled buffers hold an all-zero
// invariant maintained by putHist, which is what makes cross-tree reuse
// free.
//
// Ownership contract: a HistPool is owned by exactly one goroutine at a
// time — bufs is an unsynchronized free list, and the buffers it hands out
// carry the all-zero invariant that only single-owner get/put discipline
// preserves. Tree growth honors this by construction: the build recursion
// runs on one goroutine, and within-node parallel helpers only touch
// buffers the build goroutine acquired for them before dispatch. Concurrent
// fitters (the RF worker pool) must NOT share one pool; they draw from a
// ShardedHistPool, whose per-worker shards make the single-owner contract
// hold per shard with deterministic ownership.
type HistPool struct {
	bufs      []*histBuf
	d, stride int // shape stamp; buffers from a different shape are dropped
}

// NewHistPool returns an empty histogram-buffer pool.
func NewHistPool() *HistPool { return &HistPool{} }

// histStride is the fixed per-feature histogram extent. Codes are uint8, so
// a constant 256 makes hist[f*histStride : ...+histStride] provably cover
// any code — the accumulate gather loop runs without bounds checks — at the
// cost of at most 256−NumBins(f) pooled-but-unused entries per feature.
const histStride = 256

// histBuilder grows one tree over a BinnedMatrix. The builder itself is
// single-goroutine: all pool traffic and all dispatch decisions happen on
// the goroutine running build; par-admitted helpers only ever write state
// the builder handed them before spawning (disjoint histogram regions,
// per-shard private buffers, per-feature candidate slots).
type histBuilder struct {
	t      *Tree
	bm     *BinnedMatrix
	y, w   []float64 // indexed by BinnedMatrix row id; w nil = uniform
	stride int       // histogram entries per feature (histStride)
	pool   *HistPool
	useSub bool       // all features at every node → subtraction trick applies
	feats  []int      // feature universe when useSub
	par    *Parallel  // within-fit execution policy; nil = serial
	shards []*histBuf // scratch: per-shard private histograms for wide nodes
	cands  []featCand // scratch: per-feature best-split candidates
}

// featCand is one feature's best boundary from a split scan.
type featCand struct {
	bin  int
	gain float64
}

// getHist returns an all-zero histogram buffer from the pool.
func (hb *histBuilder) getHist() *histBuf {
	p := hb.pool
	if p.d != hb.bm.d || p.stride != hb.stride {
		// Shape change (new binned matrix): drop stale buffers.
		p.bufs = p.bufs[:0]
		p.d, p.stride = hb.bm.d, hb.stride
	}
	if k := len(p.bufs); k > 0 {
		h := p.bufs[k-1]
		p.bufs = p.bufs[:k-1]
		return h
	}
	h := &histBuf{
		bins: make([]histBin, hb.bm.d*hb.stride),
		occ:  make([][]uint8, hb.bm.d),
	}
	for f := range h.occ {
		h.occ[f] = make([]uint8, 0, hb.bm.NumBins(f))
	}
	return h
}

// putHist restores the all-zero invariant — clearing only the touched bins —
// and returns the buffer to the pool.
func (hb *histBuilder) putHist(h *histBuf) {
	for f, of := range h.occ {
		if len(of) == 0 {
			continue
		}
		base := h.bins[f*hb.stride:]
		for _, c := range of {
			base[c] = histBin{}
		}
		h.occ[f] = of[:0]
	}
	hb.pool.bufs = append(hb.pool.bufs, h)
}

// accumulate adds the given rows into hist for each listed feature,
// recording each bin's first touch in the occupancy list. hist must be
// freshly acquired (all-zero), which every call site guarantees.
//
// Dispatch, in order: nodes wide enough for rowShardCount to return > 1
// ALWAYS use the sharded sum (the canonical arithmetic for wide nodes —
// see parallel.go — whether or not goroutines run it); otherwise a
// feature-parallel fan-out runs when the policy admits it; otherwise the
// plain serial loop. Only the first choice affects results, and it depends
// on nothing but len(rows).
func (hb *histBuilder) accumulate(hist *histBuf, feats, rows []int) {
	if shards := rowShardCount(len(rows)); shards > 1 {
		hb.accumulateSharded(hist, feats, rows, shards)
		return
	}
	if hb.par.featureFanout(len(feats), len(rows)) {
		// Each chunk of feats is built by exactly one goroutine over the same
		// row order as the serial loop; per-feature histogram regions and
		// occupancy lists are disjoint, so this is pure scheduling.
		hb.par.runChunks(len(feats), func(lo, hi int) {
			hb.accumulateFeats(hist, feats[lo:hi], rows)
		})
		return
	}
	hb.accumulateFeats(hist, feats, rows)
}

// accumulateFeats is the row-order accumulation kernel: the column-major
// code layout makes the inner loop a sequential gather.
func (hb *histBuilder) accumulateFeats(hist *histBuf, feats, rows []int) {
	for _, f := range feats {
		codes := hb.bm.codes[f]
		base := f * histStride
		h := hist.bins[base : base+histStride : base+histStride]
		occ := hist.occ[f]
		if hb.w == nil {
			for _, r := range rows {
				yv := hb.y[r]
				c := codes[r]
				b := &h[c]
				if b.n == 0 {
					occ = append(occ, c)
				}
				b.n++
				b.w++
				b.wy += yv
				b.wy2 += yv * yv
			}
		} else {
			for _, r := range rows {
				yv, wv := hb.y[r], hb.w[r]
				c := codes[r]
				b := &h[c]
				if b.n == 0 {
					occ = append(occ, c)
				}
				b.n++
				b.w += wv
				b.wy += wv * yv
				b.wy2 += wv * yv * yv
			}
		}
		hist.occ[f] = occ
	}
}

// accumulateSharded is the canonical accumulation for wide nodes: rows split
// into `shards` contiguous blocks (geometry fixed by rowShardCount, a pure
// function of len(rows)), each block accumulated into a private all-zero
// histogram, and the partials folded into hist in ascending shard order —
// one fixed float-addition order regardless of how many goroutines ran the
// blocks. The private buffers come from and return to the builder's pool on
// the calling goroutine, so the pool's single-owner contract holds even
// when the block builds fan out.
func (hb *histBuilder) accumulateSharded(hist *histBuf, feats, rows []int, shards int) {
	if cap(hb.shards) < shards {
		hb.shards = make([]*histBuf, shards)
	}
	parts := hb.shards[:shards]
	for i := range parts {
		parts[i] = hb.getHist()
	}
	n := len(rows)
	build := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			hb.accumulateFeats(parts[s], feats, rows[s*n/shards:(s+1)*n/shards])
		}
	}
	if hb.par.rowFanout() {
		hb.par.runChunks(shards, build)
	} else {
		build(0, shards)
	}
	// Fixed-order reduction: shard 0 first, then 1, …  — the serial and
	// parallel schedules land on identical floats.
	for _, f := range feats {
		base := f * histStride
		h := hist.bins[base : base+histStride : base+histStride]
		occ := hist.occ[f]
		for _, part := range parts {
			pb := part.bins[base : base+histStride : base+histStride]
			for _, c := range part.occ[f] {
				e := pb[c]
				b := &h[c]
				if b.n == 0 {
					occ = append(occ, c)
				}
				b.n += e.n
				b.w += e.w
				b.wy += e.wy
				b.wy2 += e.wy2
			}
		}
		hist.occ[f] = occ
	}
	for i, part := range parts {
		hb.putHist(part)
		parts[i] = nil
	}
}

// subtract computes larger-child statistics in place: hist -= sib. Only the
// sibling's occupied bins can change, so the loop skips the rest; hist keeps
// its own (parent) occupancy, a superset of the result's support that also
// covers the ~1e-16 float residues subtraction leaves in emptied bins.
func (hb *histBuilder) subtract(hist, sib *histBuf, feats []int) {
	for _, f := range feats {
		h := hist.bins[f*hb.stride:]
		s := sib.bins[f*hb.stride:]
		for _, c := range sib.occ[f] {
			e := s[c]
			b := &h[c]
			b.n -= e.n
			b.w -= e.w
			b.wy -= e.wy
			b.wy2 -= e.wy2
		}
	}
}

// rowSums accumulates total node statistics directly from samples.
func (hb *histBuilder) rowSums(rows []int) histSums {
	s := histSums{n: len(rows)}
	if hb.w == nil {
		for _, r := range rows {
			yv := hb.y[r]
			s.w++
			s.wy += yv
			s.wy2 += yv * yv
		}
	} else {
		for _, r := range rows {
			yv, wv := hb.y[r], hb.w[r]
			s.w += wv
			s.wy += wv * yv
			s.wy2 += wv * yv * yv
		}
	}
	return s
}

// bestSplit scans bin boundaries of the candidate features for the largest
// weighted-SSE reduction. Like the exact splitter, it ignores MinSamplesLeaf
// here — build leafs the node afterwards if the winning split violates it —
// so both engines implement the same pre-pruning semantics.
//
// Features whose occupancy is sparse relative to their bin count scan only
// the occupied bins in ascending code order. This selects the identical
// split as the dense scan: empty bins leave the running prefix unchanged, so
// their gain equals the previous occupied bin's gain and the strict '>'
// comparison never prefers them; empty bins before the first or after the
// last occupied bin fail the one-sided-count guards.
func (hb *histBuilder) bestSplit(hist *histBuf, feats []int, sums histSums) (feat, bin int, gain float64, ok bool) {
	if hb.par.splitFanout(len(feats)) {
		// Parallel fill: each feature scanned by exactly one goroutine into
		// its own candidate slot, then a single-threaded argmax in fixed
		// feature order — the same strict '>' walk as the serial loop, so
		// ties resolve to the same (earliest) feature and bin.
		if cap(hb.cands) < len(feats) {
			hb.cands = make([]featCand, len(feats))
		}
		cands := hb.cands[:len(feats)]
		hb.par.runChunks(len(feats), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cands[i].bin, cands[i].gain = hb.scanFeature(hist, feats[i], sums)
			}
		})
		bestGain := 0.0
		bestFeat, bestBin := -1, -1
		for i, f := range feats {
			if cands[i].gain > bestGain {
				bestGain, bestFeat, bestBin = cands[i].gain, f, cands[i].bin
			}
		}
		if bestFeat < 0 {
			return 0, 0, 0, false
		}
		return bestFeat, bestBin, bestGain, true
	}
	bestGain := 0.0
	bestFeat, bestBin := -1, -1
	for _, f := range feats {
		if b, g := hb.scanFeature(hist, f, sums); g > bestGain {
			bestGain, bestFeat, bestBin = g, f, b
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0, false
	}
	return bestFeat, bestBin, bestGain, true
}

// scanFeature walks one feature's bin boundaries and returns its best
// boundary and gain (gain 0 when no valid candidate beats it). Safe to run
// concurrently across DIFFERENT features of one buffer: it reads only f's
// histogram region and mutates only f's occupancy list (the sparse path's
// in-place sort).
func (hb *histBuilder) scanFeature(hist *histBuf, f int, sums histSums) (bin int, gain float64) {
	parentSSE := sums.sse()
	bestGain := 0.0
	bestBin := -1
	nb := hb.bm.NumBins(f)
	if nb < 2 {
		return bestBin, bestGain
	}
	h := hist.bins[f*hb.stride : f*hb.stride+nb]
	var lc, lw, lwy, lwy2 float64
	if occ := hist.occ[f]; len(occ)*2 < nb {
		// Sparse path: keep the list sorted in place (it stays sorted for
		// any later scan of this buffer) and walk only touched bins.
		slices.Sort(occ)
		for _, c := range occ {
			b := int(c)
			if b >= nb-1 {
				break // the last bin is not a split boundary
			}
			e := h[b]
			lc += e.n
			lw += e.w
			lwy += e.wy
			lwy2 += e.wy2
			if lc <= 0 || float64(sums.n)-lc <= 0 {
				continue
			}
			rw := sums.w - lw
			if lw <= 0 || rw <= 0 {
				continue
			}
			leftSSE := lwy2 - lwy*lwy/lw
			rwy := sums.wy - lwy
			rwy2 := sums.wy2 - lwy2
			rightSSE := rwy2 - rwy*rwy/rw
			g := parentSSE - (leftSSE + rightSSE)
			if g > bestGain {
				bestGain, bestBin = g, b
			}
		}
		return bestBin, bestGain
	}
	for b := 0; b < nb-1; b++ {
		e := h[b]
		lc += e.n
		lw += e.w
		lwy += e.wy
		lwy2 += e.wy2
		// Counts are exact integers even after subtraction, unlike the
		// float moments, whose ~1e-16 residues in empty bins could
		// otherwise fake a candidate with samples on both sides.
		if lc <= 0 || float64(sums.n)-lc <= 0 {
			continue
		}
		rw := sums.w - lw
		if lw <= 0 || rw <= 0 {
			continue
		}
		leftSSE := lwy2 - lwy*lwy/lw
		rwy := sums.wy - lwy
		rwy2 := sums.wy2 - lwy2
		rightSSE := rwy2 - rwy*rwy/rw
		g := parentSSE - (leftSSE + rightSSE)
		if g > bestGain {
			bestGain, bestBin = g, b
		}
	}
	return bestBin, bestGain
}

// nodeThreshold converts a winning bin boundary into the exact engine's
// float-threshold convention: the midpoint between the node's highest
// populated bin at or below the boundary and its lowest populated bin above
// it, using the per-bin observed value ranges. The raw quantile cut sits just
// above the left value, so held-out samples falling inside the node's value
// gap would otherwise route differently than under the exact engine.
func (hb *histBuilder) nodeThreshold(hist *histBuf, feat, bin int) float64 {
	h := hist.bins[feat*hb.stride:]
	bl, br := -1, -1
	for b := bin; b >= 0; b-- {
		if h[b].n > 0 {
			bl = b
			break
		}
	}
	for b, nb := bin+1, hb.bm.NumBins(feat); b < nb; b++ {
		if h[b].n > 0 {
			br = b
			break
		}
	}
	if bl < 0 || br < 0 { // unreachable for a valid split; keep the raw cut
		return hb.bm.Cut(feat, bin)
	}
	return midpoint(hb.bm.binMax[feat][bl], hb.bm.binMin[feat][br])
}

// leftSums sums the histogram prefix bins 0..bin of feat — the statistics of
// the left child, with the right child following by subtraction from sums.
func (hb *histBuilder) leftSums(hist *histBuf, feat, bin int) histSums {
	var s histSums
	h := hist.bins[feat*hb.stride:]
	for b := 0; b <= bin; b++ {
		s.n += int(h[b].n)
		s.w += h[b].w
		s.wy += h[b].wy
		s.wy2 += h[b].wy2
	}
	return s
}

// partitionRows reorders rows in place so samples with code ≤ bin on feat
// come first, returning the boundary index.
func partitionRows(rows []int, codes []uint8, bin uint8) int {
	i, j := 0, len(rows)
	for i < j {
		if codes[rows[i]] <= bin {
			i++
		} else {
			j--
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	return i
}

// build grows a subtree over rows and returns its root index. In useSub mode
// hist holds this node's already-accumulated histogram (owned by the
// caller); otherwise hist is nil and the node accumulates one for its
// sampled features on demand. Nodes are appended in build order — a node,
// then its smaller child's subtree, then its larger child's — so every child
// follows its parent.
func (hb *histBuilder) build(rows []int, hist *histBuf, sums histSums, depth int) int {
	t := hb.t
	if depth > t.depth {
		t.depth = depth
	}
	var value float64
	if sums.w > 0 {
		value = sums.wy / sums.w
	}
	id := t.nodes.add(value)

	// Stopping conditions — identical to the exact engine's, so both produce
	// the same pre-pruning behavior.
	if hb.stops(rows, depth) {
		hb.recordLeaf(rows, value)
		return id
	}

	feats := hb.feats
	ownHist := hist == nil
	if ownHist {
		feats = t.featureSubset()
		hist = hb.getHist()
		hb.accumulate(hist, feats, rows)
	}
	feat, bin, gain, ok := hb.bestSplit(hist, feats, sums)
	if !ok || gain < t.Params.MinImpurityDec {
		// Whether owned or inherited from the parent, the buffer's journey
		// ends here; return it so the pool stays complete across trees.
		hb.putHist(hist)
		hb.recordLeaf(rows, value)
		return id
	}

	lSums := hb.leftSums(hist, feat, bin)
	rSums := histSums{n: sums.n - lSums.n, w: sums.w - lSums.w, wy: sums.wy - lSums.wy, wy2: sums.wy2 - lSums.wy2}
	mid := partitionRows(rows, hb.bm.codes[feat], uint8(bin))
	left, right := rows[:mid], rows[mid:]
	if len(left) < t.Params.MinSamplesLeaf || len(right) < t.Params.MinSamplesLeaf {
		// Same pre-pruning as the exact engine: a winning split that starves
		// a child turns the node into a leaf.
		hb.putHist(hist)
		hb.recordLeaf(rows, value)
		return id
	}

	threshold := hb.nodeThreshold(hist, feat, bin)
	t.gains[feat] += gain

	if !hb.useSub || ownHist {
		// Feature subsets differ per node (or this histogram only covers this
		// node's subset), so children rebuild their own histograms.
		if ownHist {
			hb.putHist(hist)
		}
		l := hb.build(left, nil, lSums, depth+1)
		r := hb.build(right, nil, rSums, depth+1)
		t.nodes.split(id, feat, threshold, l, r)
		return id
	}

	// Subtraction trick: only the smaller child accumulates from samples; the
	// parent buffer, minus the sibling, becomes the larger child's histogram.
	// A child that will stop immediately (e.g. the whole level at the depth
	// cap) gets no histogram at all — build leafs before reading it.
	small, large := left, right
	smallSums, largeSums := lSums, rSums
	if len(left) > len(right) {
		small, large = right, left
		smallSums, largeSums = rSums, lSums
	}
	var smallHist, largeHist, sib *histBuf
	if !hb.stops(large, depth+1) {
		sib = hb.getHist()
		hb.accumulate(sib, feats, small)
		hb.subtract(hist, sib, feats)
		largeHist = hist
		if !hb.stops(small, depth+1) {
			smallHist = sib
		}
	} else {
		if !hb.stops(small, depth+1) {
			sib = hb.getHist()
			hb.accumulate(sib, feats, small)
			smallHist = sib
		}
		// Neither child inherits the parent buffer; back to the pool.
		hb.putHist(hist)
	}
	smallNode := hb.build(small, smallHist, smallSums, depth+1)
	if sib != nil && smallHist == nil {
		// sib served only the subtraction; no child subtree owns it.
		hb.putHist(sib)
	}
	largeNode := hb.build(large, largeHist, largeSums, depth+1)
	if len(left) <= len(right) {
		t.nodes.split(id, feat, threshold, smallNode, largeNode)
	} else {
		t.nodes.split(id, feat, threshold, largeNode, smallNode)
	}
	return id
}

// stops reports whether a node over the given rows at the given depth
// becomes a leaf without attempting a split. The conditions match the exact
// engine's exactly (including its constant-target scan, which short-circuits
// at the first differing target on noisy data).
func (hb *histBuilder) stops(rows []int, depth int) bool {
	t := hb.t
	if len(rows) < t.Params.MinSamplesSplit ||
		(t.Params.MaxDepth > 0 && depth >= t.Params.MaxDepth) {
		return true
	}
	first := hb.y[rows[0]]
	for _, r := range rows[1:] {
		if math.Abs(hb.y[r]-first) > 1e-15 {
			return false
		}
	}
	return true
}

// recordLeaf caches the leaf value for every training row that landed here,
// giving ensembles the just-fit tree's training predictions for free (no
// root-to-leaf traversal pass). No-op unless the cache was requested.
func (hb *histBuilder) recordLeaf(rows []int, value float64) {
	tp := hb.t.trainPred
	if tp == nil {
		return
	}
	for _, r := range rows {
		tp[r] = value
	}
}
