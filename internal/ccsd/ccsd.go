// Package ccsd is a cost model for a single iteration of closed-shell CCSD
// (Coupled Cluster with Singles and Doubles), the application the paper
// measured on Aurora and Frontier.
//
// It substitutes for running ExaChem/TAMM on the real machines. Rather than
// solving the CC amplitude equations numerically (which would produce no
// runtime signal), it reproduces the *performance structure* of a CCSD
// iteration: the canonical list of tensor contractions, each with its FLOP
// and communication volume, lowered onto a machine's ranks through the
// scheduler in internal/simsched. The dominant term is the O²V⁴
// particle-particle ladder; the model also includes the O⁴V² and O³V³
// terms and the singles contributions, matching the textbook CCSD operation
// count.
//
// The output — seconds for one iteration of a given
// ⟨O, V, NumNodes, TileSize⟩ — is exactly the target the paper's ML models
// predict. Sweeping this model over problem sizes, node counts, and tile
// sizes generates datasets with the same schema and runtime-surface shape
// as the paper's measured data.
//
// On the exact path a term's blocks are costed once per tile-size class
// (which axes sit on their remainder tile, at most 2⁶ classes) rather than
// once per block, and the GEMM shape of a class's external and contraction
// halves once per half; the per-block durations and the communication sum
// are still emitted in block order, so the result is bit-identical to
// costing every block.
//
// A Tile, built by NewTile once per (machine, problem, tile), is the only
// way a tile is costed. It holds everything about the five terms that does
// not depend on the node count: each term's block count and flops, and
// either its per-class block costs (a list-scheduled term) or its block
// duration statistics (a term on the aggregate model above the block cap).
// Three finishers take it to a node count: Feasible, Simulate and Bounds.
// Simulate is the package's Simulate with the tile already costed, bit for
// bit; a caller that asks about many node counts at a few tiles, like the
// advisor's oracle walk over a grid, keeps one Tile per tile.
//
// Bounds brackets the iteration time without running the list scheduler,
// for callers that only need to know whether the time falls in a band. Each
// list-scheduled term with more blocks than ranks is bounded by Graham's
// list-scheduling bounds, max(pₘₐₓ, Σ/r) ≤ makespan ≤ Σ/r + pₘₐₓ, where Σ
// and pₘₐₓ come from the per-class durations times the class block counts;
// a term with no more blocks than ranks has makespan pₘₐₓ exactly, and a
// term on the aggregate model is costed exactly as Simulate costs it.
// Communication uses the closed-form Σ count·bytes, since CommTime is
// monotone in bytes. Simulate's floats (rank loads and the comm total, each
// a sum of at most ExactBlockCap terms) differ from the real sums by
// rounding, so the list-scheduled bounds are widened by a relative slack
// derived from the block cap (see boundSlack).
package ccsd

import (
	"fmt"
	"math"

	"parcost/internal/machine"
	"parcost/internal/simsched"
	"parcost/internal/tensor"
)

// bytesPerElem is the size of one double-precision tensor element.
const bytesPerElem = 8.0

// TermKind labels a contraction by its computational signature.
type TermKind int

const (
	// PPL is the particle-particle ladder, the O²V⁴ rate-limiting term.
	PPL TermKind = iota
	// HHL is the hole-hole ladder, an O⁴V² term.
	HHL
	// RING is the ring/particle-hole term, O³V³.
	RING
	// DOUBLES covers the remaining O³V³-class doubles contributions.
	DOUBLES
	// SINGLES covers the singles (T1) contributions, O²V³ and O³V².
	SINGLES
)

func (k TermKind) String() string {
	switch k {
	case PPL:
		return "ppl(O2V4)"
	case HHL:
		return "hhl(O4V2)"
	case RING:
		return "ring(O3V3)"
	case DOUBLES:
		return "doubles(O3V3)"
	case SINGLES:
		return "singles"
	}
	return "unknown"
}

// Term is one tensor contraction within a CCSD iteration. It is lowered to a
// block space (one task per block) whose GEMM flop and communication volume
// the machine model costs.
type Term struct {
	Kind TermKind
	// External axes define the output tensor blocks (task parallelism).
	External []tensor.Axis
	// Contraction axes are summed inside each task's GEMM (the K dim).
	Contract []tensor.Axis
	// Weight scales the operation count to reflect how many algebraically
	// distinct contractions share this signature in the CCSD equations.
	Weight float64
}

// Problem bundles the orbital counts.
type Problem struct {
	O, V int
}

// tiled returns an axis of the given extent at tile size ts.
func tiled(extent, ts int) tensor.Axis { return tensor.Axis{Extent: extent, Tile: ts} }

// Terms returns the canonical contraction list for one closed-shell CCSD
// iteration at the given tile size. Extents are O (occupied) and V
// (virtual). The weights are chosen so the aggregate operation count
// reproduces the textbook CCSD scaling, with the O²V⁴ ladder dominant.
func Terms(p Problem, tile int) []Term {
	o, v := p.O, p.V
	return []Term{
		// Particle-particle ladder: residual R[i,j,a,b] += <ab|cd> T[i,j,c,d].
		// External (i,j,a,b) = O²V², contract (c,d) = V². Cost ∝ O²V⁴.
		{Kind: PPL, Weight: 1.0,
			External: []tensor.Axis{tiled(o, tile), tiled(o, tile), tiled(v, tile), tiled(v, tile)},
			Contract: []tensor.Axis{tiled(v, tile), tiled(v, tile)}},
		// Hole-hole ladder: R[i,j,a,b] += <kl|ij> T[k,l,a,b].
		// External O²V², contract O². Cost ∝ O⁴V².
		{Kind: HHL, Weight: 1.0,
			External: []tensor.Axis{tiled(o, tile), tiled(o, tile), tiled(v, tile), tiled(v, tile)},
			Contract: []tensor.Axis{tiled(o, tile), tiled(o, tile)}},
		// Ring term: R[i,j,a,b] += <kb|cj> T[i,k,a,c]. External O²V²,
		// contract OV. Cost ∝ O³V³. Four permutationally distinct rings.
		{Kind: RING, Weight: 4.0,
			External: []tensor.Axis{tiled(o, tile), tiled(o, tile), tiled(v, tile), tiled(v, tile)},
			Contract: []tensor.Axis{tiled(o, tile), tiled(v, tile)}},
		// Remaining doubles intermediates, also O³V³ class.
		{Kind: DOUBLES, Weight: 2.0,
			External: []tensor.Axis{tiled(o, tile), tiled(o, tile), tiled(v, tile), tiled(v, tile)},
			Contract: []tensor.Axis{tiled(o, tile), tiled(v, tile)}},
		// Singles: R[i,a] += <ak|cd> T... ; O²V³ leading, lumped here.
		{Kind: SINGLES, Weight: 3.0,
			External: []tensor.Axis{tiled(o, tile), tiled(v, tile), tiled(v, tile)},
			Contract: []tensor.Axis{tiled(o, tile), tiled(v, tile)}},
	}
}

// Flops returns the floating-point operation count of the term: 2 × (output
// elements) × (contraction extent), scaled by the term weight.
func (t Term) Flops() float64 {
	ext := tensor.Space(t.External).Elements()
	con := tensor.Space(t.Contract).Elements()
	return 2 * ext * con * t.Weight
}

// blockSpace returns the full block space of the term (external × contract),
// i.e. the task set. Each task is one output block accumulating over the
// contraction tiles.
func (t Term) blockSpace() tensor.Space {
	sp := make(tensor.Space, 0, len(t.External)+len(t.Contract))
	sp = append(sp, t.External...)
	sp = append(sp, t.Contract...)
	return sp
}

// Options controls a CCSD iteration simulation.
type Options struct {
	// ExactBlockCap is the largest block count simulated with the exact
	// list scheduler; above it the aggregate makespan model is used. Zero
	// selects a sensible default.
	ExactBlockCap int
}

func (o Options) cap() int {
	if o.ExactBlockCap <= 0 {
		return 4096
	}
	return o.ExactBlockCap
}

// TermCost is the per-term timing breakdown of a simulated iteration.
type TermCost struct {
	Kind    TermKind
	Blocks  float64
	Flops   float64
	Compute float64 // seconds of exposed compute (the scheduled makespan)
	Comm    float64 // seconds of exposed communication
	Exact   bool    // whether the exact scheduler was used
}

// Breakdown is the full timing breakdown of a simulated iteration.
type Breakdown struct {
	Config       machine.Spec
	Problem      Problem
	Tile         int
	Nodes        int
	Ranks        int
	Terms        []TermCost
	Seconds      float64 // total iteration wall time
	MemPerRank   float64 // bytes of tile buffers resident per rank
	SyncOverhead float64 // per-iteration rank-coordination overhead (seconds)
}

// Feasible reports whether the configuration fits in machine memory. CCSD
// holds the T2 amplitudes and the largest integral blocks distributed
// across ranks; if per-rank memory is exceeded the run is infeasible. The
// reason text is built only for an infeasible configuration.
func Feasible(spec machine.Spec, p Problem, tile, nodes int) (bool, string) {
	if nodes <= 0 || tile <= 0 {
		return false, "non-positive nodes or tile"
	}
	if perRankDist, ok := t2Share(spec, p, nodes); !ok {
		return false, fmt.Sprintf("distributed T2 %.2e B/rank exceeds node memory", perRankDist)
	}
	if working, ok := tileWorkingSet(spec, tile); !ok {
		return false, fmt.Sprintf("tile working set %.2e B exceeds rank memory", working)
	}
	return true, ""
}

// t2Share returns the bytes of the distributed T2 amplitude tensor (O²V²
// doubles) each rank of a nodes-node job holds, nodes > 0, and whether they
// fit in node memory. The two-electron integrals <ab|cd> are V⁴ but stored
// in tiles, so their resident share is part of the tile working set.
func t2Share(spec machine.Spec, p Problem, nodes int) (perRankDist float64, ok bool) {
	t2 := float64(p.O) * float64(p.O) * float64(p.V) * float64(p.V) * bytesPerElem
	perRankDist = t2 / float64(spec.Ranks(nodes))
	return perRankDist, !(perRankDist > spec.NodeMemBytes*float64(spec.RanksPerNode))
}

// tileWorkingSet returns a rank's task-local buffers at a positive tile
// size, a few blocks of the largest tile product, and whether they fit in
// rank memory.
func tileWorkingSet(spec machine.Spec, tile int) (working float64, ok bool) {
	block := float64(tile) * float64(tile) * float64(tile) * float64(tile) * bytesPerElem
	working = 6 * block
	return working, !(working > spec.RankMemBytes)
}

// checkFeasible returns Simulate's error for a memory-infeasible
// configuration, or nil.
func checkFeasible(spec machine.Spec, p Problem, tile, nodes int) error {
	if ok, why := Feasible(spec, p, tile, nodes); !ok {
		return fmt.Errorf("ccsd: infeasible config O=%d V=%d tile=%d nodes=%d: %s", p.O, p.V, tile, nodes, why)
	}
	return nil
}

// Simulate computes the noise-free wall time of one CCSD iteration for the
// given configuration on the given machine. It returns an error if the
// configuration is memory-infeasible, before costing any term. Otherwise it
// is NewTile(spec, p, tile, opts).Simulate(nodes).
func Simulate(spec machine.Spec, p Problem, tile, nodes int, opts Options) (Breakdown, error) {
	if err := checkFeasible(spec, p, tile, nodes); err != nil {
		return Breakdown{}, err
	}
	return NewTile(spec, p, tile, opts).Simulate(nodes)
}

// iterationSeconds sums the terms' exposed compute and communication into
// the noise-free iteration time. Each float operation is monotone in its
// operands, so summing per-term lower (upper) bounds in this same order
// bounds the sum of the exact terms.
func iterationSeconds(spec machine.Spec, nodes int, terms []TermCost) float64 {
	var total float64
	// Each term is a synchronization stage.
	barrier := spec.BarrierTime(nodes)
	for _, tc := range terms {
		total += tc.Compute + tc.Comm
		total += barrier
	}
	// Per-iteration coordination overhead that grows with the rank count;
	// this is what rolls off strong scaling and yields an interior
	// shortest-time optimum.
	return total + spec.SyncOverhead(nodes)
}

// numTerms is the number of contractions Terms returns.
const numTerms = 5

// Tile is the node-independent cost of one (machine, problem, tile): each
// term's block count, flops and block costs, computed once. Feasible,
// Simulate and Bounds finish it for a node count. A Tile is read-only once
// built, so its finishers may run concurrently.
type Tile struct {
	spec    machine.Spec
	p       Problem
	tile    int
	working float64 // the tile working set per rank (Breakdown.MemPerRank)
	tileOK  bool    // tile > 0 and its working set fits in rank memory
	slack   float64 // boundSlack at the options' block cap
	terms   [numTerms]tileTerm
}

// tileTerm is one term's node-independent cost. A list-scheduled term
// (exact) keeps its block space and per-class block costs, which Simulate
// lays out in block order, and the total work, communication bytes and
// longest block over its classes, summed in class order, which Bounds
// uses; a term on the aggregate model keeps the block duration statistics
// and bytes per block that aggregate finishes for a rank count.
type tileTerm struct {
	kind   TermKind
	blocks float64
	flops  float64
	exact  bool

	space             tensor.Space // list-scheduled
	classes           []blockClass
	work, bytes, pmax float64

	meanDur, std, maxDur, commBytesPerBlock float64 // aggregate
}

// NewTile costs the CCSD terms of p at tile size tile once, for any node
// count. The terms are costed only when the tile's working set fits in
// rank memory: otherwise every node count is infeasible. p must have
// positive O and V, as Terms requires.
func NewTile(spec machine.Spec, p Problem, tile int, opts Options) *Tile {
	t := new(Tile)
	t.init(spec, p, tile, opts)
	return t
}

// init builds t as NewTile documents. NewTile is small enough to inline, so
// a caller whose Tile does not outlive it, like Simulate, keeps it on the
// stack.
func (t *Tile) init(spec machine.Spec, p Problem, tile int, opts Options) {
	*t = Tile{spec: spec, p: p, tile: tile, slack: boundSlack(opts.cap())}
	working, fits := tileWorkingSet(spec, tile)
	if t.tileOK = tile > 0 && fits; !t.tileOK {
		return
	}
	t.working = working
	for i, term := range Terms(p, tile) {
		t.terms[i] = newTileTerm(spec, term, tile, opts)
	}
}

// newTileTerm costs one term, on the aggregate model above the block cap.
func newTileTerm(spec machine.Spec, term Term, tile int, opts Options) tileTerm {
	space := term.blockSpace()
	blocks := space.Blocks()
	if blocks > float64(opts.cap()) {
		return aggregateTerm(spec, term, tile, blocks)
	}
	tt := tileTerm{kind: term.Kind, blocks: blocks, flops: term.Flops(), exact: true,
		space: space, classes: classCosts(spec, term, tile, space)}
	for _, c := range tt.classes {
		if c.blocks == 0 {
			continue
		}
		tt.work += c.blocks * c.dur
		tt.bytes += c.blocks * c.commBytes
		tt.pmax = math.Max(tt.pmax, c.dur)
	}
	return tt
}

// Feasible reports Feasible(spec, p, tile, nodes)'s ok without building its
// reason text.
func (t *Tile) Feasible(nodes int) bool {
	if !t.tileOK || nodes <= 0 {
		return false
	}
	_, ok := t2Share(t.spec, t.p, nodes)
	return ok
}

// Simulate returns the package Simulate's breakdown for the Tile's
// machine, problem, tile and options at nodes, bit for bit, and the same
// error.
func (t *Tile) Simulate(nodes int) (Breakdown, error) {
	if !t.Feasible(nodes) {
		return Breakdown{}, checkFeasible(t.spec, t.p, t.tile, nodes)
	}
	ranks := t.spec.Ranks(nodes)
	bd := Breakdown{Config: t.spec, Problem: t.p, Tile: t.tile, Nodes: nodes, Ranks: ranks,
		Terms: make([]TermCost, numTerms), MemPerRank: t.working}
	for i := range t.terms {
		bd.Terms[i] = t.terms[i].simulate(t.spec, nodes, ranks)
	}
	bd.Seconds = iterationSeconds(t.spec, nodes, bd.Terms)
	bd.SyncOverhead = t.spec.SyncOverhead(nodes)
	return bd, nil
}

// Bounds returns lo ≤ Simulate(nodes).Seconds ≤ hi without running the
// list scheduler, and errors exactly when Simulate does, with the same
// error.
func (t *Tile) Bounds(nodes int) (lo, hi float64, err error) {
	if !t.Feasible(nodes) {
		return 0, 0, checkFeasible(t.spec, t.p, t.tile, nodes)
	}
	ranks := t.spec.Ranks(nodes)
	var los, his [numTerms]TermCost
	for i := range t.terms {
		los[i], his[i] = t.terms[i].bounds(t.spec, nodes, ranks, t.slack)
	}
	return iterationSeconds(t.spec, nodes, los[:]), iterationSeconds(t.spec, nodes, his[:]), nil
}

// simulate costs the term on a nodes-node job of ranks ranks. A
// list-scheduled term's per-block durations and communication sum follow
// block order, which keeps every float equal to costing block by block.
func (t *tileTerm) simulate(spec machine.Spec, nodes, ranks int) TermCost {
	if !t.exact {
		return t.aggregate(spec, nodes, ranks)
	}
	durs := make([]float64, 0, int(t.blocks))
	var commTotal float64
	_ = t.space.ForEachBlockClass(int(t.blocks), func(c int) {
		durs = append(durs, t.classes[c].dur)
		commTotal += t.classes[c].commBytes
	})
	return TermCost{Kind: t.kind, Blocks: t.blocks, Flops: t.flops, Exact: true,
		Compute: simsched.ListMakespan(durs, ranks),
		Comm:    termComm(spec, commTotal, t.blocks, nodes, ranks)}
}

// bounds returns lower and upper bounds on simulate's Compute and Comm for
// the term at a rank count; the other fields equal simulate's.
func (t *tileTerm) bounds(spec machine.Spec, nodes, ranks int, slack float64) (lo, hi TermCost) {
	if !t.exact {
		tc := t.aggregate(spec, nodes, ranks)
		return tc, tc
	}
	lo = TermCost{Kind: t.kind, Blocks: t.blocks, Flops: t.flops, Exact: true}
	hi = lo
	if t.blocks <= float64(ranks) {
		// Every block starts on an idle rank: the makespan is the longest
		// block, exactly.
		lo.Compute, hi.Compute = t.pmax, t.pmax
	} else {
		// Graham: max(pmax, Σ/r) ≤ greedy makespan ≤ Σ/r + pmax.
		mean := t.work / float64(ranks)
		lo.Compute = math.Max(t.pmax, mean*(1-slack))
		hi.Compute = (mean + t.pmax) * (1 + slack)
	}
	// CommTime is monotone in bytes, so bounding the bytes bounds it.
	lo.Comm = termComm(spec, t.bytes*(1-slack), t.blocks, nodes, ranks)
	hi.Comm = termComm(spec, t.bytes*(1+slack), t.blocks, nodes, ranks)
	return lo, hi
}

// getsPerBlock is the number of one-sided gets a block task issues, one per
// input tile operand.
const getsPerBlock = 2.0

// termComm returns the exposed communication seconds of a term whose blocks
// get bytes in total, spread evenly over the ranks.
func termComm(spec machine.Spec, bytes, blocks float64, nodes, ranks int) float64 {
	return spec.CommTime(bytes/float64(ranks), int(getsPerBlock*blocks/float64(ranks)), nodes)
}

// boundSlack is the relative slack that widens the bounds' interval over
// float rounding on a term of at most blockCap blocks. With u = 2⁻⁵³ and
// n ≤ blockCap, each of simulate's rank loads and its commTotal is a
// float sum of at most n non-negative terms, within a factor (1 ± γₙ) of
// the real sum (γₙ = nu/(1−nu)); the bounds' Σ count·cost sums at most n
// products, also within γₙ. The greedy argument holds for the float loads:
// the longest float load ends with a task d added to the then least-loaded
// rank, whose float load is at most the mean float load (1+γₙ)(Σ−d)/r.
// Together with the few single roundings of the division, the additions and
// the slack factor itself, the lower and upper bounds need a slack of about
// 2(n+2)u to first order; twice that also covers the second-order terms.
// 1 ± slack is exact because slack is an even multiple of u below ½.
func boundSlack(blockCap int) float64 {
	return 4 * float64(blockCap+2) * 0x1p-53
}

// aggregateTerm costs a term's blocks for the aggregate makespan model:
// the per-block duration statistics and communication bytes, which do not
// depend on the node count.
func aggregateTerm(spec machine.Spec, term Term, tile int, blocks float64) tileTerm {
	tb := tileTerm{kind: term.Kind, blocks: blocks, flops: term.Flops()}

	// Per-block GEMM characteristics. Each block task performs a GEMM whose
	// flop count is 2 × (external block elements) × (contraction block
	// elements) × weight, and whose smallest dimension governs GPU
	// efficiency. We take the contraction extent as the GEMM K dimension.
	contractMean, _ := tensor.Space(term.Contract).SizeMoments()
	externalMean, _ := tensor.Space(term.External).SizeMoments()

	// Duration of the mean block: flops / (peak*eff). The GEMM minimum
	// dimension is the smaller of the external-block and contraction sizes,
	// which determines arithmetic intensity on the GPU.
	minDim := math.Min(math.Pow(externalMean, 1.0/float64(max(1, len(term.External)))),
		math.Pow(contractMean, 1.0/float64(max(1, len(term.Contract)))))
	// Scale minDim toward the tile size (the real GEMM inner dimension).
	minDim = math.Min(minDim, float64(tile))

	blockFlops := 2 * externalMean * contractMean * term.Weight
	tb.meanDur = spec.GemmTime(blockFlops, minDim) + spec.TaskOverheadSec

	// Communication: each task gets its input tiles from remote ranks.
	// Volume per task ≈ (external block + contraction block) elements.
	tb.commBytesPerBlock = (externalMean + contractMean) * bytesPerElem

	_, variance := sizeMomentsDuration(spec, term, tile)
	tb.std = math.Sqrt(variance)
	tb.maxDur = spec.GemmTime(maxBlockFlops(term), float64(tile)) + spec.TaskOverheadSec
	if tb.maxDur < tb.meanDur {
		tb.maxDur = tb.meanDur
	}
	return tb
}

// aggregate costs an aggregate-model term on a nodes-node job of ranks
// ranks.
func (t *tileTerm) aggregate(spec machine.Spec, nodes, ranks int) TermCost {
	return TermCost{Kind: t.kind, Blocks: t.blocks, Flops: t.flops,
		Compute: simsched.ExpectedMakespan(t.blocks, t.meanDur, t.std, t.maxDur, ranks),
		Comm:    termComm(spec, t.blocks*t.commBytesPerBlock, t.blocks, nodes, ranks)}
}

// blockClass is the cost of one tile-size class of a term's blocks (see
// tensor.Space.ForEachBlockClass).
type blockClass struct {
	blocks    float64 // blocks in the class; zero when the class is absent
	dur       float64 // seconds of one block task
	commBytes float64 // bytes one block task gets
}

// classCosts costs each tile-size class present in the term's block space
// once, indexed by class. Absent classes are left zero. A class's low
// len(term.External) bits are the class of its external axes and the rest
// that of its contraction axes; a block's GEMM shape depends on each half
// separately, so each half is costed once (see gemmHalf) and shared by
// every class that holds it.
func classCosts(spec machine.Spec, term Term, tile int, space tensor.Space) []blockClass {
	counts := space.ClassBlocks()
	classes := make([]blockClass, len(counts))
	nExt := len(term.External)
	halves := make([]gemmHalf, 1<<nExt+1<<len(term.Contract))
	ext, con := halves[:1<<nExt], halves[1<<nExt:]
	sizes := make([]int, len(space))
	for c, n := range counts {
		if n == 0 {
			continue
		}
		e := ext[c&(1<<nExt-1)].cost(term.External, c&(1<<nExt-1), sizes)
		k := con[c>>nExt].cost(term.Contract, c>>nExt, sizes)
		bf := 2 * e.elems * k.elems * term.Weight
		md := math.Min(float64(tile), math.Min(e.dim, k.dim))
		classes[c] = blockClass{blocks: n, dur: spec.GemmTime(bf, md) + spec.TaskOverheadSec, commBytes: (e.elems + k.elems) * bytesPerElem}
	}
	return classes
}

// gemmHalf is one half of a block of some class, its external or its
// contraction axes: the product of the half's tile sizes, and that
// product's root over the half's axis count, the GEMM dimension the half
// offers (a block's GEMM runs at the smaller of its halves', capped at the
// tile size).
type gemmHalf struct {
	elems, dim float64
	done       bool
}

// cost fills h for the given class of axes on first use (sizes is scratch
// of at least len(axes) entries) and returns it.
func (h *gemmHalf) cost(axes tensor.Space, class int, sizes []int) *gemmHalf {
	if !h.done {
		sizes = sizes[:len(axes)]
		axes.ClassSizes(class, sizes)
		h.elems = tensor.Product(sizes)
		h.dim = math.Pow(h.elems, 1.0/float64(max(1, len(axes))))
		h.done = true
	}
	return h
}

// sizeMomentsDuration returns the mean and variance of per-block GEMM
// duration, propagated from the block-size moments.
func sizeMomentsDuration(spec machine.Spec, term Term, tile int) (mean, variance float64) {
	extMean, extVar := tensor.Space(term.External).SizeMoments()
	conMean, conVar := tensor.Space(term.Contract).SizeMoments()
	// Duration ≈ c · ext · con, a product of independent factors; propagate
	// variance of the product: Var(XY) = (E[X]²+Var X)(E[Y]²+Var Y) − E[X]²E[Y]².
	c := 2 * term.Weight / (spec.PeakFlopsPerRank * spec.GemmEff(float64(tile)))
	prodMean := extMean * conMean
	prodSecondMoment := (extMean*extMean + extVar) * (conMean*conMean + conVar)
	prodVar := prodSecondMoment - prodMean*prodMean
	if prodVar < 0 {
		prodVar = 0
	}
	mean = c*prodMean + spec.TaskOverheadSec
	variance = c * c * prodVar
	return
}

// maxBlockFlops returns the flop count of the term's largest block.
func maxBlockFlops(term Term) float64 {
	ext := tensor.Space(term.External).MaxBlockSize()
	con := tensor.Space(term.Contract).MaxBlockSize()
	return 2 * ext * con * term.Weight
}

// Seconds is a convenience wrapper returning just the iteration time.
func Seconds(spec machine.Spec, p Problem, tile, nodes int, opts Options) (float64, error) {
	bd, err := Simulate(spec, p, tile, nodes, opts)
	if err != nil {
		return 0, err
	}
	return bd.Seconds, nil
}

// TotalFlops returns the total operation count of one CCSD iteration,
// independent of machine or tiling. Useful for validating the O²V⁴ scaling.
func TotalFlops(p Problem, tile int) float64 {
	var s float64
	for _, t := range Terms(p, tile) {
		s += t.Flops()
	}
	return s
}
