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
// once per block; the per-block durations and the communication sum are
// still emitted in block order, so the result is bit-identical to costing
// every block.
//
// SecondsBounds brackets the noise-free iteration time without running the
// list scheduler, for callers that only need to know whether the time falls
// in a band. Each list-scheduled term with more blocks than ranks is bounded
// by Graham's list-scheduling bounds, max(pₘₐₓ, Σ/r) ≤ makespan ≤ Σ/r + pₘₐₓ,
// where Σ and pₘₐₓ come from the per-class durations times the class block
// counts; a term with no more blocks than ranks has makespan pₘₐₓ exactly,
// and a term on the aggregate model is costed exactly as Simulate costs it.
// Communication uses the closed-form Σ count·bytes, since CommTime is
// monotone in bytes. The exact path's floats (rank loads and the comm total,
// each a sum of at most ExactBlockCap terms) differ from the real sums by
// rounding, so the list-scheduled bounds are widened by a relative slack
// derived from the block cap (see boundSlack). Seconds itself stays exact:
// it still schedules every block.
package ccsd

import (
	"fmt"
	"math"

	"parcost/internal/machine"
	"parcost/internal/rng"
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
	// discrete-event/list scheduler; above it the aggregate makespan model
	// is used. Zero selects a sensible default.
	ExactBlockCap int
	// Noise, when non-nil, applies multiplicative run-to-run noise drawn
	// from the machine's NoiseRel. Nil yields the deterministic mean time.
	Noise *rng.Source
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
// across ranks; if per-rank memory is exceeded the run is infeasible.
func Feasible(spec machine.Spec, p Problem, tile, nodes int) (bool, string) {
	if nodes <= 0 || tile <= 0 {
		return false, "non-positive nodes or tile"
	}
	ranks := spec.Ranks(nodes)
	// Distributed T2 amplitude tensor is O²V² doubles, spread over ranks.
	t2 := float64(p.O) * float64(p.O) * float64(p.V) * float64(p.V) * bytesPerElem
	// Two-electron integrals <ab|cd> are V⁴ but stored in tiles; the
	// resident working set per rank is a handful of the largest blocks.
	perRankDist := t2 / float64(ranks)
	if perRankDist > spec.NodeMemBytes*float64(spec.RanksPerNode) {
		return false, fmt.Sprintf("distributed T2 %.2e B/rank exceeds node memory", perRankDist)
	}
	// Task-local buffers: a few blocks of the largest tile product.
	block := float64(tile) * float64(tile) * float64(tile) * float64(tile) * bytesPerElem
	working := 6 * block
	if working > spec.RankMemBytes {
		return false, fmt.Sprintf("tile working set %.2e B exceeds rank memory", working)
	}
	return true, ""
}

// checkFeasible returns Simulate's error for a memory-infeasible
// configuration, or nil.
func checkFeasible(spec machine.Spec, p Problem, tile, nodes int) error {
	if ok, why := Feasible(spec, p, tile, nodes); !ok {
		return fmt.Errorf("ccsd: infeasible config O=%d V=%d tile=%d nodes=%d: %s", p.O, p.V, tile, nodes, why)
	}
	return nil
}

// Simulate computes the wall time of one CCSD iteration for the given
// configuration on the given machine. It returns an error if the
// configuration is memory-infeasible.
func Simulate(spec machine.Spec, p Problem, tile, nodes int, opts Options) (Breakdown, error) {
	if err := checkFeasible(spec, p, tile, nodes); err != nil {
		return Breakdown{}, err
	}
	ranks := spec.Ranks(nodes)
	bd := Breakdown{Config: spec, Problem: p, Tile: tile, Nodes: nodes, Ranks: ranks}
	for _, term := range Terms(p, tile) {
		bd.Terms = append(bd.Terms, simulateTerm(spec, term, tile, nodes, ranks, opts))
	}
	total := iterationSeconds(spec, nodes, bd.Terms)
	bd.SyncOverhead = spec.SyncOverhead(nodes)
	// Per-rank tile working-set memory estimate.
	block := float64(tile) * float64(tile) * float64(tile) * float64(tile) * bytesPerElem
	bd.MemPerRank = 6 * block
	if opts.Noise != nil && spec.NoiseRel > 0 {
		total *= opts.Noise.NoiseFactor(spec.NoiseRel)
	}
	bd.Seconds = total
	return bd, nil
}

// iterationSeconds sums the terms' exposed compute and communication into
// the noise-free iteration time. Each float operation is monotone in its
// operands, so summing per-term lower (upper) bounds in this same order
// bounds the sum of the exact terms.
func iterationSeconds(spec machine.Spec, nodes int, terms []TermCost) float64 {
	var total float64
	for _, tc := range terms {
		total += tc.Compute + tc.Comm
		// Each term is a synchronization stage.
		total += spec.BarrierTime(nodes)
	}
	// Per-iteration coordination overhead that grows with the rank count;
	// this is what rolls off strong scaling and yields an interior
	// shortest-time optimum.
	return total + spec.SyncOverhead(nodes)
}

// SecondsBounds returns lo ≤ Seconds(spec, p, tile, nodes, opts) ≤ hi for
// the noise-free iteration time (opts.Noise is ignored) without running the
// list scheduler. It errors exactly when Simulate does. Terms on the
// aggregate model are costed exactly; see the package doc for how the
// list-scheduled terms are bounded.
func SecondsBounds(spec machine.Spec, p Problem, tile, nodes int, opts Options) (lo, hi float64, err error) {
	if err := checkFeasible(spec, p, tile, nodes); err != nil {
		return 0, 0, err
	}
	ranks := spec.Ranks(nodes)
	terms := Terms(p, tile)
	los := make([]TermCost, len(terms))
	his := make([]TermCost, len(terms))
	for i, term := range terms {
		los[i], his[i] = boundTerm(spec, term, tile, nodes, ranks, opts)
	}
	return iterationSeconds(spec, nodes, los), iterationSeconds(spec, nodes, his), nil
}

// getsPerBlock is the number of one-sided gets a block task issues, one per
// input tile operand.
const getsPerBlock = 2.0

// termComm returns the exposed communication seconds of a term whose blocks
// get bytes in total, spread evenly over the ranks.
func termComm(spec machine.Spec, bytes, blocks float64, nodes, ranks int) float64 {
	return spec.CommTime(bytes/float64(ranks), int(getsPerBlock*blocks/float64(ranks)), nodes)
}

// simulateTerm costs one contraction term.
func simulateTerm(spec machine.Spec, term Term, tile, nodes, ranks int, opts Options) TermCost {
	space := term.blockSpace()
	blocks := space.Blocks()
	if blocks > float64(opts.cap()) {
		return aggregateTerm(spec, term, tile, nodes, ranks, space, blocks)
	}
	// Exact list scheduling over per-block durations. A block's cost
	// depends only on its tile-size class, so each class is costed once;
	// durs and commTotal still follow block order, which keeps every float
	// equal to costing block by block.
	tc := TermCost{Kind: term.Kind, Blocks: blocks, Flops: term.Flops(), Exact: true}
	classes := classCosts(spec, term, tile, space)
	durs := make([]float64, 0, int(blocks))
	var commTotal float64
	_ = space.ForEachBlockClass(opts.cap(), func(c int) {
		durs = append(durs, classes[c].dur)
		commTotal += classes[c].commBytes
	})
	tc.Compute = simsched.ListMakespan(durs, ranks)
	tc.Comm = termComm(spec, commTotal, blocks, nodes, ranks)
	return tc
}

// boundTerm returns lower and upper bounds on simulateTerm's Compute and
// Comm for one term; the other fields equal simulateTerm's.
func boundTerm(spec machine.Spec, term Term, tile, nodes, ranks int, opts Options) (lo, hi TermCost) {
	space := term.blockSpace()
	blocks := space.Blocks()
	if blocks > float64(opts.cap()) {
		tc := aggregateTerm(spec, term, tile, nodes, ranks, space, blocks)
		return tc, tc
	}
	var work, bytes, pmax float64
	for _, c := range classCosts(spec, term, tile, space) {
		if c.blocks == 0 {
			continue
		}
		work += c.blocks * c.dur
		bytes += c.blocks * c.commBytes
		pmax = math.Max(pmax, c.dur)
	}
	slack := boundSlack(opts.cap())
	lo = TermCost{Kind: term.Kind, Blocks: blocks, Flops: term.Flops(), Exact: true}
	hi = lo
	if blocks <= float64(ranks) {
		// Every block starts on an idle rank: the makespan is the longest
		// block, exactly.
		lo.Compute, hi.Compute = pmax, pmax
	} else {
		// Graham: max(pmax, Σ/r) ≤ greedy makespan ≤ Σ/r + pmax.
		mean := work / float64(ranks)
		lo.Compute = math.Max(pmax, mean*(1-slack))
		hi.Compute = (mean + pmax) * (1 + slack)
	}
	// CommTime is monotone in bytes, so bounding the bytes bounds it.
	lo.Comm = termComm(spec, bytes*(1-slack), blocks, nodes, ranks)
	hi.Comm = termComm(spec, bytes*(1+slack), blocks, nodes, ranks)
	return lo, hi
}

// boundSlack is the relative slack that widens boundTerm's interval over
// float rounding on a term of at most blockCap blocks. With u = 2⁻⁵³ and
// n ≤ blockCap, each of simulateTerm's rank loads and its commTotal is a
// float sum of at most n non-negative terms, within a factor (1 ± γₙ) of
// the real sum (γₙ = nu/(1−nu)); boundTerm's Σ count·cost sums at most n
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

// aggregateTerm costs a term with the aggregate makespan model used above
// the exact block cap.
func aggregateTerm(spec machine.Spec, term Term, tile, nodes, ranks int, space tensor.Space, blocks float64) TermCost {
	tc := TermCost{Kind: term.Kind, Blocks: blocks, Flops: term.Flops()}

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
	meanDur := spec.GemmTime(blockFlops, minDim) + spec.TaskOverheadSec

	// Communication: each task gets its input tiles from remote ranks.
	// Volume per task ≈ (external block + contraction block) elements.
	commBytesPerBlock := (externalMean + contractMean) * bytesPerElem

	_, variance := sizeMomentsDuration(space, spec, term, tile)
	std := math.Sqrt(variance)
	maxDur := spec.GemmTime(maxBlockFlops(term), float64(tile)) + spec.TaskOverheadSec
	if maxDur < meanDur {
		maxDur = meanDur
	}
	tc.Compute = simsched.ExpectedMakespan(blocks, meanDur, std, maxDur, ranks)
	tc.Comm = termComm(spec, blocks*commBytesPerBlock, blocks, nodes, ranks)
	return tc
}

// blockClass is the cost of one tile-size class of a term's blocks (see
// tensor.Space.ForEachBlockClass).
type blockClass struct {
	blocks    float64 // blocks in the class; zero when the class is absent
	dur       float64 // seconds of one block task
	commBytes float64 // bytes one block task gets
}

// classCosts costs each tile-size class present in the term's block space
// once, indexed by class. Absent classes are left zero.
func classCosts(spec machine.Spec, term Term, tile int, space tensor.Space) []blockClass {
	counts := space.ClassBlocks()
	classes := make([]blockClass, len(counts))
	sizes := make([]int, len(space))
	for c, n := range counts {
		if n == 0 {
			continue
		}
		space.ClassSizes(c, sizes)
		dur, commBytes := blockCost(spec, term, tile, sizes)
		classes[c] = blockClass{blocks: n, dur: dur, commBytes: commBytes}
	}
	return classes
}

// blockCost returns the duration and communication bytes of one block task
// with the given per-axis tile sizes (external axes first, then contract).
func blockCost(spec machine.Spec, term Term, tile int, sizes []int) (dur, commBytes float64) {
	ext := 1.0
	for i := 0; i < len(term.External); i++ {
		ext *= float64(sizes[i])
	}
	con := 1.0
	for i := len(term.External); i < len(sizes); i++ {
		con *= float64(sizes[i])
	}
	bf := 2 * ext * con * term.Weight
	md := math.Min(float64(tile), math.Min(
		math.Pow(ext, 1.0/float64(max(1, len(term.External)))),
		math.Pow(con, 1.0/float64(max(1, len(term.Contract))))))
	return spec.GemmTime(bf, md) + spec.TaskOverheadSec, (ext + con) * bytesPerElem
}

// sizeMomentsDuration returns the mean and variance of per-block GEMM
// duration, propagated from the block-size moments.
func sizeMomentsDuration(space tensor.Space, spec machine.Spec, term Term, tile int) (mean, variance float64) {
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
