package guide

import (
	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
)

// SimOracle answers TrueTime by running the CCSD cost model deterministically
// (noise-free mean time). This is the ground truth the datasets are sampled
// from, so it provides a clean reference optimum for STQ/BQ evaluation. Its
// BandWalk gives the same decisions as TrueTime's ok but computes the
// seconds only for configurations near a band edge; Advisor.Recommend walks
// the grid with it.
//
// It enforces the same "typical use" runtime band as dataset generation: a
// configuration whose iteration runs faster than MinSeconds or slower than
// MaxSeconds is reported as unavailable. This mirrors the paper, which only
// collected — and only recommends among — configurations a user would
// actually run, rather than, say, a multi-hour single-node job. The band is
// what gives the Budget Question its varied, problem-dependent small node
// counts instead of always collapsing to the minimum.
type SimOracle struct {
	Spec       machine.Spec
	MinSeconds float64
	MaxSeconds float64
}

// NewSimOracle returns a simulator-backed oracle for the given machine using
// the default typical-use runtime band [5 s, 1200 s].
func NewSimOracle(spec machine.Spec) *SimOracle {
	return &SimOracle{Spec: spec, MinSeconds: 5, MaxSeconds: 1200}
}

// NewSimOracleBand returns a simulator oracle with an explicit runtime band.
// A non-positive bound disables that side of the band.
func NewSimOracleBand(spec machine.Spec, minSec, maxSec float64) *SimOracle {
	return &SimOracle{Spec: spec, MinSeconds: minSec, MaxSeconds: maxSec}
}

// TrueTime returns the deterministic simulated iteration time, or false if
// the configuration is infeasible or outside the typical-use runtime band.
// It always runs the exact cost model; BandWalk answers the ok alone faster.
func (o *SimOracle) TrueTime(c dataset.Config) (float64, bool) {
	secs, err := ccsd.Seconds(o.Spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, c.Nodes, ccsd.Options{})
	if err != nil || !o.withinBand(secs) {
		return 0, false
	}
	return secs, true
}

// withinBand reports whether an iteration of secs seconds lies in the runtime
// band; a non-positive MinSeconds or MaxSeconds disables that side.
func (o *SimOracle) withinBand(secs float64) bool {
	return !(o.MinSeconds > 0 && secs < o.MinSeconds) && !(o.MaxSeconds > 0 && secs > o.MaxSeconds)
}

// BandWalk returns a function that reports TrueTime's ok for each
// configuration it is asked about, for one walk over a grid. It brackets the
// time with ccsd.Tile's Bounds, which skip the list scheduler, and decides
// from the interval when it lies wholly inside or wholly outside the band;
// only an interval that straddles a band edge is settled by the exact time,
// which the same Tile's Simulate finishes. The decisions equal TrueTime's,
// bit for bit: memory-infeasible configurations are out of band, and a
// non-positive MinSeconds or MaxSeconds disables that side.
//
// The walk keeps the ccsd.Tile of every (O, V, tile) it has met, so a tile
// is costed once however many node counts are asked at it. The tiles live
// only as long as the walk; it is not safe for concurrent use, and each
// walk is used by one goroutine.
func (o *SimOracle) BandWalk() func(dataset.Config) bool {
	w := &bandWalk{o: o}
	return w.inBand
}

// bandWalk is one BandWalk's state: the tiles met so far, found by a linear
// scan (a walk over one problem's grid meets at most one per tile size).
type bandWalk struct {
	o     *SimOracle
	tiles []walkTile
}

// walkTile is one tile of a walk, keyed by (O, V, tile).
type walkTile struct {
	o, v, tile int
	cost       *ccsd.Tile
}

func (w *bandWalk) inBand(c dataset.Config) bool {
	b := w.tile(c)
	if !b.Feasible(c.Nodes) {
		return false
	}
	lo, hi, _ := b.Bounds(c.Nodes) // errors only when infeasible
	o := w.o
	minOn, maxOn := o.MinSeconds > 0, o.MaxSeconds > 0
	if (minOn && hi < o.MinSeconds) || (maxOn && lo > o.MaxSeconds) {
		return false
	}
	if (!minOn || lo >= o.MinSeconds) && (!maxOn || hi <= o.MaxSeconds) {
		return true
	}
	bd, _ := b.Simulate(c.Nodes) // feasible, so no error
	return o.withinBand(bd.Seconds)
}

// tile returns the walk's ccsd.Tile for c's (O, V, tile), building it on
// first use.
func (w *bandWalk) tile(c dataset.Config) *ccsd.Tile {
	for _, t := range w.tiles {
		if t.o == c.O && t.v == c.V && t.tile == c.TileSize {
			return t.cost
		}
	}
	b := ccsd.NewTile(w.o.Spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, ccsd.Options{})
	w.tiles = append(w.tiles, walkTile{o: c.O, v: c.V, tile: c.TileSize, cost: b})
	return b
}

// DatasetOracle answers TrueTime by looking up measured records. It is used
// when the ground truth should come from held-out data rather than the
// simulator (the paper determines true optima from the test set).
type DatasetOracle struct {
	table map[dataset.Config]float64
}

// NewDatasetOracle indexes a dataset's records for O(1) lookup. Duplicate
// configurations keep their last value.
func NewDatasetOracle(d *dataset.Dataset) *DatasetOracle {
	t := make(map[dataset.Config]float64, d.Len())
	for _, r := range d.Records {
		t[r.Config] = r.Seconds
	}
	return &DatasetOracle{table: t}
}

// TrueTime returns the recorded time for a configuration, if present.
func (o *DatasetOracle) TrueTime(c dataset.Config) (float64, bool) {
	v, ok := o.table[c]
	return v, ok
}

// Len returns the number of indexed configurations.
func (o *DatasetOracle) Len() int { return len(o.table) }

var (
	_ Oracle     = (*SimOracle)(nil)
	_ bandOracle = (*SimOracle)(nil)
	_ Oracle     = (*DatasetOracle)(nil)
)
