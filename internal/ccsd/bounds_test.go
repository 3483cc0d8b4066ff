package ccsd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/rng"
)

// checkBounds fails t unless a Tile's Bounds errors exactly when Seconds
// does and otherwise brackets Seconds.
func checkBounds(t *testing.T, spec machine.Spec, p Problem, tile, nodes int, opts Options) {
	t.Helper()
	secs, err := Seconds(spec, p, tile, nodes, opts)
	lo, hi, berr := NewTile(spec, p, tile, opts).Bounds(nodes)
	if (err != nil) != (berr != nil) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Seconds err %v, Bounds err %v",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, err, berr)
	}
	if err != nil {
		if err.Error() != berr.Error() {
			t.Fatalf("errors differ: %q vs %q", err, berr)
		}
		return
	}
	if !(lo <= secs && secs <= hi) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Seconds %v outside [%v, %v]",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, secs, lo, hi)
	}
}

// TestSecondsBoundsBracketSeconds checks the bounds over the golden subset
// of DefaultGrid × PaperProblems on both machines (TestGoldenOracleDigest
// checks it reaches every regime at the default block cap), and at caps
// small enough that the largest terms move to the aggregate model or onto
// the scheduler with few blocks.
func TestSecondsBoundsBracketSeconds(t *testing.T) {
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		for _, blockCap := range []int{0, 1, 64} {
			t.Run(fmt.Sprintf("%s/cap%d", spec.Name, blockCap), func(t *testing.T) {
				for _, c := range goldenConfigs() {
					checkBounds(t, spec, Problem{O: c.O, V: c.V}, c.TileSize, c.Nodes, Options{ExactBlockCap: blockCap})
				}
			})
		}
	}
}

// breakdownDigest is the sha256 of every float of a Simulate result, as
// TestGoldenOracleDigest hashes it.
func breakdownDigest(bd Breakdown, err error) string {
	h := sha256.New()
	hashBreakdown(h, bd, err)
	return hex.EncodeToString(h.Sum(nil))
}

// checkTile fails t unless b, a Tile of (spec, p, tile, opts) that may have
// been asked about other node counts, gives at nodes the same Bounds and
// Simulate bits as a fresh NewTile, errors exactly when it does, with the
// same text, and brackets its own Simulate's seconds.
func checkTile(t *testing.T, b *Tile, spec machine.Spec, p Problem, tile, nodes int, opts Options) {
	t.Helper()
	fresh := NewTile(spec, p, tile, opts)
	lo, hi, err := b.Bounds(nodes)
	wlo, whi, werr := fresh.Bounds(nodes)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Bounds err %v, fresh Tile's %v",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, err, werr)
	}
	if b.Feasible(nodes) != (werr == nil) {
		t.Fatalf("%s %+v tile=%d nodes=%d: Feasible %v, fresh Bounds err %v",
			spec.Name, p, tile, nodes, b.Feasible(nodes), werr)
	}
	if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Bounds [%v, %v], fresh Tile's [%v, %v]",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, lo, hi, wlo, whi)
	}
	bd, serr := b.Simulate(nodes)
	wbd, wserr := fresh.Simulate(nodes)
	if fmt.Sprint(serr) != fmt.Sprint(werr) || fmt.Sprint(wserr) != fmt.Sprint(werr) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Simulate err %v, fresh Tile's %v, Bounds err %v",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, serr, wserr, werr)
	}
	if breakdownDigest(bd, serr) != breakdownDigest(wbd, wserr) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Simulate %+v, fresh Tile's %+v",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, bd, wbd)
	}
	if serr == nil && !(lo <= bd.Seconds && bd.Seconds <= hi) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Simulate %v outside Bounds [%v, %v]",
			spec.Name, p, tile, nodes, opts.ExactBlockCap, bd.Seconds, lo, hi)
	}
}

// TestTileBoundsMatchSecondsBounds builds one Tile per seeded (machine, O,
// V, tile, block cap) and asks it for Bounds and Simulate at every
// DefaultGrid node count in turn, and at two non-positive ones, against a
// fresh Tile each time. Tiles come from DefaultGrid and from off it
// (remainder tiles on either axis, and tiles whose working set does not fit
// rank memory); some problems are large enough that the distributed T2 does
// not fit at the smaller node counts; the caps move terms to the aggregate
// model. The test checks it reaches each of those regimes.
func TestTileBoundsMatchSecondsBounds(t *testing.T) {
	r := rng.New(20261019)
	grid := dataset.DefaultGrid()
	nodes := append([]int{0, -3}, grid.Nodes...)
	var exact, aggregate, remainder, underfull, overfull, tileUnfit, t2Unfit int
	for i := 0; i < 90; i++ {
		spec := machine.Aurora()
		if i%2 == 1 {
			spec = machine.Frontier()
		}
		p := Problem{O: 10 + r.Intn(300), V: 50 + r.Intn(2000)}
		if i%9 == 8 {
			p = Problem{O: 2000 + r.Intn(2000), V: 5000 + r.Intn(5000)}
		}
		tile := grid.TileSizes[r.Intn(len(grid.TileSizes))]
		if i%4 == 3 {
			tile = 1 + r.Intn(260)
		}
		opts := Options{ExactBlockCap: []int{0, 64, 512}[i%3]}
		b := NewTile(spec, p, tile, opts)
		for _, n := range nodes {
			checkTile(t, b, spec, p, tile, n, opts)
			if n <= 0 {
				continue
			}
			switch ok, why := Feasible(spec, p, tile, n); {
			case ok:
			case strings.HasPrefix(why, "tile"):
				tileUnfit++
			default:
				t2Unfit++
			}
		}
		for _, tb := range b.terms {
			if !b.tileOK {
				break
			}
			if !tb.exact {
				aggregate++
				continue
			}
			exact++
			if p.O%tile != 0 || p.V%tile != 0 {
				remainder++
			}
			if tb.blocks <= float64(spec.Ranks(grid.Nodes[len(grid.Nodes)-1])) {
				underfull++
			}
			if tb.blocks > float64(spec.Ranks(grid.Nodes[0])) {
				overfull++
			}
		}
	}
	for name, n := range map[string]int{
		"exact": exact, "aggregate": aggregate, "remainder": remainder,
		"blocks<=ranks": underfull, "blocks>ranks": overfull,
		"tile working set too large": tileUnfit, "distributed T2 too large": t2Unfit,
	} {
		if n == 0 {
			t.Errorf("seeded cases never reach the %s regime", name)
		}
	}
}

// FuzzSecondsBounds checks, over (machine, O, V, tile, nodes, nodes2), that
// a Tile's Bounds errors exactly when Simulate does and otherwise brackets
// Seconds, at both node counts; and that one Tile, asked at nodes and then
// at nodes2, gives a fresh Tile's Bounds and Simulate bits and errors each
// time. O and V are folded into [1, 400] and [1, 2000] (the cost
// model needs non-empty orbital ranges); tile and the node counts keep
// their sign so non-positive values reach the error path. The corpus under
// testdata/fuzz seeds every regime: list-scheduled terms with blocks ≤ ranks
// and with blocks > ranks, remainder tiles, the aggregate model above the
// block cap, and an infeasible configuration.
func FuzzSecondsBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, frontier bool, o, v, tile, nodes, nodes2 int) {
		spec := machine.Aurora()
		if frontier {
			spec = machine.Frontier()
		}
		p := Problem{O: 1 + int(uint(o)%400), V: 1 + int(uint(v)%2000)}
		tile %= 512
		b := NewTile(spec, p, tile, Options{})
		for _, n := range []int{nodes % 1024, nodes2 % 1024} {
			checkBounds(t, spec, p, tile, n, Options{})
			checkTile(t, b, spec, p, tile, n, Options{})
		}
	})
}
