package ccsd

import (
	"fmt"
	"testing"

	"parcost/internal/machine"
	"parcost/internal/rng"
)

// checkBounds fails t unless SecondsBounds errors exactly when Seconds does
// and otherwise brackets the noise-free Seconds.
func checkBounds(t *testing.T, spec machine.Spec, p Problem, tile, nodes int, opts Options) {
	t.Helper()
	secs, err := Seconds(spec, p, tile, nodes, opts)
	lo, hi, berr := SecondsBounds(spec, p, tile, nodes, opts)
	if (err != nil) != (berr != nil) {
		t.Fatalf("%s %+v tile=%d nodes=%d cap=%d: Seconds err %v, SecondsBounds err %v",
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

// TestSecondsBoundsIgnoreNoise pins that the bounds are on the noise-free
// time: a noise source in opts changes neither bound.
func TestSecondsBoundsIgnoreNoise(t *testing.T) {
	spec := machine.Frontier()
	p := Problem{O: 146, V: 1096}
	lo, hi, err := SecondsBounds(spec, p, 80, 200, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nlo, nhi, err := SecondsBounds(spec, p, 80, 200, Options{Noise: rng.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	if lo != nlo || hi != nhi {
		t.Fatalf("noise moved the bounds: [%v, %v] vs [%v, %v]", lo, hi, nlo, nhi)
	}
}

// FuzzSecondsBounds checks, over (machine, O, V, tile, nodes), that
// SecondsBounds errors exactly when Simulate does and otherwise brackets
// the noise-free Seconds. O and V are folded into [1, 400] and [1, 2000]
// (the cost model needs non-empty orbital ranges); tile and nodes keep
// their sign so non-positive values reach the error path. The corpus under
// testdata/fuzz seeds every regime: list-scheduled terms with blocks ≤ ranks
// and with blocks > ranks, remainder tiles, the aggregate model above the
// block cap, and an infeasible configuration.
func FuzzSecondsBounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, frontier bool, o, v, tile, nodes int) {
		spec := machine.Aurora()
		if frontier {
			spec = machine.Frontier()
		}
		p := Problem{O: 1 + int(uint(o)%400), V: 1 + int(uint(v)%2000)}
		checkBounds(t, spec, p, tile%512, nodes%1024, Options{})
	})
}
