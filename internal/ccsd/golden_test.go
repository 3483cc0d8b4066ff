package ccsd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/rng"
)

// goldenOracleDigest is the sha256 of every float Simulate returns over
// the goldenConfigs subset, noise-free and with seeded noise. It pins the
// cost model bit for bit: a scheduling or costing rewrite that changes any
// bit of any term's Compute or Comm changes the digest.
const goldenOracleDigest = "5642ac2e4e8fef5bb7c5e405e96c83129139ddf65e3107a5587ff251baacf913"

// goldenConfigs returns a fixed subset of DefaultGrid × PaperProblems:
// every 23rd configuration of each problem's grid, offset by the problem's
// index so the subset walks across every tile size and node count.
func goldenConfigs() []dataset.Config {
	var out []dataset.Config
	for pi, p := range dataset.PaperProblems() {
		for ci, c := range dataset.DefaultGrid().Configs(p) {
			if (ci+pi)%23 == 0 {
				out = append(out, c)
			}
		}
	}
	return out
}

// goldenCoverage counts the regimes the golden subset reaches.
type goldenCoverage struct {
	exact, aggregate    int // terms on the list scheduler / the aggregate model
	remainder           int // exact terms with a remainder tile on some axis
	underfull, overfull int // exact terms with blocks ≤ ranks / blocks > ranks
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashBreakdown(h hash.Hash, bd Breakdown, err error) {
	if err != nil {
		h.Write([]byte{0})
		return
	}
	h.Write([]byte{1})
	writeFloat(h, bd.Seconds)
	writeFloat(h, bd.MemPerRank)
	writeFloat(h, bd.SyncOverhead)
	for _, tc := range bd.Terms {
		writeFloat(h, tc.Blocks)
		writeFloat(h, tc.Flops)
		writeFloat(h, tc.Compute)
		writeFloat(h, tc.Comm)
		if tc.Exact {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

func TestGoldenOracleDigest(t *testing.T) {
	h := sha256.New()
	var cov goldenCoverage
	configs := goldenConfigs()
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		noise := rng.New(20260727)
		for _, c := range configs {
			p := Problem{O: c.O, V: c.V}
			bd, err := Simulate(spec, p, c.TileSize, c.Nodes, Options{})
			hashBreakdown(h, bd, err)
			bd2, err2 := Simulate(spec, p, c.TileSize, c.Nodes, Options{})
			bd2.Seconds = withNoise(spec, bd2.Seconds, err2, noise)
			hashBreakdown(h, bd2, err2)
			if err != nil {
				continue
			}
			rem := c.O%c.TileSize != 0 || c.V%c.TileSize != 0
			for _, tc := range bd.Terms {
				if !tc.Exact {
					cov.aggregate++
					continue
				}
				cov.exact++
				if rem {
					cov.remainder++
				}
				if tc.Blocks <= float64(bd.Ranks) {
					cov.underfull++
				} else {
					cov.overfull++
				}
			}
		}
	}
	t.Logf("golden subset: %d configs per machine, coverage %+v", len(configs), cov)
	for name, n := range map[string]int{
		"exact": cov.exact, "aggregate": cov.aggregate, "remainder": cov.remainder,
		"blocks<=ranks": cov.underfull, "blocks>ranks": cov.overfull,
	} {
		if n == 0 {
			t.Errorf("golden subset never reaches the %s regime", name)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenOracleDigest {
		t.Fatalf("oracle digest %s, want %s: Simulate's output changed", got, goldenOracleDigest)
	}
}
