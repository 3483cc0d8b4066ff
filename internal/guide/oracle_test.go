package guide

import (
	"math"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/tree"
)

// BenchmarkOracleSweep times the grid-sweep oracle layer: SimOracle.TrueTime
// over one paper problem's full DefaultGrid (33 node counts × 15 tile
// sizes), once per machine. This is the ground-truth cost a cold STQ/BQ
// sweep pays before any model predicts.
func BenchmarkOracleSweep(b *testing.B) {
	configs := dataset.DefaultGrid().Configs(dataset.Problem{O: 146, V: 1096})
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		o := NewSimOracle(spec)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range configs {
					o.TrueTime(c)
				}
			}
		})
	}
}

// BenchmarkOracleBandSweep times the pruning Advisor.Recommend actually
// runs: SimOracle.InBand over the same 33×15 grid as BenchmarkOracleSweep.
func BenchmarkOracleBandSweep(b *testing.B) {
	configs := dataset.DefaultGrid().Configs(dataset.Problem{O: 146, V: 1096})
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		o := NewSimOracle(spec)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range configs {
					o.InBand(c)
				}
			}
		})
	}
}

// bandConfigs returns every seventh configuration of DefaultGrid over the
// paper problems and over seeded O/V offsets of each of them (offset by the
// problem's index so the stride walks every node count and tile size).
func bandConfigs() []dataset.Config {
	var out []dataset.Config
	for pi, p := range offsetProblems() {
		for ci, c := range dataset.DefaultGrid().Configs(p) {
			if (ci+pi)%7 == 0 {
				out = append(out, c)
			}
		}
	}
	return out
}

// checkBandIdentity fails t unless o.InBand(c) equals TrueTime(c)'s ok.
func checkBandIdentity(t *testing.T, o *SimOracle, c dataset.Config) {
	t.Helper()
	secs, ok := o.TrueTime(c)
	if got := o.InBand(c); got != ok {
		t.Fatalf("%s band [%v, %v] %v: InBand %v, TrueTime (%v, %v)",
			o.Spec.Name, o.MinSeconds, o.MaxSeconds, c, got, secs, ok)
	}
}

// TestInBandMatchesTrueTime checks InBand against TrueTime's ok over the
// strided grid, at the default band and with each side disabled, and that
// the bounds alone settle most configurations (the speedup InBand exists
// for).
func TestInBandMatchesTrueTime(t *testing.T) {
	configs := bandConfigs()
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		def := NewSimOracle(spec)
		var feasible, settled int
		for _, c := range configs {
			checkBandIdentity(t, def, c)
			lo, hi, err := ccsd.SecondsBounds(spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, c.Nodes, ccsd.Options{})
			if err != nil {
				continue
			}
			feasible++
			if hi < def.MinSeconds || lo > def.MaxSeconds || (lo >= def.MinSeconds && hi <= def.MaxSeconds) {
				settled++
			}
		}
		t.Logf("%s: bounds settle %d of %d feasible configurations", spec.Name, settled, feasible)
		if settled < feasible*9/10 {
			t.Errorf("%s: bounds settle only %d of %d feasible configurations", spec.Name, settled, feasible)
		}
		for _, band := range [][2]float64{{0, 1200}, {5, 0}, {0, 0}, {-1, -1}} {
			o := NewSimOracleBand(spec, band[0], band[1])
			for i := 0; i < len(configs); i += 3 {
				checkBandIdentity(t, o, configs[i])
			}
		}
	}
}

// TestInBandAtBandEdges puts a band edge exactly on a configuration's time
// and one float step to either side of it, so the interval straddles the
// edge and InBand must fall back to TrueTime.
func TestInBandAtBandEdges(t *testing.T) {
	p := dataset.Problem{O: 146, V: 1096}
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		for ci, c := range dataset.DefaultGrid().Configs(p) {
			if ci%37 != 0 {
				continue
			}
			secs, ok := NewSimOracleBand(spec, 0, 0).TrueTime(c)
			if !ok {
				continue
			}
			for _, edge := range []float64{secs, math.Nextafter(secs, 0), math.Nextafter(secs, math.Inf(1))} {
				for _, band := range [][2]float64{{edge, 0}, {0, edge}, {edge, edge}, {edge, 1e9}, {1e-9, edge}} {
					checkBandIdentity(t, NewSimOracleBand(spec, band[0], band[1]), c)
				}
			}
		}
	}
}

// trueTimeOnly hides an oracle's InBand, so Recommend prunes with TrueTime.
type trueTimeOnly struct{ Oracle }

// TestRecommendInBandMatchesTrueTime checks Recommend answers the same,
// bit for bit, whether it prunes with InBand or with TrueTime.
func TestRecommendInBandMatchesTrueTime(t *testing.T) {
	spec := machine.Aurora()
	adv, err := NewAdvisor(tree.New(tree.Params{MaxDepth: 6}, nil), trainDataset(spec))
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewSimOracle(spec)
	for _, p := range dataset.PaperProblems() {
		for _, obj := range []Objective{ShortestTime, Budget} {
			got, err := adv.Recommend(p, obj, oracle)
			want, werr := adv.Recommend(p, obj, trueTimeOnly{oracle})
			if (err != nil) != (werr != nil) || got != want {
				t.Fatalf("%v %v: InBand pruning gave (%+v, %v), TrueTime pruning (%+v, %v)", p, obj, got, err, want, werr)
			}
		}
	}
}
