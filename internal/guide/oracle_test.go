package guide

import (
	"math"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
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

// BenchmarkOracleBandSweep times the pruning choose runs: one
// SimOracle.BandWalk asked about every configuration of the same 33×15 grid
// as BenchmarkOracleSweep, once per machine. A query's walk stops at the
// first configuration kept, so this is the walk's worst case.
func BenchmarkOracleBandSweep(b *testing.B) {
	configs := dataset.DefaultGrid().Configs(dataset.Problem{O: 146, V: 1096})
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		o := NewSimOracle(spec)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				keep := o.BandWalk()
				for _, c := range configs {
					keep(c)
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

// checkBandIdentity fails t unless a fresh BandWalk asked about c alone
// answers TrueTime(c)'s ok.
func checkBandIdentity(t *testing.T, o *SimOracle, c dataset.Config) {
	t.Helper()
	secs, ok := o.TrueTime(c)
	if got := o.BandWalk()(c); got != ok {
		t.Fatalf("%s band [%v, %v] %v: walk %v, TrueTime (%v, %v)",
			o.Spec.Name, o.MinSeconds, o.MaxSeconds, c, got, secs, ok)
	}
}

// TestInBandMatchesTrueTime checks one-configuration walks against
// TrueTime's ok over the strided grid, at the default band and with each
// side disabled, and that the bounds alone settle most configurations (the
// speedup the walk exists for).
func TestInBandMatchesTrueTime(t *testing.T) {
	configs := bandConfigs()
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		def := NewSimOracle(spec)
		var feasible, settled int
		for _, c := range configs {
			checkBandIdentity(t, def, c)
			lo, hi, err := ccsd.NewTile(spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, ccsd.Options{}).Bounds(c.Nodes)
			if err != nil {
				continue
			}
			feasible++
			if settledBy(def, lo, hi) {
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

// settledBy reports whether bounds [lo, hi] on a configuration's time
// decide o's band on their own, so a walk needs no exact time for it.
func settledBy(o *SimOracle, lo, hi float64) bool {
	minOn, maxOn := o.MinSeconds > 0, o.MaxSeconds > 0
	return (minOn && hi < o.MinSeconds) || (maxOn && lo > o.MaxSeconds) ||
		((!minOn || lo >= o.MinSeconds) && (!maxOn || hi <= o.MaxSeconds))
}

// edgeBands returns bands with an edge exactly on secs or one float step to
// either side of it, so a configuration that runs secs has an interval
// straddling the edge.
func edgeBands(secs float64) [][2]float64 {
	var out [][2]float64
	for _, edge := range []float64{secs, math.Nextafter(secs, 0), math.Nextafter(secs, math.Inf(1))} {
		out = append(out, [][2]float64{{edge, 0}, {0, edge}, {edge, edge}, {edge, 1e9}, {1e-9, edge}}...)
	}
	return out
}

// edgeConfigs returns every 37th configuration of DefaultGrid for the
// problem (146, 1096), the ones TestInBandAtBandEdges puts band edges on.
func edgeConfigs() []dataset.Config {
	var out []dataset.Config
	for ci, c := range dataset.DefaultGrid().Configs(dataset.Problem{O: 146, V: 1096}) {
		if ci%37 == 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestInBandAtBandEdges puts a band edge exactly on a configuration's time
// and one float step to either side of it, so the interval straddles the
// edge and the walk must finish the exact time.
func TestInBandAtBandEdges(t *testing.T) {
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		for _, c := range edgeConfigs() {
			secs, ok := NewSimOracleBand(spec, 0, 0).TrueTime(c)
			if !ok {
				continue
			}
			for _, band := range edgeBands(secs) {
				checkBandIdentity(t, NewSimOracleBand(spec, band[0], band[1]), c)
			}
		}
	}
}

// trueOK is TrueTime's ok for the band [minSec, maxSec] (a non-positive
// bound disables its side), given the configuration's band-free TrueTime:
// so one exact run per configuration serves every band under test.
func trueOK(secs float64, ok bool, minSec, maxSec float64) bool {
	return ok && !(minSec > 0 && secs < minSec) && !(maxSec > 0 && secs > maxSec)
}

// TestBandWalkMatchesTrueTime walks each problem's DefaultGrid with one
// BandWalk, in a seeded shuffled order so the walk meets each tile again
// after others, and requires TrueTime's ok for every configuration: at the
// default band, with each side disabled, and at TestInBandAtBandEdges' edge
// bands. One more walk per machine and band spans every problem, so tiles
// of the same size from different problems are interleaved in one walk.
// The reference is one band-free TrueTime per configuration (trueOK), which
// is checked against TrueTime itself at every band on a stride. The test
// also counts the configurations whose bounds straddle a band edge, which
// the walk can only settle with its tile's exact Simulate, and requires
// some at the default band and at the edge bands.
func TestBandWalkMatchesTrueTime(t *testing.T) {
	var problems []dataset.Problem
	for i, p := range offsetProblems() {
		if i%23 < 2 {
			problems = append(problems, p)
		}
	}
	problems = append(problems, dataset.Problem{O: 146, V: 1096})
	r := rng.New(20261019)
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		free := NewSimOracleBand(spec, 0, 0)
		var all []dataset.Config
		type ref struct {
			secs, lo, hi float64
			ok, feasible bool
		}
		refs := map[dataset.Config]ref{}
		for _, p := range problems {
			for _, c := range dataset.DefaultGrid().Configs(p) {
				secs, ok := free.TrueTime(c)
				lo, hi, err := ccsd.NewTile(spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, ccsd.Options{}).Bounds(c.Nodes)
				refs[c] = ref{secs: secs, lo: lo, hi: hi, ok: ok, feasible: err == nil}
				all = append(all, c)
			}
		}
		var exactDefault, exactEdge int // walk calls the bounds leave open
		bands := [][2]float64{{5, 1200}, {0, 1200}, {5, 0}}
		for _, c := range edgeConfigs() {
			if rc := refs[c]; rc.ok {
				bands = append(bands, edgeBands(rc.secs)...)
			}
		}
		want := func(o *SimOracle, c dataset.Config) bool {
			rc := refs[c]
			return trueOK(rc.secs, rc.ok, o.MinSeconds, o.MaxSeconds)
		}
		walk := func(o *SimOracle, cfgs []dataset.Config, exact *int) {
			t.Helper()
			keep := o.BandWalk()
			for _, i := range r.Perm(len(cfgs)) {
				if got, want := keep(cfgs[i]), want(o, cfgs[i]); got != want {
					t.Fatalf("%s band [%v, %v] %v: walk %v, TrueTime ok %v (%v s)",
						spec.Name, o.MinSeconds, o.MaxSeconds, cfgs[i], got, want, refs[cfgs[i]].secs)
				}
				if rc := refs[cfgs[i]]; rc.feasible && !settledBy(o, rc.lo, rc.hi) {
					*exact++
				}
			}
		}
		for bi, band := range bands {
			o := NewSimOracleBand(spec, band[0], band[1])
			// Pin the reference against TrueTime at the edge
			// configurations, and on a stride at the three main bands.
			checked := edgeConfigs()
			for i := 0; bi < 3 && i < len(all); i += 31 {
				checked = append(checked, all[i])
			}
			for _, c := range checked {
				if _, ok := o.TrueTime(c); ok != want(o, c) {
					t.Fatalf("%s band [%v, %v] %v: TrueTime ok %v, reference %v", spec.Name, o.MinSeconds, o.MaxSeconds, c, ok, want(o, c))
				}
			}
			if bi < 3 {
				exact := new(int)
				if bi == 0 {
					exact = &exactDefault
				}
				for _, p := range problems {
					walk(o, dataset.DefaultGrid().Configs(p), exact)
				}
				walk(o, all, exact)
				continue
			}
			// An edge band sits on one configuration of (146, 1096).
			walk(o, dataset.DefaultGrid().Configs(problems[len(problems)-1]), &exactEdge)
		}
		t.Logf("%s: %d walk calls at the default band and %d at the edge bands finish the exact time", spec.Name, exactDefault, exactEdge)
		if exactDefault == 0 || exactEdge == 0 {
			t.Errorf("%s: walks reach the exact fallback %d times at the default band, %d at the edge bands; want some of each",
				spec.Name, exactDefault, exactEdge)
		}
	}
}

// TestBandWalkAllocs pins that once a walk has summarized a tile, asking it
// about another configuration at that tile allocates nothing, both when the
// bounds settle the configuration and when it does not fit in memory (the
// distributed T2 at too few nodes, or a tile whose working set is too
// large).
func TestBandWalkAllocs(t *testing.T) {
	spec := machine.Aurora()
	o := NewSimOracle(spec)
	settled := func(c dataset.Config) bool {
		lo, hi, err := ccsd.NewTile(spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, ccsd.Options{}).Bounds(c.Nodes)
		return err == nil && settledBy(o, lo, hi)
	}
	big := dataset.Problem{O: 3000, V: 8000}
	cases := []struct {
		name        string
		warm, asked dataset.Config
		feasible    bool
	}{
		{"settled", dataset.Config{O: 146, V: 1096, Nodes: 900, TileSize: 80}, dataset.Config{O: 146, V: 1096, Nodes: 50, TileSize: 80}, true},
		{"T2 does not fit", dataset.Config{O: big.O, V: big.V, Nodes: 900, TileSize: 40}, dataset.Config{O: big.O, V: big.V, Nodes: 5, TileSize: 40}, false},
		{"tile does not fit", dataset.Config{O: 146, V: 1096, Nodes: 5, TileSize: 200}, dataset.Config{O: 146, V: 1096, Nodes: 50, TileSize: 200}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			feasible, _ := ccsd.Feasible(spec, ccsd.Problem{O: tc.asked.O, V: tc.asked.V}, tc.asked.TileSize, tc.asked.Nodes)
			if feasible != tc.feasible || feasible != settled(tc.asked) {
				t.Fatalf("%v: feasible %v, settled by the bounds %v; the case needs both %v", tc.asked, feasible, settled(tc.asked), tc.feasible)
			}
			keep := o.BandWalk()
			keep(dataset.Config{O: 146, V: 1096, Nodes: 5, TileSize: 40})
			keep(tc.warm)
			_, want := o.TrueTime(tc.asked)
			if got := keep(tc.asked); got != want {
				t.Fatalf("%v: walk %v, TrueTime ok %v", tc.asked, got, want)
			}
			if n := testing.AllocsPerRun(100, func() { keep(tc.asked) }); n != 0 {
				t.Fatalf("%v: %v allocations per walk call, want 0", tc.asked, n)
			}
		})
	}
}

// trueTimeOnly hides an oracle's BandWalk, so Recommend prunes with
// TrueTime.
type trueTimeOnly struct{ Oracle }

// TestRecommendInBandMatchesTrueTime checks Recommend answers the same,
// bit for bit, whether it prunes with a BandWalk or with TrueTime.
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
				t.Fatalf("%v %v: BandWalk pruning gave (%+v, %v), TrueTime pruning (%+v, %v)", p, obj, got, err, want, werr)
			}
		}
	}
}
