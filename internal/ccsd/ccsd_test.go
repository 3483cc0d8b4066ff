package ccsd

import (
	"math"
	"testing"
	"testing/quick"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/rng"
)

func TestTermsPresent(t *testing.T) {
	terms := Terms(Problem{100, 500}, 60)
	kinds := map[TermKind]bool{}
	for _, tm := range terms {
		kinds[tm.Kind] = true
	}
	for _, k := range []TermKind{PPL, HHL, RING, DOUBLES, SINGLES} {
		if !kinds[k] {
			t.Fatalf("missing term kind %v", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestPPLDominatesFlops(t *testing.T) {
	// The O²V⁴ ladder must be the most expensive term when V >> O.
	p := Problem{100, 800}
	terms := Terms(p, 60)
	var pplFlops, total float64
	for _, tm := range terms {
		f := tm.Flops()
		total += f
		if tm.Kind == PPL {
			pplFlops = f
		}
	}
	if pplFlops < total/2 {
		t.Fatalf("PPL flops %.3e is not dominant of total %.3e", pplFlops, total)
	}
}

func TestFlopsSexticScaling(t *testing.T) {
	// Doubling V should multiply total flops by ~16 (V⁴ dominant term).
	f1 := TotalFlops(Problem{100, 400}, 60)
	f2 := TotalFlops(Problem{100, 800}, 60)
	ratio := f2 / f1
	if ratio < 10 || ratio > 16.5 {
		t.Fatalf("V-doubling flop ratio %.2f, expected near 16", ratio)
	}
}

func TestFlopsScalesWithO(t *testing.T) {
	// Doubling O should multiply the O²V⁴ term by 4.
	f1 := Terms(Problem{50, 400}, 60)[0].Flops()
	f2 := Terms(Problem{100, 400}, 60)[0].Flops()
	if ratio := f2 / f1; math.Abs(ratio-4) > 0.01 {
		t.Fatalf("O-doubling PPL ratio %.3f, want 4", ratio)
	}
}

func TestFeasibility(t *testing.T) {
	spec := machine.Aurora()
	// Small problem on many nodes: feasible.
	if ok, why := Feasible(spec, Problem{44, 260}, 40, 10); !ok {
		t.Fatalf("small config should be feasible: %s", why)
	}
	// Huge tile: exceeds per-rank memory.
	if ok, _ := Feasible(spec, Problem{100, 500}, 2000, 10); ok {
		t.Fatal("huge tile should be infeasible")
	}
	// Non-positive inputs.
	if ok, _ := Feasible(spec, Problem{100, 500}, 0, 10); ok {
		t.Fatal("zero tile should be infeasible")
	}
}

func TestSimulatePositiveAndDeterministic(t *testing.T) {
	spec := machine.Aurora()
	p := Problem{99, 718}
	s1, err := Seconds(spec, p, 60, 260, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := Seconds(spec, p, 60, 260, Options{})
	if s1 <= 0 {
		t.Fatalf("non-positive time %v", s1)
	}
	if s1 != s2 {
		t.Fatal("deterministic simulation not reproducible")
	}
}

func TestSimulateInfeasibleErrors(t *testing.T) {
	if _, err := Seconds(machine.Aurora(), Problem{100, 500}, 5000, 1, Options{}); err == nil {
		t.Fatal("infeasible config should error")
	}
}

func TestMoreNodesReducesTime(t *testing.T) {
	// Strong scaling: within the feasible range, more nodes should not make
	// a large compute-bound problem slower.
	spec := machine.Frontier()
	p := Problem{146, 1096}
	tile := 80
	prev := math.Inf(1)
	for _, n := range []int{50, 100, 200, 400} {
		s, err := Seconds(spec, p, tile, n, Options{})
		if err != nil {
			t.Fatalf("nodes=%d: %v", n, err)
		}
		if s > prev*1.05 {
			t.Fatalf("time increased with nodes: %v -> %v at n=%d", prev, s, n)
		}
		prev = s
	}
}

func TestTileSizeSweetSpot(t *testing.T) {
	// Very small tiles under-utilize the GPU; there should be an interior
	// tile size that beats the smallest tile.
	spec := machine.Aurora()
	p := Problem{134, 951}
	nodes := 100
	small, err := Seconds(spec, p, 40, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Seconds(spec, p, 120, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mid >= small {
		t.Fatalf("larger tile %v not faster than tiny tile %v (expected GEMM efficiency gain)", mid, small)
	}
}

func TestBiggerProblemTakesLonger(t *testing.T) {
	spec := machine.Aurora()
	nodes, tile := 100, 80
	small, _ := Seconds(spec, Problem{44, 260}, tile, nodes, Options{})
	big, _ := Seconds(spec, Problem{345, 791}, tile, nodes, Options{})
	if big <= small {
		t.Fatalf("bigger problem %v not slower than small %v", big, small)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	spec := machine.Frontier()
	bd, err := Simulate(spec, Problem{116, 840}, 70, 300, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var termTime float64
	for _, tc := range bd.Terms {
		termTime += tc.Compute + tc.Comm
	}
	termTime += float64(len(bd.Terms)) * spec.BarrierTime(bd.Nodes)
	termTime += bd.SyncOverhead
	if math.Abs(termTime-bd.Seconds) > 1e-9*bd.Seconds {
		t.Fatalf("term times %v don't sum to total %v", termTime, bd.Seconds)
	}
	if len(bd.Terms) != 5 {
		t.Fatalf("expected 5 terms, got %d", len(bd.Terms))
	}
}

// withNoise applies one draw of the machine's run-to-run noise from src to
// a Seconds result, as Generate does: only when err is nil and the machine
// is noisy.
func withNoise(spec machine.Spec, secs float64, err error, src *rng.Source) float64 {
	if err == nil && spec.NoiseRel > 0 {
		secs *= src.NoiseFactor(spec.NoiseRel)
	}
	return secs
}

func TestNoiseVariesOutput(t *testing.T) {
	spec := machine.Frontier()
	p := Problem{99, 1021}
	base, _ := Seconds(spec, p, 80, 200, Options{})
	src := rng.New(1)
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		s, err := Seconds(spec, p, 80, 200, Options{})
		s = withNoise(spec, s, err, src)
		seen[s] = true
		// Noise is mean-one with modest spread; stay within a band.
		if s < base*0.5 || s > base*2 {
			t.Fatalf("noisy time %v too far from base %v", s, base)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("noise produced only %d distinct values", len(seen))
	}
}

func TestAuroraLessNoisyThanFrontier(t *testing.T) {
	// Reproduce the paper's core finding at the data-generation level.
	pa := Problem{134, 951}
	measure := func(spec machine.Spec) float64 {
		base, _ := Seconds(spec, pa, 80, 200, Options{})
		src := rng.New(7)
		var vals []float64
		for i := 0; i < 200; i++ {
			s, err := Seconds(spec, pa, 80, 200, Options{})
			s = withNoise(spec, s, err, src)
			vals = append(vals, s/base)
		}
		var sum, sumSq float64
		for _, v := range vals {
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(len(vals))
		return math.Sqrt(sumSq/float64(len(vals)) - mean*mean)
	}
	if measure(machine.Aurora()) >= measure(machine.Frontier()) {
		t.Fatal("Aurora should show less run-to-run noise than Frontier")
	}
}

func TestGenerateSmoke(t *testing.T) {
	spec := machine.Aurora()
	d := Generate(spec, GenConfig{
		Problems: []dataset.Problem{{O: 44, V: 260}, {O: 99, V: 718}},
		Grid:     dataset.Grid{Nodes: []int{10, 50, 100}, TileSizes: []int{60, 80, 120}},
		Seed:     1,
	})
	if d.Len() == 0 {
		t.Fatal("generated empty dataset")
	}
	if d.Machine != "aurora" {
		t.Fatal("wrong machine")
	}
	for _, r := range d.Records {
		if r.Seconds <= 0 {
			t.Fatal("non-positive runtime in generated data")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := machine.Frontier()
	cfg := GenConfig{
		Problems: []dataset.Problem{{O: 100, V: 500}},
		Grid:     dataset.Grid{Nodes: []int{10, 50, 100, 200}, TileSizes: []int{60, 80, 100}},
		Noise:    true, Seed: 42,
	}
	d1 := Generate(spec, cfg)
	d2 := Generate(spec, cfg)
	if d1.Len() != d2.Len() {
		t.Fatalf("lengths differ %d vs %d", d1.Len(), d2.Len())
	}
	for i := range d1.Records {
		if d1.Records[i] != d2.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, d1.Records[i], d2.Records[i])
		}
	}
}

func TestGenerateTargetSize(t *testing.T) {
	spec := machine.Aurora()
	d := Generate(spec, GenConfig{
		Problems:   dataset.PaperProblems(),
		Grid:       dataset.DefaultGrid(),
		TargetSize: 300,
		Seed:       5,
	})
	if d.Len() != 300 {
		t.Fatalf("target size not honored: got %d", d.Len())
	}
}

// Property: simulated time is finite and positive for any feasible config.
func TestQuickSimulatePositive(t *testing.T) {
	spec := machine.Aurora()
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := Problem{O: 40 + r.Intn(200), V: 200 + r.Intn(1200)}
		tile := 40 + r.Intn(100)
		nodes := 5 + r.Intn(500)
		if ok, _ := Feasible(spec, p, tile, nodes); !ok {
			return true
		}
		s, err := Seconds(spec, p, tile, nodes, Options{})
		return err == nil && s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateSmall(b *testing.B) {
	spec := machine.Aurora()
	p := Problem{44, 260}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seconds(spec, p, 40, 5, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateLarge(b *testing.B) {
	spec := machine.Frontier()
	p := Problem{345, 791}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seconds(spec, p, 130, 400, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
