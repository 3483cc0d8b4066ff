package guide

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
)

// serviceAdvisor trains a small, fast advisor for service tests.
func serviceAdvisor(t *testing.T) (*Advisor, *SimOracle) {
	t.Helper()
	spec := machine.Aurora()
	d := trainDataset(spec)
	gb := ensemble.NewGradientBoosting(60, 0.1, tree.Params{MaxDepth: 6}, 1)
	adv, err := NewAdvisor(gb, d)
	if err != nil {
		t.Fatal(err)
	}
	return adv, NewSimOracle(spec)
}

// newTestService builds a Service the way the serving tier does: as the
// only shard of a fresh Router.
func newTestService(adv *Advisor, opts ...ServiceOption) (*Service, error) {
	r := NewRouter()
	if err := r.AddShard("test", adv, opts...); err != nil {
		return nil, err
	}
	return r.Shard("test")
}

func TestServiceMatchesAdvisor(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	svc, err := newTestService(adv, WithOracle(oracle))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ShortestTime, Budget} {
		for _, p := range []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}} {
			want, err := adv.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := svc.Recommend(p, obj)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("service %v/%v = %+v, advisor = %+v", p, obj, got, want)
			}
		}
	}
}

func TestServiceCacheHitsAndEviction(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	p1 := dataset.Problem{O: 146, V: 1096}
	p2 := dataset.Problem{O: 99, V: 718}
	p3 := dataset.Problem{O: 116, V: 840}

	first, err := svc.Recommend(p1, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc.Recommend(p1, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("cached recommendation differs from the original sweep")
	}
	st := svc.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("after repeat query: hits=%d misses=%d size=%d, want 1/1/1", st.Hits, st.Misses, st.Size)
	}
	if st.SweepCount != 1 || st.SweepMin <= 0 || st.SweepMean <= 0 || st.SweepMax < st.SweepMin {
		t.Fatalf("sweep stats not recorded: %+v", st)
	}

	// Two more distinct keys overflow the 2-entry cache.
	if _, err := svc.Recommend(p2, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recommend(p3, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if st := svc.CacheStats(); st.Size != 2 {
		t.Fatalf("cache size %d after 3 distinct keys with capacity 2", st.Size)
	}
	// p1 was evicted (least recently used): querying it again is a miss.
	if _, err := svc.Recommend(p1, ShortestTime); err != nil {
		t.Fatal(err)
	}
	st = svc.CacheStats()
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (three cold + one post-eviction)", st.Misses)
	}
	if st.SweepCount != 4 || st.SweepMin > st.SweepMean || st.SweepMean > st.SweepMax {
		t.Fatalf("sweep stats inconsistent after 4 sweeps: %+v", st)
	}
}

func TestServiceCacheDisabled(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	p := dataset.Problem{O: 146, V: 1096}
	a, err := svc.Recommend(p, Budget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Recommend(p, Budget)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("uncached repeat sweeps disagree")
	}
	if st := svc.CacheStats(); st.Size != 0 {
		t.Fatalf("disabled cache holds %d entries", st.Size)
	}
}

// walkRecorder is a SimOracle whose walks note every configuration they are
// asked about.
type walkRecorder struct {
	*SimOracle
	asked *[]dataset.Config
}

func (w walkRecorder) BandWalk() func(dataset.Config) bool {
	keep := w.SimOracle.BandWalk()
	return func(c dataset.Config) bool {
		*w.asked = append(*w.asked, c)
		return keep(c)
	}
}

// exactFallbacks counts the configurations among asked whose bounds leave
// o's band open, so a walk settles them with its tile's exact Simulate.
func exactFallbacks(o *SimOracle, asked []dataset.Config) int {
	n := 0
	for _, c := range asked {
		lo, hi, err := ccsd.NewTile(o.Spec, ccsd.Problem{O: c.O, V: c.V}, c.TileSize, ccsd.Options{}).Bounds(c.Nodes)
		if err == nil && !settledBy(o, lo, hi) {
			n++
		}
	}
	return n
}

// TestServiceConcurrentRecommend fans many goroutines over a mix of hot
// (repeated) and cold keys on one shard, whose walks share one SimOracle.
// Every answer must equal Advisor.Recommend with a fresh NewSimOracle per
// query, as perfbench's reference is taken, and some of the queries' walks
// must reach the exact fallback. CI runs this under -race.
func TestServiceConcurrentRecommend(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	svc, err := newTestService(adv, WithOracle(oracle))
	if err != nil {
		t.Fatal(err)
	}
	problems := []dataset.Problem{
		{O: 146, V: 1096}, {O: 99, V: 718}, {O: 116, V: 840}, {O: 180, V: 1070},
	}
	for i, p := range offsetProblems() {
		if i%9 == 1 {
			problems = append(problems, p)
		}
	}
	want := map[Query]Recommendation{}
	fallbacks := 0
	for _, p := range problems {
		for _, obj := range []Objective{ShortestTime, Budget} {
			rec, err := adv.Recommend(p, obj, NewSimOracle(oracle.Spec))
			if err != nil {
				t.Fatal(err)
			}
			want[Query{p, obj}] = rec
			var asked []dataset.Config
			if _, err := adv.Recommend(p, obj, walkRecorder{NewSimOracle(oracle.Spec), &asked}); err != nil {
				t.Fatal(err)
			}
			fallbacks += exactFallbacks(oracle, asked)
		}
	}
	t.Logf("%d queries, %d exact fallbacks in their walks", len(want), fallbacks)
	if fallbacks == 0 {
		t.Fatal("no query's walk reaches the exact fallback")
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure string
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				p := problems[(g+it)%len(problems)]
				obj := Objective((g + it) % 2)
				got, err := svc.Recommend(p, obj)
				if err != nil {
					mu.Lock()
					failure = err.Error()
					mu.Unlock()
					return
				}
				if got != want[Query{p, obj}] {
					mu.Lock()
					failure = "concurrent recommendation diverged from serial advisor"
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	st := svc.CacheStats()
	if st.Misses > uint64(len(want)) {
		t.Fatalf("%d misses for %d distinct keys: sweeps were not coalesced", st.Misses, len(want))
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits across 320 repeated queries")
	}
	if st.SweepCount != st.Misses {
		t.Fatalf("sweep count %d != misses %d", st.SweepCount, st.Misses)
	}
}

func TestServiceRequiresFittedAdvisor(t *testing.T) {
	if _, err := newTestService(nil); err == nil {
		t.Fatal("nil advisor accepted")
	}
	if _, err := newTestService(&Advisor{}); err == nil {
		t.Fatal("advisor without model accepted")
	}
}

// constModel predicts the same value for every configuration, forcing an
// all-way tie in the STQ sweep.
type constModel struct{ v float64 }

func (c constModel) Fit(x [][]float64, y []float64) error { return nil }
func (c constModel) Name() string                         { return "const" }
func (c constModel) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		out[i] = c.v
	}
	return out
}

// TestRecommendTieBreakFirstMin pins the tie-breaking contract: with every
// predicted objective value equal, the FIRST configuration in the grid's
// stable sweep order wins.
func TestRecommendTieBreakFirstMin(t *testing.T) {
	grid := dataset.Grid{Nodes: []int{10, 20, 30}, TileSizes: []int{40, 50}}
	adv := &Advisor{Model: constModel{v: 7}, Grid: grid}
	p := dataset.Problem{O: 50, V: 300}
	rec, err := adv.Recommend(p, ShortestTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCfg := grid.Configs(p)[0]
	if rec.Config != wantCfg {
		t.Fatalf("tie broke to %v, want first grid config %v", rec.Config, wantCfg)
	}
	if rec.PredTime != 7 || rec.PredValue != 7 {
		t.Fatalf("prediction values %v/%v, want 7/7", rec.PredTime, rec.PredValue)
	}
	// Repeated sweeps are deterministic.
	for i := 0; i < 5; i++ {
		again, err := adv.Recommend(p, ShortestTime, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again != rec {
			t.Fatal("repeated tied sweep returned a different recommendation")
		}
	}
}

// TestAdvisorArtifactRoundTrip is the acceptance criterion: a trained
// advisor saved as a one-entry fleet and loaded back through LoadAdvisor
// returns recommendations identical to the in-process advisor, across
// problems and objectives.
func TestAdvisorArtifactRoundTrip(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	path := filepath.Join(t.TempDir(), "advisor.json")
	if err := SaveBundle(path, []FleetEntry{{Machine: "aurora", Advisor: adv}}, BundleMeta{}); err != nil {
		t.Fatal(err)
	}
	loaded, machineName, err := LoadAdvisor(path)
	if err != nil {
		t.Fatal(err)
	}
	if machineName != "aurora" {
		t.Fatalf("machine = %q, want aurora", machineName)
	}
	if len(loaded.Grid.Nodes) != len(adv.Grid.Nodes) || len(loaded.Grid.TileSizes) != len(adv.Grid.TileSizes) {
		t.Fatal("grid did not round-trip")
	}
	for _, obj := range []Objective{ShortestTime, Budget} {
		for _, p := range []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}, {O: 180, V: 1070}} {
			want, err := adv.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("loaded advisor %v/%v = %+v, in-process = %+v", p, obj, got, want)
			}
		}
	}
}

// panicModel blows up on every prediction.
type panicModel struct{}

func (panicModel) Fit(x [][]float64, y []float64) error { return nil }
func (panicModel) Name() string                         { return "panic" }
func (panicModel) Predict(x [][]float64) []float64      { panic("model exploded") }

// TestServicePanicDoesNotWedgeKey: a panicking sweep must propagate to its
// caller but release the in-flight entry, so later queries for the same
// key re-attempt instead of blocking forever.
func TestServicePanicDoesNotWedgeKey(t *testing.T) {
	adv := &Advisor{Model: panicModel{}, Grid: dataset.Grid{Nodes: []int{10}, TileSizes: []int{40}}}
	svc, err := newTestService(adv)
	if err != nil {
		t.Fatal(err)
	}
	p := dataset.Problem{O: 5, V: 5}
	attempt := func() (didPanic bool) {
		defer func() { didPanic = recover() != nil }()
		_, _ = svc.Recommend(p, ShortestTime)
		return
	}
	if !attempt() {
		t.Fatal("first query should panic")
	}
	done := make(chan bool, 1)
	go func() { done <- attempt() }()
	select {
	case again := <-done:
		if !again {
			t.Fatal("second query should panic too (fresh sweep)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second query blocked on a wedged inflight entry")
	}
}

// TestAdvisorArtifactRejections: LoadAdvisor reads only a one-entry fleet
// (a two-machine bundle, a malformed or a truncated file is refused), and
// an advisor without a snapshot-capable fitted model does not encode.
func TestAdvisorArtifactRejections(t *testing.T) {
	adv, _ := serviceAdvisor(t)
	data, err := EncodeBundle([]FleetEntry{{Machine: "aurora", Advisor: adv}, {Machine: "frontier", Advisor: adv}}, BundleMeta{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"two machines": data,
		"not json":     []byte("not json"),
		"truncated":    data[:len(data)/2],
	} {
		path := filepath.Join(dir, "advisor.json")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadAdvisor(path); err == nil {
			t.Fatalf("%s: LoadAdvisor accepted it", name)
		}
	}
	if _, err := EncodeBundle([]FleetEntry{{Machine: "aurora"}}, BundleMeta{}); err == nil {
		t.Fatal("nil advisor encoded")
	}
	if _, err := EncodeBundle([]FleetEntry{{Machine: "aurora", Advisor: &Advisor{Model: constModel{}}}}, BundleMeta{}); err == nil {
		t.Fatal("non-snapshot model encoded")
	}
}
