package guide

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcost/internal/dataset"
)

// twoShardRouter builds a fleet of two constant-model shards whose answers
// are distinguishable by predicted time (aurora=5s, frontier=9s).
func twoShardRouter(t *testing.T, opts ...RouterOption) (*Router, *countingModel, *countingModel) {
	t.Helper()
	r := NewRouter(opts...)
	advA, modelA := fastAdvisor(5)
	advF, modelF := fastAdvisor(9)
	if err := r.AddShard("aurora", advA); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard("frontier", advF); err != nil {
		t.Fatal(err)
	}
	return r, modelA, modelF
}

func TestRouterRoutesByMachine(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	p := problemN(0)
	recA, err := r.Recommend("aurora", p, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	recF, err := r.Recommend("frontier", p, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	if recA.PredTime != 5 || recF.PredTime != 9 {
		t.Fatalf("routing mixed up shards: aurora=%v frontier=%v", recA.PredTime, recF.PredTime)
	}
	if got := r.Machines(); len(got) != 2 || got[0] != "aurora" || got[1] != "frontier" {
		t.Fatalf("Machines() = %v", got)
	}

	// Unknown and ambiguous-empty machines error with the known fleet named.
	if _, err := r.Recommend("perlmutter", p, ShortestTime); err == nil || !strings.Contains(err.Error(), "perlmutter") {
		t.Fatalf("unknown machine error = %v", err)
	}
	if _, err := r.Recommend("", p, ShortestTime); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("empty machine with two shards should error, got %v", err)
	}
}

func TestRouterDefaultsSingleShard(t *testing.T) {
	r := NewRouter()
	adv, _ := fastAdvisor(5)
	if err := r.AddShard("aurora", adv); err != nil {
		t.Fatal(err)
	}
	rec, err := r.Recommend("", problemN(0), ShortestTime)
	if err != nil {
		t.Fatalf("one-shard fleet must accept an empty machine: %v", err)
	}
	if rec.PredTime != 5 {
		t.Fatalf("defaulted shard answered %v", rec.PredTime)
	}
}

func TestRouterAddShardValidation(t *testing.T) {
	r := NewRouter()
	if err := r.AddShard("", &Advisor{}); err == nil {
		t.Fatal("empty machine name accepted")
	}
	if err := r.AddShard("aurora", nil); err == nil {
		t.Fatal("nil advisor accepted")
	}
	if r.RemoveShard("aurora") {
		t.Fatal("RemoveShard reported success for an absent shard")
	}
}

func TestRouterBatchMixedMachines(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	queries := []RoutedQuery{
		{Machine: "aurora", Query: Query{Problem: problemN(0), Objective: ShortestTime}},
		{Machine: "frontier", Query: Query{Problem: problemN(0), Objective: ShortestTime}},
		{Machine: "missing", Query: Query{Problem: problemN(0), Objective: ShortestTime}},
		{Machine: "aurora", Query: Query{Problem: problemN(1), Objective: Budget}},
	}
	results := r.RecommendBatch(queries)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res.RoutedQuery != queries[i] {
			t.Fatalf("result %d is for %+v, want %+v (order must be preserved)", i, res.RoutedQuery, queries[i])
		}
	}
	if results[0].Err != nil || results[0].Rec.PredTime != 5 {
		t.Fatalf("aurora batch entry: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Rec.PredTime != 9 {
		t.Fatalf("frontier batch entry: %+v", results[1])
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "missing") {
		t.Fatalf("unroutable batch entry err = %v", results[2].Err)
	}
	if results[3].Err != nil {
		t.Fatalf("BQ batch entry: %v", results[3].Err)
	}
}

// blockingModel coordinates with the test: Predict reports its concurrency
// level and stalls long enough for overlap to be observable.
type blockingModel struct {
	inflight atomic.Int64
	maxSeen  atomic.Int64
}

func (m *blockingModel) Fit(x [][]float64, y []float64) error { return nil }
func (m *blockingModel) Name() string                         { return "blocking" }
func (m *blockingModel) Predict(x [][]float64) []float64 {
	n := m.inflight.Add(1)
	for {
		seen := m.maxSeen.Load()
		if n <= seen || m.maxSeen.CompareAndSwap(seen, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	m.inflight.Add(-1)
	return make([]float64, len(x))
}

// TestRouterSharedSemaphoreBoundsFleetSweeps pins the acceptance criterion:
// one semaphore bounds total in-flight sweeps ACROSS shards. With a limit of
// 1, hammering both shards concurrently must never overlap two sweeps.
func TestRouterSharedSemaphoreBoundsFleetSweeps(t *testing.T) {
	model := &blockingModel{}
	grid := dataset.Grid{Nodes: []int{10}, TileSizes: []int{40}}
	r := NewRouter(WithSweepLimit(1))
	for _, name := range []string{"aurora", "frontier"} {
		if err := r.AddShard(name, &Advisor{Model: model, Grid: grid}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			machine := "aurora"
			if g%2 == 1 {
				machine = "frontier"
			}
			// Distinct problems per goroutine force distinct keys: no
			// coalescing, every call is a real sweep.
			if _, err := r.Recommend(machine, problemN(g), ShortestTime); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got := model.maxSeen.Load(); got != 1 {
		t.Fatalf("observed %d concurrent sweeps across shards under a fleet limit of 1", got)
	}
	agg := r.AggregateStats()
	if agg.SweepCount != 8 {
		t.Fatalf("aggregate sweep count %d, want 8", agg.SweepCount)
	}
}

// TestRouterConcurrentAddRemove exercises hot shard swap under load; CI runs
// this under -race. Queries racing a swap must get either a valid answer or
// a clean unknown-machine error — never a torn state.
func TestRouterConcurrentAddRemove(t *testing.T) {
	r := NewRouter()
	advStable, _ := fastAdvisor(5)
	if err := r.AddShard("stable", advStable); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churner sync.WaitGroup
	churner.Add(1)
	go func() { // churn: add/remove a second shard in a tight loop
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			adv, _ := fastAdvisor(float64(i))
			if err := r.AddShard("churn", adv); err != nil {
				t.Error(err)
				return
			}
			r.RemoveShard("churn")
		}
	}()
	var churnOK, churnMiss atomic.Int64
	var queriers sync.WaitGroup
	for g := 0; g < 8; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			for it := 0; it < 100; it++ {
				if _, err := r.Recommend("stable", problemN(it%5), ShortestTime); err != nil {
					t.Errorf("stable shard errored during churn: %v", err)
					return
				}
				if _, err := r.Recommend("churn", problemN(it%5), ShortestTime); err == nil {
					churnOK.Add(1)
				} else if strings.Contains(err.Error(), "no shard") {
					churnMiss.Add(1)
				} else {
					t.Errorf("churn shard gave a non-routing error: %v", err)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	churner.Wait()
	if churnOK.Load()+churnMiss.Load() != 800 {
		t.Fatalf("churn outcomes %d ok + %d miss != 800", churnOK.Load(), churnMiss.Load())
	}
}

// TestRouterAggregateStatsZeroSweepShard pins the min/max aggregation
// contract: a shard with zero sweeps contributes nothing to SweepMin
// (min-of-mins over sweeping shards, not zero), and SweepMax is the
// max-of-maxes.
// TestRouterSwapShardKeepsShardSettings: a swap rebuilds the machine's
// Service from the outgoing shard's settings, so the oracle, the entry
// bound, the TTL and the clock given to AddShard survive promotion and
// rollback without the caller repeating them. Answers are taken through
// RecommendBatch, which must keep input order and equal the oracle-pruned
// advisor entry by entry.
func TestRouterSwapShardKeepsShardSettings(t *testing.T) {
	adv, oracle := serviceAdvisor(t)
	var nowNS atomic.Int64
	nowNS.Store(time.Unix(1700000000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, nowNS.Load()) }
	r := NewRouter()
	if err := r.AddShard("aurora", adv, WithOracle(oracle), WithCacheSize(2), WithTTL(time.Minute), WithClock(now)); err != nil {
		t.Fatal(err)
	}
	problems := []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}, {O: 116, V: 840}}
	var queries []RoutedQuery
	for _, p := range problems {
		for _, obj := range []Objective{ShortestTime, Budget} {
			queries = append(queries, RoutedQuery{Machine: "aurora", Query: Query{Problem: p, Objective: obj}})
		}
	}
	check := func(stage string) {
		t.Helper()
		pruned := 0
		for i, res := range r.RecommendBatch(queries) {
			q := queries[i].Query
			want, err := adv.Recommend(q.Problem, q.Objective, oracle)
			if err != nil {
				t.Fatal(err)
			}
			if res.RoutedQuery != queries[i] || res.Err != nil || res.Rec != want {
				t.Fatalf("%s: batch entry %d = %+v, want the oracle-pruned advisor's %+v for %+v", stage, i, res, want, queries[i])
			}
			if unpruned, err := adv.Recommend(q.Problem, q.Objective, nil); err == nil && unpruned != want {
				pruned++
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: the oracle changed no answer, so the check cannot tell a dropped oracle", stage)
		}
		if st := r.ShardStats()["aurora"]; st.Size > 2 {
			t.Fatalf("%s: %d resident entries past the shard's bound of 2", stage, st.Size)
		}
	}
	check("before swap")
	if _, err := r.SwapShard("aurora", adv, 0); err != nil {
		t.Fatal(err)
	}
	check("after swap")

	// The TTL and its clock came across too: a key cached now expires once
	// the shard's clock moves past a minute.
	p := problems[0]
	if _, err := r.Recommend("aurora", p, ShortestTime); err != nil {
		t.Fatal(err)
	}
	nowNS.Add(int64(2 * time.Minute))
	if _, err := r.Recommend("aurora", p, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if st := r.ShardStats()["aurora"]; st.Expired == 0 {
		t.Fatalf("no TTL expiry after the swap: %+v", st)
	}
}

// TestRouterSwapShardCarriesWarmSet pins the promotion primitive: the
// incoming service is pre-swept with the outgoing shard's hottest keys
// BEFORE installation, so the first post-swap query for a warm key is a
// cache hit on the new model, and the answer comes from the new advisor.
func TestRouterSwapShardCarriesWarmSet(t *testing.T) {
	r := NewRouter()
	advOld, modelOld := fastAdvisor(5)
	if err := r.AddShard("aurora", advOld); err != nil {
		t.Fatal(err)
	}
	p0, p1 := problemN(0), problemN(1)
	for _, p := range []dataset.Problem{p0, p1} {
		if _, err := r.Recommend("aurora", p, ShortestTime); err != nil {
			t.Fatal(err)
		}
	}
	oldCalls := modelOld.callCount()

	advNew, modelNew := fastAdvisor(7)
	warmed, err := r.SwapShard("aurora", advNew, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 2 {
		t.Fatalf("warmed %d keys, want 2", warmed)
	}
	// Post-swap queries for the warm keys answer from the NEW advisor's
	// cache: no further sweep on either model.
	newCalls := modelNew.callCount()
	for _, p := range []dataset.Problem{p0, p1} {
		rec, err := r.Recommend("aurora", p, ShortestTime)
		if err != nil {
			t.Fatal(err)
		}
		if rec.PredTime != 7 {
			t.Fatalf("post-swap answer %v came from the old advisor", rec.PredTime)
		}
	}
	if modelNew.callCount() != newCalls {
		t.Fatal("warm keys re-swept after the swap")
	}
	if modelOld.callCount() != oldCalls {
		t.Fatal("swap touched the outgoing model")
	}

	// warmLimit caps the carry; swapping an absent machine is AddShard.
	advThird, _ := fastAdvisor(9)
	if warmed, err = r.SwapShard("aurora", advThird, 1); err != nil || warmed != 1 {
		t.Fatalf("warmLimit=1 swap: warmed=%d err=%v", warmed, err)
	}
	advFresh, _ := fastAdvisor(3)
	if warmed, err = r.SwapShard("polaris", advFresh, 0); err != nil || warmed != 0 {
		t.Fatalf("swap onto empty machine: warmed=%d err=%v", warmed, err)
	}
	if _, err := r.SwapShard("", advFresh, 0); err == nil {
		t.Fatal("empty machine name accepted")
	}
	if _, err := r.SwapShard("aurora", nil, 0); err == nil {
		t.Fatal("nil advisor accepted")
	}
}

// TestRouterLoadWarmSetDuringShardChurn races warm-set loading against
// concurrent AddShard/RemoveShard/SwapShard churn under -race. The retrain
// daemon makes this interleaving routine — a restart pre-sweeps the warm set
// while controllers may already be promoting candidates — so loading must
// never panic or deadlock; keys whose shard vanished mid-load are simply
// skipped.
func TestRouterLoadWarmSetDuringShardChurn(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	for i := 0; i < 6; i++ {
		if _, err := r.Recommend("aurora", problemN(i), ShortestTime); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Recommend("frontier", problemN(i), Budget); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "warm.json")
	if err := r.SaveWarmSet(path, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn aurora through add/remove
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				r.RemoveShard("aurora")
			} else {
				adv, _ := fastAdvisor(5)
				if err := r.AddShard("aurora", adv); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // hot-swap frontier like a promoting retrain controller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			adv, _ := fastAdvisor(9)
			if _, err := r.SwapShard("frontier", adv, 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := r.LoadWarmSet(path); err != nil {
			t.Fatalf("LoadWarmSet under churn: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// The fleet still answers once churn settles.
	adv, _ := fastAdvisor(5)
	_ = r.AddShard("aurora", adv)
	if warmed, err := r.LoadWarmSet(path); err != nil || warmed == 0 {
		t.Fatalf("post-churn load: warmed=%d err=%v", warmed, err)
	}
}

func TestRouterAggregateStatsZeroSweepShard(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	if _, err := r.Recommend("aurora", problemN(0), ShortestTime); err != nil {
		t.Fatal(err)
	}
	per := r.ShardStats()
	if per["frontier"].SweepCount != 0 {
		t.Fatal("frontier should be idle")
	}
	agg := r.AggregateStats()
	if agg.SweepCount != 1 || agg.Misses != 1 {
		t.Fatalf("aggregate counters %+v", agg)
	}
	if agg.SweepMin != per["aurora"].SweepMin || agg.SweepMin == 0 {
		t.Fatalf("aggregate SweepMin %v, want aurora's %v (idle shard must not drag it to zero)",
			agg.SweepMin, per["aurora"].SweepMin)
	}
	if agg.SweepMax != per["aurora"].SweepMax {
		t.Fatalf("aggregate SweepMax %v, want %v", agg.SweepMax, per["aurora"].SweepMax)
	}
	if agg.SweepMean != per["aurora"].SweepMean {
		t.Fatalf("aggregate SweepMean %v, want %v", agg.SweepMean, per["aurora"].SweepMean)
	}

	// Now sweep frontier too: min-of-mins and max-of-maxes across both.
	if _, err := r.Recommend("frontier", problemN(0), ShortestTime); err != nil {
		t.Fatal(err)
	}
	per = r.ShardStats()
	agg = r.AggregateStats()
	wantMin := min(per["aurora"].SweepMin, per["frontier"].SweepMin)
	wantMax := max(per["aurora"].SweepMax, per["frontier"].SweepMax)
	if agg.SweepMin != wantMin || agg.SweepMax != wantMax {
		t.Fatalf("aggregate min/max %v/%v, want %v/%v", agg.SweepMin, agg.SweepMax, wantMin, wantMax)
	}
	if agg.SweepCount != 2 {
		t.Fatalf("aggregate count %d", agg.SweepCount)
	}
}

// TestRouterWarmSetRoundTrip pins save → load → pre-sweep: a fresh fleet
// warmed from the file answers the saved keys from cache.
func TestRouterWarmSetRoundTrip(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	warmQueries := []RoutedQuery{
		{Machine: "aurora", Query: Query{Problem: problemN(0), Objective: ShortestTime}},
		{Machine: "aurora", Query: Query{Problem: problemN(1), Objective: Budget}},
		{Machine: "frontier", Query: Query{Problem: problemN(2), Objective: ShortestTime}},
	}
	for _, res := range r.RecommendBatch(warmQueries) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	path := filepath.Join(t.TempDir(), "warm.json")
	if err := r.SaveWarmSet(path, 0); err != nil {
		t.Fatal(err)
	}

	// A fresh fleet (same machines, fresh caches) pre-sweeps the saved keys.
	fresh, modelA, modelF := twoShardRouter(t)
	warmed, err := fresh.LoadWarmSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != len(warmQueries) {
		t.Fatalf("warmed %d keys, want %d", warmed, len(warmQueries))
	}
	per := fresh.ShardStats()
	if per["aurora"].Size != 2 || per["frontier"].Size != 1 {
		t.Fatalf("post-warm sizes aurora=%d frontier=%d, want 2/1", per["aurora"].Size, per["frontier"].Size)
	}
	// The warmed keys now hit without touching the models again.
	callsA, callsF := modelA.callCount(), modelF.callCount()
	for _, res := range fresh.RecommendBatch(warmQueries) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if modelA.callCount() != callsA || modelF.callCount() != callsF {
		t.Fatal("warmed keys re-swept on first query")
	}
	st := fresh.AggregateStats()
	if st.Hits != 3 {
		t.Fatalf("post-warm hits %d, want 3", st.Hits)
	}
}

// TestRouterWarmSetSkipsUnknownMachines: fleet composition may change
// between save and load; stale machines are skipped, not fatal.
func TestRouterWarmSetSkipsUnknownMachines(t *testing.T) {
	r, _, _ := twoShardRouter(t)
	if _, err := r.Recommend("aurora", problemN(0), ShortestTime); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recommend("frontier", problemN(1), ShortestTime); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.json")
	if err := r.SaveWarmSet(path, 0); err != nil {
		t.Fatal(err)
	}

	shrunk := NewRouter()
	adv, _ := fastAdvisor(5)
	if err := shrunk.AddShard("aurora", adv); err != nil {
		t.Fatal(err)
	}
	warmed, err := shrunk.LoadWarmSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 1 {
		t.Fatalf("warmed %d, want 1 (frontier keys skipped)", warmed)
	}
}

// TestRouterWarmSetRejections: malformed, wrong-format, and wrong-version
// warm sets are rejected; per-shard limits cap what SaveWarmSet persists.
func TestRouterWarmSetRejections(t *testing.T) {
	dir := t.TempDir()
	r, _, _ := twoShardRouter(t)
	for i := 0; i < 4; i++ {
		if _, err := r.Recommend("aurora", problemN(i), ShortestTime); err != nil {
			t.Fatal(err)
		}
	}
	limited := filepath.Join(dir, "limited.json")
	if err := r.SaveWarmSet(limited, 2); err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := twoShardRouter(t)
	if warmed, err := fresh.LoadWarmSet(limited); err != nil || warmed != 2 {
		t.Fatalf("limited warm set: warmed=%d err=%v, want 2/nil", warmed, err)
	}

	writeFile := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := fresh.LoadWarmSet(writeFile("garbage.json", "not json")); err == nil {
		t.Fatal("malformed warm set accepted")
	}
	if _, err := fresh.LoadWarmSet(writeFile("format.json", `{"format":"other","version":1}`)); err == nil {
		t.Fatal("wrong-format warm set accepted")
	}
	if _, err := fresh.LoadWarmSet(writeFile("version.json", `{"format":"parcost-warmset","version":99}`)); err == nil {
		t.Fatal("future-version warm set accepted")
	}
	if _, err := fresh.LoadWarmSet(writeFile("objective.json",
		`{"format":"parcost-warmset","version":1,"entries":[{"machine":"aurora","o":1,"v":2,"objective":"FASTEST"}]}`)); err == nil {
		t.Fatal("unknown-objective warm set accepted")
	}
	if _, err := fresh.LoadWarmSet(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing warm set file accepted")
	}
}
