package guide

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"parcost/internal/dataset"
)

// countingModel predicts a constant and counts Predict calls, so tests can
// distinguish cache hits from fresh sweeps without timing games.
type countingModel struct {
	mu    sync.Mutex
	calls int
	v     float64
}

func (m *countingModel) Fit(x [][]float64, y []float64) error { return nil }
func (m *countingModel) Name() string                         { return "counting" }
func (m *countingModel) Predict(x [][]float64) []float64 {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	out := make([]float64, len(x))
	for i := range out {
		out[i] = m.v
	}
	return out
}

func (m *countingModel) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// fastAdvisor builds an advisor over a tiny grid with a cheap model, so
// cache tests sweep in microseconds.
func fastAdvisor(v float64) (*Advisor, *countingModel) {
	m := &countingModel{v: v}
	return &Advisor{Model: m, Grid: dataset.Grid{Nodes: []int{10, 20}, TileSizes: []int{40, 60}}}, m
}

func problemN(i int) dataset.Problem { return dataset.Problem{O: 10 + i, V: 100 + i} }

// TestCacheByteBoundLRUOrder pins eviction and the byte accounting: a cache
// of two entries holds 2×entryBytes, the third distinct key evicts the
// least recently used, and touching a key protects it.
func TestCacheByteBoundLRUOrder(t *testing.T) {
	adv, model := fastAdvisor(5)
	svc, err := newTestService(adv, WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	p0, p1, p2 := problemN(0), problemN(1), problemN(2)
	for _, p := range []dataset.Problem{p0, p1, p2} {
		if _, err := svc.Recommend(p, ShortestTime); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.CacheStats()
	if st.Size != 2 {
		t.Fatalf("size %d under a 2-entry bound", st.Size)
	}
	if st.Bytes != 2*entryBytes {
		t.Fatalf("bytes %d, want %d", st.Bytes, 2*entryBytes)
	}
	// p0 was evicted (LRU): querying p1 and p2 must hit, p0 must sweep.
	calls := model.callCount()
	if _, err := svc.Recommend(p1, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recommend(p2, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if got := model.callCount(); got != calls {
		t.Fatalf("resident keys re-swept: %d extra model calls", got-calls)
	}
	if _, err := svc.Recommend(p0, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if got := model.callCount(); got != calls+1 {
		t.Fatalf("evicted key did not re-sweep (calls %d, want %d)", got, calls+1)
	}

	// Touch p2 (now LRU order: p0, p2 hot; p1 cold), then insert a fresh key:
	// p1 must be the eviction victim, not the recently-touched p2.
	if _, err := svc.Recommend(p2, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recommend(problemN(3), ShortestTime); err != nil {
		t.Fatal(err)
	}
	calls = model.callCount()
	if _, err := svc.Recommend(p2, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if model.callCount() != calls {
		t.Fatal("recently-touched key was evicted instead of the LRU one")
	}
}

// TestCacheTTLExpiry pins TTL semantics with an injected clock: a fresh
// entry hits, the same entry past its TTL is dropped, counted in Expired,
// and re-swept.
func TestCacheTTLExpiry(t *testing.T) {
	adv, model := fastAdvisor(5)
	svc, err := newTestService(adv, WithTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	svc.cache.now = func() time.Time { return now }

	p := problemN(0)
	first, err := svc.Recommend(p, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second) // within TTL: hit
	if _, err := svc.Recommend(p, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if got := model.callCount(); got != 1 {
		t.Fatalf("within-TTL repeat swept (model calls %d)", got)
	}
	now = now.Add(31 * time.Second) // past TTL: expired, re-sweep
	again, err := svc.Recommend(p, ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("re-swept recommendation differs for an unchanged model")
	}
	if got := model.callCount(); got != 2 {
		t.Fatalf("expired entry not re-swept (model calls %d, want 2)", got)
	}
	st := svc.CacheStats()
	if st.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", st.Expired)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits/misses %d/%d, want 1/2 (expiry counts as a miss)", st.Hits, st.Misses)
	}
	// The re-swept entry carries a fresh TTL.
	now = now.Add(59 * time.Second)
	if _, err := svc.Recommend(p, ShortestTime); err != nil {
		t.Fatal(err)
	}
	if got := model.callCount(); got != 2 {
		t.Fatal("re-inserted entry did not get a fresh TTL")
	}
}

// TestCacheExpiredEntryLeavesOnFailedResweep: an expired entry is dropped
// before its re-sweep, so a re-sweep that fails leaves the key out of the
// cache: it holds no slot, and the next query for it counts one more miss,
// not a second expiry.
func TestCacheExpiredEntryLeavesOnFailedResweep(t *testing.T) {
	adv, _ := fastAdvisor(5)
	svc, err := newTestService(adv, WithTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	svc.cache.now = func() time.Time { return now }
	q := Query{Problem: problemN(0), Objective: ShortestTime}
	if _, err := svc.Recommend(q.Problem, q.Objective); err != nil {
		t.Fatal(err)
	}
	now = now.Add(61 * time.Second) // past TTL

	failed := errors.New("sweep failed")
	fail := func() (Recommendation, error) { return Recommendation{}, failed }
	for i, want := range []Stats{{Misses: 2, Expired: 1}, {Misses: 3, Expired: 1}} {
		if _, _, err := svc.cache.do(context.Background(), q, fail); !errors.Is(err, failed) {
			t.Fatalf("query %d: error %v, want the sweep's", i, err)
		}
		st := svc.CacheStats()
		if st.Size != 0 || st.Misses != want.Misses || st.Expired != want.Expired {
			t.Fatalf("query %d after a failed re-sweep: size %d, misses %d, expired %d; want 0, %d, %d",
				i, st.Size, st.Misses, st.Expired, want.Misses, want.Expired)
		}
	}
}

// TestCacheTTLExpiredKeysLeaveWarmSet: hotKeys must skip expired entries so
// a persisted warm set never pre-sweeps stale traffic.
func TestCacheTTLExpiredKeysLeaveWarmSet(t *testing.T) {
	adv, _ := fastAdvisor(5)
	svc, err := newTestService(adv, WithTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	svc.cache.now = func() time.Time { return now }
	if _, err := svc.Recommend(problemN(0), ShortestTime); err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second)
	if _, err := svc.Recommend(problemN(1), ShortestTime); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second) // problemN(0) is now expired, problemN(1) fresh
	keys := svc.cache.hotKeys(0)
	if len(keys) != 1 || keys[0].Problem != problemN(1) {
		t.Fatalf("hotKeys = %v, want only the fresh key", keys)
	}
}

// TestCacheDisabledWithByteBoundOnly: WithCacheSize(0) disables caching
// and holds no bytes.
func TestCacheDisabledWithByteBoundOnly(t *testing.T) {
	adv, model := fastAdvisor(5)
	svc, err := newTestService(adv, WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	p := problemN(0)
	for i := 0; i < 3; i++ {
		if _, err := svc.Recommend(p, ShortestTime); err != nil {
			t.Fatal(err)
		}
	}
	if got := model.callCount(); got != 3 {
		t.Fatalf("disabled cache served a repeat (calls %d, want 3)", got)
	}
	if st := svc.CacheStats(); st.Size != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache holds %d entries / %d bytes", st.Size, st.Bytes)
	}
}

// TestCacheEvictionUnderRace hammers a 4-entry, TTL'd cache from many
// goroutines; CI runs this under -race. Invariants: bounds hold at every
// snapshot and answers are always correct.
func TestCacheEvictionUnderRace(t *testing.T) {
	adv, _ := fastAdvisor(5)
	svc, err := newTestService(adv, WithCacheSize(4), WithTTL(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	want, err := adv.Recommend(problemN(0), ShortestTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				p := problemN((g + it) % 12)
				rec, err := svc.Recommend(p, ShortestTime)
				if err != nil {
					mu.Lock()
					failure = err.Error()
					mu.Unlock()
					return
				}
				// Constant model: every problem ties, so the first grid
				// (nodes, tile) wins regardless of key.
				if rec.Config.Nodes != want.Config.Nodes || rec.Config.TileSize != want.Config.TileSize {
					mu.Lock()
					failure = "concurrent answer diverged"
					mu.Unlock()
					return
				}
				if st := svc.CacheStats(); st.Size > 4 {
					mu.Lock()
					failure = "entry bound violated under concurrency"
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
	if st.Hits+st.Misses != 400 {
		t.Fatalf("hits+misses = %d, want 400", st.Hits+st.Misses)
	}
}
