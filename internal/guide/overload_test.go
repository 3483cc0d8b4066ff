package guide

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
)

// detModel predicts a deterministic function of the features (so two sweeps
// of the same problem give bit-identical recommendations) and can burn a
// fixed wall time per sweep to simulate CPU-bound grid cost under load.
type detModel struct {
	delay time.Duration
	calls atomic.Int64
}

func (m *detModel) Fit(x [][]float64, y []float64) error { return nil }
func (m *detModel) Name() string                         { return "det" }
func (m *detModel) Predict(x [][]float64) []float64 {
	m.calls.Add(1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	out := make([]float64, len(x))
	for i, row := range x {
		v := 1.0
		for j, f := range row {
			v += f * float64(j+1) * 0.01
		}
		out[i] = v
	}
	return out
}

// gateModel parks every Predict call on a gate, so a test can hold a
// sweep slot occupied for as long as it needs.
type gateModel struct {
	entered chan struct{} // one send per Predict call, before blocking
	gate    chan struct{} // close to release all calls
	calls   atomic.Int64
}

func newGateModel() *gateModel {
	return &gateModel{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (m *gateModel) Fit(x [][]float64, y []float64) error { return nil }
func (m *gateModel) Name() string                         { return "blocking" }
func (m *gateModel) Predict(x [][]float64) []float64 {
	m.calls.Add(1)
	m.entered <- struct{}{}
	<-m.gate
	return make([]float64, len(x))
}

// waitQueueDepth blocks until the shared admission queue reports depth want.
func waitQueueDepth(t *testing.T, adm *admission.Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for adm.Queue.Stats().Depth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, adm.Queue.Stats().Depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestOverloadServiceSoak replays a seeded open-loop storm at ~4x the
// service's sweep capacity end to end through RecommendCtx and pins the
// overload contract of ISSUE PR 9:
//
//   - every admitted answer is bit-identical to an unloaded run of the same
//     schedule (degraded throughput, never degraded answers);
//   - every rejection carries a structured status (*admission.ShedError or a
//     context error — nothing else);
//   - admitted p99 latency is bounded by the queue depth, not the storm
//     length;
//   - no goroutine leaks and no sweep slot is left occupied.
//
// Runs under -race in the CI overload soak step.
func TestOverloadServiceSoak(t *testing.T) {
	const (
		capacity  = 2
		maxQueue  = 8
		sweepTime = 2 * time.Millisecond
		rate      = 4000.0 // ~4x the ~1000/s two 2ms slots can serve
		n         = 500
		keys      = 16
	)

	// Unloaded reference: the answer each key must get.
	refModel := &detModel{}
	refSvc, err := newTestService(&Advisor{Model: refModel, Grid: dataset.Grid{Nodes: []int{10, 20}, TileSizes: []int{40, 60}}})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]Recommendation, keys)
	for k := 0; k < keys; k++ {
		rec, err := refSvc.Recommend(problemN(k), ShortestTime)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = rec
	}

	adm := admission.NewController(admission.ControllerConfig{
		Capacity: capacity, MaxQueue: maxQueue,
		BrownoutTarget: time.Millisecond, BrownoutWindow: 5 * time.Millisecond,
	})
	model := &detModel{delay: sweepTime}
	// Cache disabled: every non-coalesced request must sweep, which is what
	// makes the storm an overload rather than a hit parade.
	svc, err := newService(&Advisor{Model: model, Grid: dataset.Grid{Nodes: []int{10, 20}, TileSizes: []int{40, 60}}},
		adm, newServiceConfig(WithCacheSize(0)))
	if err != nil {
		t.Fatal(err)
	}

	goroutinesBefore := runtime.NumGoroutine()

	var (
		admitted, shedCount, ctxErrs atomic.Uint64
		mu                           sync.Mutex
		lat                          []time.Duration
	)
	sched := admission.NewSchedule(99, rate, n, keys)
	var wg sync.WaitGroup
	launched := admission.Replay(context.Background(), sched, admission.SleepPacer(), func(a admission.Arrival) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if a.Key%3 == 0 { // exercise deadline admission under contention
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 40*time.Millisecond)
				defer cancel()
			}
			start := time.Now()
			rec, stale, err := svc.RecommendCtx(ctx, problemN(a.Key), ShortestTime)
			if err != nil {
				// Structured status for every rejection: a ShedError from
				// admission, or the caller's own context error from a
				// coalesced wait. Anything else fails the soak.
				var shed *admission.ShedError
				switch {
				case errors.As(err, &shed):
					shedCount.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					ctxErrs.Add(1)
				default:
					t.Errorf("unstructured rejection: %v", err)
				}
				return
			}
			if stale {
				t.Error("stale answer with caching disabled — nothing resident to degrade to")
				return
			}
			if rec != want[a.Key] {
				t.Errorf("key %d: answer under load %+v differs from unloaded %+v", a.Key, rec, want[a.Key])
				return
			}
			admitted.Add(1)
			mu.Lock()
			lat = append(lat, time.Since(start))
			mu.Unlock()
		}()
	})
	wg.Wait()

	if got := admitted.Load() + shedCount.Load() + ctxErrs.Load(); got != uint64(launched) {
		t.Fatalf("outcomes %d != launched %d (admitted=%d shed=%d ctx=%d)",
			got, launched, admitted.Load(), shedCount.Load(), ctxErrs.Load())
	}
	if admitted.Load() == 0 {
		t.Fatal("storm admitted nothing — the service collapsed instead of degrading")
	}
	if shedCount.Load() == 0 {
		t.Fatal("4x overload shed nothing — admission control is not engaging")
	}

	// Bounded p99: queue bound × sweep time plus generous scheduler slack.
	// Coalesced waiters ride their leader's slot, so the same bound holds.
	mu.Lock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	mu.Unlock()
	bound := time.Duration(maxQueue+capacity+1)*sweepTime + 250*time.Millisecond
	if p99 > bound {
		t.Fatalf("admitted p99 latency %v exceeds bound %v", p99, bound)
	}

	// The structured outcomes the service recorded must cover its refusals.
	st := svc.CacheStats()
	if got := st.ShedQueueFull + st.ShedDeadline + st.ShedBrownout + st.CanceledQueued; got == 0 {
		t.Fatal("service stats recorded no sheds despite refusals")
	}
	qs := adm.Queue.Stats()
	if qs.Active != 0 || qs.Depth != 0 {
		t.Fatalf("active=%d depth=%d after storm, want 0/0 (leaked slot or ghost waiter)", qs.Active, qs.Depth)
	}

	// Zero goroutine leak: everything spawned by the storm must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after storm, started with %d", runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadCancelWhileQueued pins the cancellation contract end to end
// through RecommendCtx: a caller that disconnects while queued for a sweep
// slot is unlinked (slot released to others), counted in CanceledQueued —
// distinct from Expired and eviction — and its sweep NEVER starts.
func TestOverloadCancelWhileQueued(t *testing.T) {
	adm := admission.NewController(admission.ControllerConfig{Capacity: 1, MaxQueue: 4})
	model := newGateModel()
	svc, err := newService(&Advisor{Model: model, Grid: dataset.Grid{Nodes: []int{10}, TileSizes: []int{40}}},
		adm, newServiceConfig(WithTTL(time.Minute)))
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only sweep slot with key 0.
	holder := make(chan error, 1)
	go func() {
		_, _, err := svc.RecommendCtx(context.Background(), problemN(0), ShortestTime)
		holder <- err
	}()
	<-model.entered // the sweep is inside the model, slot held

	// Key 1 queues behind it, then its caller disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, _, err := svc.RecommendCtx(ctx, problemN(1), ShortestTime)
		queued <- err
	}()
	waitQueueDepth(t, adm, 1)
	cancel()

	err = <-queued
	var shed *admission.ShedError
	if !errors.As(err, &shed) || shed.Reason != admission.ReasonAbandoned {
		t.Fatalf("err=%v, want ShedError{abandoned}", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v must wrap context.Canceled", err)
	}

	// Release the holder and let the service drain.
	close(model.gate)
	if err := <-holder; err != nil {
		t.Fatalf("holder: %v", err)
	}

	st := svc.CacheStats()
	if st.CanceledQueued != 1 {
		t.Fatalf("CanceledQueued=%d, want 1", st.CanceledQueued)
	}
	if st.Expired != 0 {
		t.Fatalf("Expired=%d — cancellation must not masquerade as TTL expiry", st.Expired)
	}
	if st.ShedQueueFull != 0 || st.ShedDeadline != 0 || st.ShedBrownout != 0 {
		t.Fatalf("cancellation leaked into shed counters: %+v", st)
	}
	// The canceled request's sweep never started: only the holder's single
	// sweep ever reached the model.
	if got := model.calls.Load(); got != 1 {
		t.Fatalf("model saw %d sweeps, want 1 (canceled request must not sweep)", got)
	}
	// The slot was handed back: a fresh request for key 1 sweeps immediately.
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.RecommendCtx(context.Background(), problemN(1), ShortestTime)
		done <- err
	}()
	<-model.entered
	if err := <-done; err != nil {
		t.Fatalf("post-cancel request: %v", err)
	}
	if qs := adm.Queue.Stats(); qs.Canceled != 1 || qs.Active != 0 {
		t.Fatalf("queue canceled=%d active=%d, want 1/0", qs.Canceled, qs.Active)
	}
}

// TestOverloadBrownoutServesStale pins brownout-mode degraded serving: a
// resident-but-expired entry is served as an explicitly stale answer instead
// of re-sweeping, a sweep-requiring miss sheds with ReasonBrownout while the
// slots are busy, and probe sweeps are admitted again once the queue drains.
func TestOverloadBrownoutServesStale(t *testing.T) {
	clock := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Now()}
	now := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return clock.t
	}
	advance := func(d time.Duration) {
		clock.mu.Lock()
		clock.t = clock.t.Add(d)
		clock.mu.Unlock()
	}

	const target, window = 10 * time.Millisecond, 50 * time.Millisecond
	adm := admission.NewController(admission.ControllerConfig{
		Capacity: 1, MaxQueue: 4,
		BrownoutTarget: target, BrownoutWindow: window,
		Now: now,
	})
	adv, model := fastAdvisor(5)
	svc, err := newService(adv, adm, newServiceConfig(WithTTL(time.Minute), WithClock(now)))
	if err != nil {
		t.Fatal(err)
	}

	// Cache key 0, then age it past its TTL.
	cached, err := svc.Recommend(problemN(0), ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute)

	// Flip brownout on: standing delay at target sustained for the window.
	adm.Brownout.Observe(target)
	advance(window)
	adm.Brownout.Observe(target)
	if !adm.BrownoutActive() {
		t.Fatal("brownout did not engage")
	}

	// Expired-but-resident key: served stale instead of re-swept.
	calls := model.callCount()
	rec, stale, err := svc.RecommendCtx(context.Background(), problemN(0), ShortestTime)
	if err != nil {
		t.Fatalf("stale serve failed: %v", err)
	}
	if !stale {
		t.Fatal("expired entry served during brownout was not marked stale")
	}
	if rec != cached {
		t.Fatalf("stale answer %+v differs from the cached one %+v", rec, cached)
	}
	if model.callCount() != calls {
		t.Fatal("brownout stale serve re-swept the grid")
	}

	// Sweep-requiring miss with the only slot busy: shed with ReasonBrownout.
	release, err := adm.Queue.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = svc.RecommendCtx(context.Background(), problemN(1), ShortestTime)
	var shed *admission.ShedError
	if !errors.As(err, &shed) || shed.Reason != admission.ReasonBrownout {
		t.Fatalf("err=%v, want ShedError{brownout}", err)
	}
	if shed.RetryAfterSeconds() < 1 {
		t.Fatalf("RetryAfterSeconds=%d, want >= 1", shed.RetryAfterSeconds())
	}
	release(0)

	// Queue drained: the same miss is now admitted as a probe sweep (the
	// recovery path that feeds the exit trigger).
	if _, _, err := svc.RecommendCtx(context.Background(), problemN(1), ShortestTime); err != nil {
		t.Fatalf("probe sweep refused with an idle queue: %v", err)
	}

	st := svc.CacheStats()
	if st.StaleServed != 1 || st.ShedBrownout != 1 {
		t.Fatalf("StaleServed=%d ShedBrownout=%d, want 1/1", st.StaleServed, st.ShedBrownout)
	}
}
