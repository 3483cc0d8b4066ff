package retrain

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parcost/internal/active"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/ml"
	"parcost/internal/rng"
)

// ---- shared fixture -------------------------------------------------------
//
// The test fleet is deliberately tiny and fully deterministic: a 2×2 grid
// over four problems (16 pool configs), a 1-NN model so predictions are
// exactly the nearest training value, and a world where the base advisor
// learned runtime 100 but the machine now takes 200 (the drift every test
// either detects, retrains away, or injects faults into).

var fixtureGrid = dataset.Grid{Nodes: []int{10, 20}, TileSizes: []int{40, 60}}

func poolConfigs() []dataset.Config {
	var pool []dataset.Config
	for _, p := range []dataset.Problem{{O: 30, V: 300}, {O: 40, V: 400}, {O: 50, V: 500}, {O: 60, V: 600}} {
		pool = append(pool, fixtureGrid.Configs(p)...)
	}
	return pool
}

// obsConfigs are the configurations observations arrive on — disjoint from
// the acquisition pool so observing does not shrink it.
func obsConfigs() []dataset.Config {
	return fixtureGrid.Configs(dataset.Problem{O: 70, V: 700})
}

func knnFit(x [][]float64, y []float64) (ml.Regressor, error) {
	m := ml.NewKNN(1, false)
	if err := m.Fit(x, y); err != nil {
		return nil, err
	}
	return m, nil
}

// baseAdvisor trains 1-NN on off-pool configs at a constant runtime, so it
// predicts `value` everywhere until a retrain teaches it otherwise.
func baseAdvisor(t testing.TB, value float64) (*guide.Advisor, [][]float64, []float64) {
	t.Helper()
	base := fixtureGrid.Configs(dataset.Problem{O: 5, V: 50})
	x := make([][]float64, len(base))
	y := make([]float64, len(base))
	for i, c := range base {
		x[i] = c.Features()
		y[i] = value
	}
	m, err := knnFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return &guide.Advisor{Model: m, Grid: fixtureGrid}, x, y
}

// scriptedMeasurer plays fault modes per call in faultinject style: the
// script is consumed one entry per Measure call, then everything succeeds.
type measureMode int

const (
	mOK measureMode = iota
	mErr
	mHang
)

type scriptedMeasurer struct {
	mu     sync.Mutex
	script []measureMode
	calls  int
	counts map[dataset.Config]int         // Measure calls per config
	value  func(c dataset.Config) float64 // measured truth (default 200)
	onCall func(n int)                    // e.g. cancel a ctx to simulate a crash
}

func newScriptedMeasurer(script ...measureMode) *scriptedMeasurer {
	return &scriptedMeasurer{script: script, counts: make(map[dataset.Config]int)}
}

func (s *scriptedMeasurer) Measure(ctx context.Context, c dataset.Config) (float64, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	mode := mOK
	if n-1 < len(s.script) {
		mode = s.script[n-1]
	}
	s.counts[c]++
	hook := s.onCall
	val := 200.0
	if s.value != nil {
		val = s.value(c)
	}
	s.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	switch mode {
	case mHang:
		<-ctx.Done()
		return 0, ctx.Err()
	case mErr:
		return 0, fmt.Errorf("injected 5xx burst")
	}
	return val, nil
}

func (s *scriptedMeasurer) countFor(c dataset.Config) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[c]
}

// testController builds a controller over a fresh router serving machine
// "aurora" with the constant-100 base advisor. Drift knobs are shrunk so
// five observations at runtime 200 trip a cycle; the whole 16-config pool
// is acquired per cycle so post-promotion predictions are exact.
func testController(t *testing.T, dir string, m Measurer) (Config, *guide.Router) {
	t.Helper()
	router := guide.NewRouter()
	base, baseX, baseY := baseAdvisor(t, 100)
	if err := router.AddShard("aurora", base); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Machine:     "aurora",
		Router:      router,
		Measurer:    m,
		Pool:        poolConfigs(),
		BaseX:       baseX,
		BaseY:       baseY,
		BaseAdvisor: base,
		Fit:         knnFit,
		JournalPath: filepath.Join(dir, "aurora.journal"),
		ArtifactDir: dir,
		Strategy:    active.RandomSampling,

		DriftWindow: 4, DriftThreshold: 0.25, DriftSustain: 2,
		AcquireBatch:   16,
		AttemptTimeout: 200 * time.Millisecond,
		MeasureRetries: 1,
		BackoffBase:    time.Millisecond, BackoffMax: 4 * time.Millisecond,
		FailureBudget: 2,
		GateMargin:    0.05, ValidationEvery: 4, MinValidation: 2,
		RollbackWindow: 4, RollbackThreshold: 0.35,
		WarmLimit: 8,
		Seed:      42,
		Now:       func() time.Time { return time.Unix(1700000000, 0).UTC() },
		Sleep:     func(ctx context.Context, d time.Duration) error { return nil },
	}
	return cfg, router
}

// observeN feeds n observations at the given runtime, cycling the off-pool
// observation configs.
func observeN(t *testing.T, c *Controller, n int, seconds float64) {
	t.Helper()
	cs := obsConfigs()
	for i := 0; i < n; i++ {
		if err := c.Observe(guide.Observation{
			Machine: "aurora", Config: cs[i%len(cs)], Seconds: seconds,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// tripCycle drives enough drifted observations to trip a retrain cycle and
// stock the held-out validation slice: 5 to trip (window 4 + sustain 2),
// then 3 more so two rows land in validation (every 4th).
func tripCycle(t *testing.T, c *Controller, seconds float64) {
	t.Helper()
	observeN(t, c, 8, seconds)
}

func readRecords(t *testing.T, path, machine string) []journalRecord {
	t.Helper()
	j, records, err := openJournal(path, machine)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return records
}

func recommendTime(t *testing.T, router *guide.Router) guide.Recommendation {
	t.Helper()
	rec, err := router.Recommend("aurora", dataset.Problem{O: 30, V: 300}, guide.ShortestTime)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// ---- unit tests -----------------------------------------------------------

// TestNewValidatesConfig: required fields and a non-empty pool.
func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg, _ := testController(t, t.TempDir(), newScriptedMeasurer())
	cfg.Pool = nil
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "pool") {
		t.Fatalf("empty pool: %v", err)
	}
}

// TestObserveValidation: malformed observations and cross-machine routing
// are rejected without touching the journal.
func TestObserveValidation(t *testing.T) {
	cfg, _ := testController(t, t.TempDir(), newScriptedMeasurer())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Observe(guide.Observation{Machine: "aurora", Config: obsConfigs()[0], Seconds: -1}); err == nil {
		t.Fatal("negative seconds accepted")
	}
	if err := c.Observe(guide.Observation{Machine: "frontier", Config: obsConfigs()[0], Seconds: 1}); err == nil {
		t.Fatal("cross-machine observation accepted")
	}
	if records := readRecords(t, cfg.JournalPath, "aurora"); len(records) != 0 {
		t.Fatalf("rejected observations journaled: %d records", len(records))
	}
}

// TestMeasureOneRetriesWithBackoff: a transient failure is retried after a
// jittered exponential backoff, and the schedule is deterministic per seed.
func TestMeasureOneRetriesWithBackoff(t *testing.T) {
	run := func() ([]time.Duration, float64, int, error) {
		m := newScriptedMeasurer(mErr, mOK)
		var waits []time.Duration
		sleep := func(ctx context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		}
		secs, attempts, err := measureOne(context.Background(), m, poolConfigs()[0],
			time.Second, 2, 10*time.Millisecond, 80*time.Millisecond, sleep, rng.New(7))
		return waits, secs, attempts, err
	}
	waits, secs, attempts, err := run()
	if err != nil || secs != 200 || attempts != 2 {
		t.Fatalf("secs=%g attempts=%d err=%v", secs, attempts, err)
	}
	if len(waits) != 1 || waits[0] < 5*time.Millisecond || waits[0] > 10*time.Millisecond {
		t.Fatalf("backoff waits = %v, want one in [5ms, 10ms]", waits)
	}
	waits2, _, _, _ := run()
	if waits[0] != waits2[0] {
		t.Fatalf("backoff not deterministic: %v vs %v", waits[0], waits2[0])
	}
}

// TestMeasureOneExhaustsRetries: persistent failure surfaces after the
// bounded attempt count.
func TestMeasureOneExhaustsRetries(t *testing.T) {
	m := newScriptedMeasurer(mErr, mErr, mErr)
	_, attempts, err := measureOne(context.Background(), m, poolConfigs()[0],
		time.Second, 2, time.Millisecond, time.Millisecond,
		func(ctx context.Context, d time.Duration) error { return nil }, rng.New(7))
	if err == nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v, want 3 attempts and an error", attempts, err)
	}
}

// TestMeasureOneHonorsAttemptDeadline: a hung measurement is cut off by the
// per-attempt timeout rather than stalling the cycle forever.
func TestMeasureOneHonorsAttemptDeadline(t *testing.T) {
	m := newScriptedMeasurer(mHang, mHang)
	start := time.Now()
	_, attempts, err := measureOne(context.Background(), m, poolConfigs()[0],
		20*time.Millisecond, 1, time.Millisecond, time.Millisecond,
		func(ctx context.Context, d time.Duration) error { return nil }, rng.New(7))
	if err == nil || attempts != 2 {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung measurement stalled for %v", elapsed)
	}
}

// TestControllerPromotesOnDrift is the happy path end to end: sustained
// drift trips a cycle, the pool is measured, the candidate beats the
// incumbent on the held-out slice, and the router hot-swaps to a model that
// now predicts the drifted runtime.
func TestControllerPromotesOnDrift(t *testing.T) {
	m := newScriptedMeasurer()
	cfg, router := testController(t, t.TempDir(), m)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := recommendTime(t, router).PredTime; got != 100 {
		t.Fatalf("base advisor predicts %g, want 100", got)
	}
	tripCycle(t, c, 200)
	if err := c.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Incumbent() == "base" {
		t.Fatal("no promotion after a full drifted cycle")
	}
	if got := recommendTime(t, router).PredTime; got != 200 {
		t.Fatalf("post-promotion prediction %g, want 200", got)
	}
	// Every pool config was measured exactly once.
	for _, pc := range poolConfigs() {
		if n := m.countFor(pc); n != 1 {
			t.Fatalf("config %v measured %d times", pc, n)
		}
	}
	// The lifecycle is journaled in order: trip → acquire → 16 measured →
	// fitted → gate → promoted → cycle_done.
	var kinds []string
	for _, rec := range readRecords(t, cfg.JournalPath, "aurora") {
		if rec.Kind != recObserve {
			kinds = append(kinds, rec.Kind)
		}
	}
	want := append([]string{recTrip, recAcquire}, make([]string, 0, 20)...)
	for i := 0; i < 16; i++ {
		want = append(want, recMeasured)
	}
	want = append(want, recFitted, recGate, recPromoted, recCycleDone)
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record %d = %s, want %s (%v)", i, kinds[i], want[i], kinds)
		}
	}
	// The promotion persisted a loadable artifact holding exactly the bytes
	// whose hash the journal records as the candidate ID.
	records := readRecords(t, cfg.JournalPath, "aurora")
	for _, rec := range records {
		if rec.Kind != recPromoted {
			continue
		}
		var p promotedPayload
		if err := decodePayload(rec, &p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := guide.LoadAdvisor(p.Path); err != nil {
			t.Fatalf("promoted artifact unloadable: %v", err)
		}
		data, err := os.ReadFile(p.Path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != p.Candidate {
			t.Fatalf("promoted file hashes to %x, journal names candidate %s", sum, p.Candidate)
		}
	}
}

// TestControllerKeepsShardOracle: the controller installs, promotes and
// rolls back advisors through SwapShard, and every one of those swaps must
// keep the oracle the machine's shard was added with. The shard's answers
// over every paper problem × {STQ, BQ} must equal Advisor.Recommend pruned by
// that oracle: right after New (which installs the incumbent), after a
// promotion, after a rollback, and after a resume.
func TestControllerKeepsShardOracle(t *testing.T) {
	dir := t.TempDir()
	cfg, router := testController(t, dir, newScriptedMeasurer())
	// The paper's grid: a constant model answers with the first kept
	// configuration, so any change in pruning changes the answer.
	cfg.BaseAdvisor = &guide.Advisor{Model: cfg.BaseAdvisor.Model, Grid: dataset.DefaultGrid()}
	oracle := guide.NewSimOracle(machine.Aurora())
	if err := router.AddShard("aurora", cfg.BaseAdvisor, guide.WithOracle(oracle)); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, adv *guide.Advisor) {
		t.Helper()
		pruned := 0
		for _, p := range dataset.PaperProblems() {
			for _, obj := range []guide.Objective{guide.ShortestTime, guide.Budget} {
				want, wantErr := adv.Recommend(p, obj, oracle)
				got, err := router.Recommend("aurora", p, obj)
				if (err == nil) != (wantErr == nil) || got != want {
					t.Fatalf("%s: %v/%v = %+v (err %v), oracle-pruned advisor = %+v (err %v)",
						stage, p, obj, got, err, want, wantErr)
				}
				if unpruned, err := adv.Recommend(p, obj, nil); err == nil && unpruned != want {
					pruned++
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: the oracle changed no answer, so the check cannot tell a dropped oracle", stage)
		}
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("boot", cfg.BaseAdvisor)
	tripCycle(t, c, 200)
	if err := c.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Incumbent() == "base" {
		t.Fatal("setup: no promotion")
	}
	check("promotion", c.incumbent)
	observeN(t, c, cfg.RollbackWindow, 400)
	if err := c.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Incumbent() != "base" {
		t.Fatalf("setup: no rollback, incumbent %s", c.Incumbent())
	}
	check("rollback", cfg.BaseAdvisor)
	c.Close()

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check("resume", cfg.BaseAdvisor)
}

// TestAdvanceIdle: with no drift there is nothing to do.
func TestAdvanceIdle(t *testing.T) {
	cfg, _ := testController(t, t.TempDir(), newScriptedMeasurer())
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	observeN(t, c, 3, 101) // healthy: ~1% error
	if err := c.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, cfg.JournalPath, "aurora"); len(got) != 3 {
		t.Fatalf("idle controller journaled %d records, want 3 observations", len(got))
	}
}

// TestFleetRouting: observations route by machine; the empty machine name
// only resolves for a single-controller fleet.
func TestFleetRouting(t *testing.T) {
	dir := t.TempDir()
	cfgA, _ := testController(t, dir, newScriptedMeasurer())
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	f := NewFleet()
	f.Add("aurora", a)
	if err := f.Observe(guide.Observation{Config: obsConfigs()[0], Seconds: 150}); err != nil {
		t.Fatalf("single-controller fleet should default the machine: %v", err)
	}
	if err := f.Observe(guide.Observation{Machine: "frontier", Config: obsConfigs()[0], Seconds: 150}); err == nil {
		t.Fatal("unknown machine accepted")
	}

	cfgB := cfgA
	cfgB.Machine = "frontier"
	cfgB.JournalPath = filepath.Join(dir, "frontier.journal")
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f.Add("frontier", b)
	if got := f.Machines(); len(got) != 2 || got[0] != "aurora" || got[1] != "frontier" {
		t.Fatalf("Machines() = %v", got)
	}
	if err := f.Observe(guide.Observation{Config: obsConfigs()[0], Seconds: 150}); err == nil {
		t.Fatal("ambiguous empty machine accepted with two controllers")
	}
	if err := f.Observe(guide.Observation{Machine: "frontier", Config: obsConfigs()[1], Seconds: 150}); err != nil {
		t.Fatal(err)
	}
}
