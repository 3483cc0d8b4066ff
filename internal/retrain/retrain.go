// Package retrain closes the serving loop: it watches each fleet shard for
// drift between observed runtimes and the serving advisor's predictions,
// and when degradation sustains it acquires new measurements (via the
// active-learning strategies), fits a candidate advisor, validates it
// against the incumbent on a held-out slice, and hot-swaps it into the
// Router with the old shard's warm set carried over — then watches the
// promotion and rolls back automatically if the new model regresses.
//
// Every transition is journaled (crash-safe, checksummed, fsynced) before
// it takes effect, so a controller killed mid-cycle resumes exactly where
// it was: measurements already taken are never repeated, a candidate that
// failed its gate is never served, and the incumbent keeps serving
// throughout because promotion and rollback are both a single atomic
// Router.SwapShard.
package retrain

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"parcost/internal/active"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/ml"
	"parcost/internal/rng"
	"parcost/internal/stats"
)

// FitFunc builds and fits a fresh regressor on the given rows. It must be
// deterministic for fixed inputs: after a crash between fit and gate the
// controller re-fits and expects the same candidate.
type FitFunc func(x [][]float64, y []float64) (ml.Regressor, error)

// Config parameterizes one shard's retraining controller. Machine, Router,
// Measurer, BaseAdvisor, Fit, JournalPath, and a non-empty Pool are
// required; every numeric knob has a conservative default.
type Config struct {
	Machine  string
	Router   *guide.Router
	Measurer Measurer

	// Pool is the acquisition universe: configurations the controller may
	// ask the Measurer to run. Already-measured and already-observed
	// configurations are excluded automatically.
	Pool []dataset.Config

	// BaseX/BaseY are the training rows the incumbent was originally fit
	// on; candidate fits always include them so a retrain augments rather
	// than forgets.
	BaseX       [][]float64
	BaseY       []float64
	BaseAdvisor *guide.Advisor
	Fit         FitFunc

	JournalPath string
	ArtifactDir string // promoted candidates are persisted here

	Strategy  active.StrategyKind
	Committee int // committee size for QueryByCommittee (default 5)

	// Drift trip: windowed mean relative error must exceed DriftThreshold
	// on DriftSustain consecutive observations with a full window.
	DriftWindow    int     // default 32
	DriftThreshold float64 // default 0.25
	DriftSustain   int     // default 4

	// Acquisition / measurement.
	AcquireBatch   int           // configs per cycle (default 16)
	AttemptTimeout time.Duration // per-attempt deadline (default 30s)
	MeasureRetries int           // additional attempts after the first (default 2)
	BackoffBase    time.Duration // default 100ms
	BackoffMax     time.Duration // default 5s
	// FailureBudget is the number of failed measurements a cycle tolerates;
	// past it the remaining acquisitions are skipped and the NEXT cycle
	// degrades to random acquisition (an unhealthy fleet should not be
	// steered by an uncertainty estimate fed on failures).
	FailureBudget int // default 3

	// Validation gate: every ValidationEvery-th observation is held out;
	// a candidate must beat the incumbent's held-out RMSE by GateMargin
	// (relative) across at least MinValidation held-out rows.
	GateMargin      float64 // default 0.05
	ValidationEvery int     // default 4
	MinValidation   int     // default 8

	// Post-promotion watch: the next RollbackWindow observations are
	// scored against the new model; mean relative error above
	// RollbackThreshold — or a mean sweep time more than LatencyFactor×
	// the pre-swap baseline (0 disables the latency check) — rolls the
	// promotion back.
	RollbackWindow    int     // default 16
	RollbackThreshold float64 // default 0.35
	LatencyFactor     float64 // default 0 (disabled)

	WarmLimit int    // cache entries carried across swaps (default 64)
	Seed      uint64 // drives acquisition and backoff jitter deterministically

	Now   func() time.Time // injectable clock (default time.Now)
	Sleep sleepFunc        // injectable backoff sleep (default real sleep)
}

func (c *Config) applyDefaults() {
	if c.Committee <= 0 {
		c.Committee = 5
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 32
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.25
	}
	if c.DriftSustain <= 0 {
		c.DriftSustain = 4
	}
	if c.AcquireBatch <= 0 {
		c.AcquireBatch = 16
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.MeasureRetries <= 0 {
		c.MeasureRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.FailureBudget <= 0 {
		c.FailureBudget = 3
	}
	if c.GateMargin <= 0 {
		c.GateMargin = 0.05
	}
	if c.ValidationEvery <= 1 {
		c.ValidationEvery = 4
	}
	if c.MinValidation <= 0 {
		c.MinValidation = 8
	}
	if c.RollbackWindow <= 0 {
		c.RollbackWindow = 16
	}
	if c.RollbackThreshold <= 0 {
		c.RollbackThreshold = 0.35
	}
	if c.WarmLimit <= 0 {
		c.WarmLimit = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = realSleep
	}
}

// lineageEntry is one promotion still standing: rollbacks pop from the top,
// and the advisor below the top (or the base) is the rollback target.
type lineageEntry struct {
	candidate string // sha256 of the artifact bytes
	path      string
	cycle     uint64
}

// Controller runs the closed loop for one machine's shard.
type Controller struct {
	cfg Config

	mu sync.Mutex // guards journal and all state below
	j  *journal

	drift *driftEstimator

	obsCount uint64
	trainX   [][]float64
	trainY   []float64
	valX     [][]float64
	valY     []float64
	observed map[dataset.Config]bool

	measuredX [][]float64
	measuredY []float64
	seen      map[dataset.Config]bool // measured or definitively failed; never re-acquired

	cycle           uint64
	cycleActive     bool
	acquired        bool
	pending         []dataset.Config
	cycleFails      int
	promotedInCycle bool
	degradedNext    bool

	incumbent *guide.Advisor
	previous  *guide.Advisor // rollback target after a live promotion
	lineage   []lineageEntry

	watch          bool
	watchErrs      []float64
	preSweepMean   time.Duration
	preSweepCount  uint64
	rollbackDue    bool
	rollbackReason string

	// Lifetime counters for /metrics. They count journal records, so replay
	// rebuilds them and they survive restarts along with the rest of the
	// state: cycles tripped, candidates promoted, promotions rolled back,
	// and validation gates failed (a cycle interrupted mid-gate re-runs the
	// gate on resume, so gateFails counts evaluations, not cycles).
	metrics Metrics

	kick   chan struct{}
	closed bool

	advMu sync.Mutex // serializes Advance (cycles never interleave)
}

// New opens (or resumes) a controller from its journal and installs the
// resolved incumbent into the Router. After a crash the rebuilt state is
// exactly what was journaled: completed measurements are not repeated,
// an interrupted cycle picks up at its next step, and a promotion that
// reached the journal survives the restart.
func New(cfg Config) (*Controller, error) {
	if cfg.Machine == "" || cfg.Router == nil || cfg.Measurer == nil ||
		cfg.BaseAdvisor == nil || cfg.Fit == nil || cfg.JournalPath == "" {
		return nil, fmt.Errorf("retrain: Machine, Router, Measurer, BaseAdvisor, Fit, and JournalPath are required")
	}
	if len(cfg.Pool) == 0 {
		return nil, fmt.Errorf("retrain: acquisition pool is empty")
	}
	cfg.applyDefaults()

	j, records, err := openJournal(cfg.JournalPath, cfg.Machine)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		j:        j,
		drift:    newDriftEstimator(cfg.DriftWindow, cfg.DriftThreshold, cfg.DriftSustain),
		observed: make(map[dataset.Config]bool),
		seen:     make(map[dataset.Config]bool),
		kick:     make(chan struct{}, 1),
	}
	if err := c.replay(records); err != nil {
		j.Close()
		return nil, err
	}
	if err := c.installIncumbent(); err != nil {
		j.Close()
		return nil, err
	}
	if c.workPending() {
		c.kickLocked()
	}
	return c, nil
}

// replay rebuilds in-memory state by running the journal's records through
// the same transitions the live path uses.
func (c *Controller) replay(records []journalRecord) error {
	for _, rec := range records {
		switch rec.Kind {
		case recObserve:
			var p observePayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.applyObservationLocked(p, false)
		case recTrip:
			var p tripPayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.cycle = p.Cycle
			c.cycleActive = true
			c.acquired = false
			c.pending = nil
			c.promotedInCycle = false
			c.drift.reset()
			c.metrics.Cycles++
		case recAcquire:
			var p acquirePayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.acquired = true
			c.pending = append([]dataset.Config(nil), p.Configs...)
		case recMeasured:
			var p measuredPayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.applyMeasuredLocked(p.Config, p.Seconds)
		case recMeasureFailed:
			var p measureFailedPayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.applyMeasureFailedLocked(p.Config, p.Attempts)
		case recFitted:
			// Informational: an interrupted fit is re-run on resume
			// (FitFunc is deterministic) — only promotion is a point of
			// no return.
		case recGate:
			// Informational for state (a re-run gate re-journals), but the
			// failure counter is rebuilt from it.
			var p gatePayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			if !p.Pass {
				c.metrics.GateFailures++
			}
		case recPromoted:
			var p promotedPayload
			if err := decodePayload(rec, &p); err != nil {
				return err
			}
			c.lineage = append(c.lineage, lineageEntry{candidate: p.Candidate, path: p.Path, cycle: p.Cycle})
			c.promotedInCycle = true
			c.metrics.Promotions++
			c.startWatchLocked(time.Duration(p.PreSweepMs*float64(time.Millisecond)), p.PreSweepCnt)
		case recRolledBack:
			c.metrics.Rollbacks++
			if n := len(c.lineage); n > 0 {
				c.lineage = c.lineage[:n-1]
			}
			c.watch = false
			c.rollbackDue = false
			c.rollbackReason = ""
			c.drift.reset()
		case recCycleDone:
			c.cycleActive = false
			c.acquired = false
			c.pending = nil
			c.promotedInCycle = false
			c.degradedNext = c.cycleFails > c.cfg.FailureBudget
			c.cycleFails = 0
		default:
			return fmt.Errorf("retrain: journal record %d has unknown kind %q", rec.Seq, rec.Kind)
		}
	}
	return nil
}

// installIncumbent resolves the serving advisor from the lineage (top
// promotion's artifact, else the base advisor) and atomically installs it,
// warm-carrying whatever shard is already serving. previous is resolved one
// level down so a pending rollback can execute immediately after resume.
func (c *Controller) installIncumbent() error {
	adv, err := c.advisorAt(len(c.lineage) - 1)
	if err != nil {
		return err
	}
	c.incumbent = adv
	c.previous = nil
	if len(c.lineage) > 0 {
		if c.previous, err = c.advisorAt(len(c.lineage) - 2); err != nil {
			return err
		}
	}
	if _, err := c.cfg.Router.SwapShard(c.cfg.Machine, c.incumbent, c.cfg.WarmLimit); err != nil {
		return fmt.Errorf("retrain: installing incumbent for %q: %w", c.cfg.Machine, err)
	}
	return nil
}

// advisorAt loads the advisor for lineage index i; i < 0 is the base.
func (c *Controller) advisorAt(i int) (*guide.Advisor, error) {
	if i < 0 {
		return c.cfg.BaseAdvisor, nil
	}
	e := c.lineage[i]
	adv, _, err := guide.LoadAdvisor(e.path)
	if err != nil {
		return nil, fmt.Errorf("retrain: lineage cycle %d artifact: %w", e.cycle, err)
	}
	return adv, nil
}

func (c *Controller) workPending() bool {
	return c.rollbackDue || c.cycleActive
}

func (c *Controller) kickLocked() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Controller) now() string { return c.cfg.Now().UTC().Format(time.RFC3339Nano) }

// Observe ingests one measured outcome for this controller's machine. It
// journals the observation with the serving model's prediction, feeds the
// drift monitor (or the post-promotion watch), and kicks Advance when a
// cycle trips or a rollback falls due. Goroutine-safe.
func (c *Controller) Observe(o guide.Observation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Machine != "" && o.Machine != c.cfg.Machine {
		return fmt.Errorf("retrain: observation for machine %q routed to controller for %q", o.Machine, c.cfg.Machine)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("retrain: controller for %q is closed", c.cfg.Machine)
	}
	p := observePayload{
		Config:    o.Config,
		Seconds:   o.Seconds,
		Predicted: ml.PredictOne(c.incumbent.Model, o.Config.Features()),
	}
	if err := c.j.append(recObserve, c.now(), p); err != nil {
		return err
	}
	tripped := c.applyObservationLocked(p, true)
	if tripped {
		next := c.cycle + 1
		if err := c.j.append(recTrip, c.now(), tripPayload{Cycle: next, WindowErr: c.drift.mean()}); err != nil {
			return err
		}
		c.cycle = next
		c.cycleActive = true
		c.acquired = false
		c.pending = nil
		c.promotedInCycle = false
		c.drift.reset()
		c.metrics.Cycles++
	}
	if c.workPending() {
		c.kickLocked()
	}
	return nil
}

// applyObservationLocked is the single transition both the live path and
// journal replay run: update the train/validation split, then feed either
// the post-promotion watch or the drift monitor. Returns whether drift
// tripped (the live path journals the trip; replay trusts the recTrip
// record instead).
func (c *Controller) applyObservationLocked(p observePayload, live bool) (tripped bool) {
	c.obsCount++
	c.observed[p.Config] = true
	feats := p.Config.Features()
	if c.obsCount%uint64(c.cfg.ValidationEvery) == 0 {
		c.valX = append(c.valX, feats)
		c.valY = append(c.valY, p.Seconds)
	} else {
		c.trainX = append(c.trainX, feats)
		c.trainY = append(c.trainY, p.Seconds)
	}

	e := relErr(p.Seconds, p.Predicted)
	if c.watch {
		c.watchErrs = append(c.watchErrs, e)
		if len(c.watchErrs) >= c.cfg.RollbackWindow {
			c.finishWatchLocked(live)
		}
		return false
	}
	if c.cycleActive {
		return false // a cycle is already in flight; tripping again is moot
	}
	return c.drift.add(e)
}

// finishWatchLocked closes the one-shot post-promotion observation window
// and decides whether the promotion regressed badly enough to roll back.
func (c *Controller) finishWatchLocked(live bool) {
	c.watch = false
	sum := 0.0
	for _, e := range c.watchErrs {
		sum += e
	}
	mean := sum / float64(len(c.watchErrs))
	if mean > c.cfg.RollbackThreshold {
		c.rollbackDue = true
		c.rollbackReason = fmt.Sprintf("post-swap error regression: windowed relative error %.3f > %.3f", mean, c.cfg.RollbackThreshold)
		return
	}
	// Latency shift: only checkable live (replay cannot reconstruct the
	// dead process's sweep timings, and an accepted promotion stays
	// accepted across restarts).
	if live && c.cfg.LatencyFactor > 0 && c.preSweepCount > 0 {
		post := c.cfg.Router.ShardStats()[c.cfg.Machine]
		if post.SweepCount > 0 && post.SweepMean > time.Duration(float64(c.preSweepMean)*c.cfg.LatencyFactor) {
			c.rollbackDue = true
			c.rollbackReason = fmt.Sprintf("post-swap latency regression: mean sweep %v > %.1f× baseline %v",
				post.SweepMean, c.cfg.LatencyFactor, c.preSweepMean)
		}
	}
}

func (c *Controller) startWatchLocked(preMean time.Duration, preCount uint64) {
	c.watch = true
	c.watchErrs = c.watchErrs[:0]
	c.preSweepMean = preMean
	c.preSweepCount = preCount
	c.rollbackDue = false
	c.rollbackReason = ""
	c.drift.reset()
}

func (c *Controller) applyMeasuredLocked(cfg dataset.Config, secs float64) {
	c.measuredX = append(c.measuredX, cfg.Features())
	c.measuredY = append(c.measuredY, secs)
	c.seen[cfg] = true
	c.dropPendingLocked(cfg)
}

func (c *Controller) applyMeasureFailedLocked(cfg dataset.Config, attempts int) {
	// attempts == 0 marks a budget-skip, not a real failure: the config was
	// never tried and stays eligible for future acquisition.
	if attempts > 0 {
		c.seen[cfg] = true
		c.cycleFails++
	}
	c.dropPendingLocked(cfg)
}

func (c *Controller) dropPendingLocked(cfg dataset.Config) {
	for i, p := range c.pending {
		if p == cfg {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// Run drives the controller until ctx is done: it advances whenever
// Observe signals work (a tripped cycle or a due rollback) and on a
// periodic heartbeat that retries cycles interrupted by transient errors.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.kick:
		case <-t.C:
		}
		_ = c.Advance(ctx) // errors are retried on the next heartbeat
	}
}

// Advance performs at most one unit of control work: a due rollback, or the
// next step of the active cycle (acquire → measure → fit → gate → promote).
// It is safe to call concurrently with Observe; concurrent Advance calls
// serialize. Returns nil when there is nothing to do.
func (c *Controller) Advance(ctx context.Context) error {
	c.advMu.Lock()
	defer c.advMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("retrain: controller for %q is closed", c.cfg.Machine)
	}
	if c.rollbackDue {
		err := c.rollbackLocked()
		c.mu.Unlock()
		return err
	}
	if !c.cycleActive {
		c.mu.Unlock()
		return nil
	}
	if c.promotedInCycle {
		// Crash landed between the promotion and its cycle_done marker:
		// the promotion stands, just close the cycle out.
		err := c.closeCycleLocked(outcomePromoted)
		c.mu.Unlock()
		return err
	}
	if !c.acquired {
		if err := c.acquireLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.mu.Unlock()

	if err := c.measurePending(ctx); err != nil {
		return err
	}
	return c.fitGatePromote(ctx)
}

// rollbackLocked demotes the top promotion: journal first (the durable
// decision), then swap the prior advisor back in atomically.
func (c *Controller) rollbackLocked() error {
	if len(c.lineage) == 0 {
		c.rollbackDue = false
		return nil
	}
	top := c.lineage[len(c.lineage)-1]
	if err := c.j.append(recRolledBack, c.now(), rolledBackPayload{Cycle: top.cycle, Reason: c.rollbackReason}); err != nil {
		return err
	}
	c.metrics.Rollbacks++
	c.lineage = c.lineage[:len(c.lineage)-1]
	target := c.previous
	if target == nil {
		target = c.cfg.BaseAdvisor
	}
	if _, err := c.cfg.Router.SwapShard(c.cfg.Machine, target, c.cfg.WarmLimit); err != nil {
		return err
	}
	c.incumbent = target
	prev, err := c.advisorAt(len(c.lineage) - 2)
	if err != nil {
		return err
	}
	c.previous = prev
	c.watch = false
	c.rollbackDue = false
	c.rollbackReason = ""
	c.drift.reset()
	return nil
}

// acquireLocked picks this cycle's measurement batch with the configured
// strategy (random when the previous cycle blew its failure budget) and
// journals the choice before any measurement runs — the batch, not the
// strategy, is what resume must reproduce.
func (c *Controller) acquireLocked() error {
	var pool []dataset.Config
	for _, cand := range c.cfg.Pool {
		if !c.seen[cand] && !c.observed[cand] {
			pool = append(pool, cand)
		}
	}
	strategy := c.cfg.Strategy
	if c.degradedNext {
		strategy = active.RandomSampling
	}
	var chosen []dataset.Config
	if len(pool) > 0 {
		poolX := make([][]float64, len(pool))
		for i, cand := range pool {
			poolX[i] = cand.Features()
		}
		lx, ly := c.labeledLocked()
		idx := active.Select(strategy, lx, ly, poolX, c.cfg.AcquireBatch, c.cfg.Committee, c.cfg.Seed^c.cycle)
		chosen = make([]dataset.Config, 0, len(idx))
		for _, i := range idx {
			chosen = append(chosen, pool[i])
		}
	}
	p := acquirePayload{Cycle: c.cycle, Strategy: strategy.String(), Degraded: c.degradedNext, Configs: chosen}
	if err := c.j.append(recAcquire, c.now(), p); err != nil {
		return err
	}
	c.acquired = true
	c.pending = chosen
	return nil
}

// labeledLocked snapshots everything the models may learn from: the base
// training set, live (non-held-out) observations, and prior measurements.
// Row slices are immutable once appended, so copying headers is enough.
func (c *Controller) labeledLocked() ([][]float64, []float64) {
	n := len(c.cfg.BaseX) + len(c.trainX) + len(c.measuredX)
	x := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	x = append(append(append(x, c.cfg.BaseX...), c.trainX...), c.measuredX...)
	y = append(append(append(y, c.cfg.BaseY...), c.trainY...), c.measuredY...)
	return x, y
}

// measurePending drains the cycle's pending measurements. Each outcome is
// journaled the moment it is known — a later resume never re-runs a
// journaled measurement. Past the failure budget the remainder is skipped
// (journaled with zero attempts so the configs stay acquirable) and the
// cycle proceeds with what it has.
func (c *Controller) measurePending(ctx context.Context) error {
	c.mu.Lock()
	cycle := c.cycle
	c.mu.Unlock()
	r := rng.New(c.cfg.Seed ^ (cycle * 0x9e3779b97f4a7c15))
	for {
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.mu.Unlock()
			return nil
		}
		next := c.pending[0]
		overBudget := c.cycleFails > c.cfg.FailureBudget
		c.mu.Unlock()

		if err := ctx.Err(); err != nil {
			return err
		}
		if overBudget {
			c.mu.Lock()
			err := c.j.append(recMeasureFailed, c.now(), measureFailedPayload{
				Cycle: cycle, Config: next, Attempts: 0, Error: "skipped: cycle failure budget exhausted",
			})
			if err == nil {
				c.applyMeasureFailedLocked(next, 0)
			}
			c.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}

		secs, attempts, err := measureOne(ctx, c.cfg.Measurer, next,
			c.cfg.AttemptTimeout, c.cfg.MeasureRetries, c.cfg.BackoffBase, c.cfg.BackoffMax,
			c.cfg.Sleep, r)
		if err != nil && ctx.Err() != nil {
			// Shutdown, not a config failure: leave it pending for resume.
			return ctx.Err()
		}
		// A measurement that completed is journaled even if ctx has since
		// been canceled — dropping it here is exactly the duplicate-
		// measurement window the journal exists to close.

		c.mu.Lock()
		if err != nil {
			jerr := c.j.append(recMeasureFailed, c.now(), measureFailedPayload{
				Cycle: cycle, Config: next, Attempts: attempts, Error: err.Error(),
			})
			if jerr == nil {
				c.applyMeasureFailedLocked(next, attempts)
			}
			c.mu.Unlock()
			if jerr != nil {
				return jerr
			}
			continue
		}
		jerr := c.j.append(recMeasured, c.now(), measuredPayload{Cycle: cycle, Config: next, Seconds: secs})
		if jerr == nil {
			c.applyMeasuredLocked(next, secs)
		}
		c.mu.Unlock()
		if jerr != nil {
			return jerr
		}
	}
}

// fitGatePromote runs the back half of a cycle: fit a candidate on
// base + observed + measured rows, gate it on the held-out slice against
// the incumbent, and only on a pass persist and hot-swap it. A gated-out
// candidate is never installed and never written to the artifact dir.
func (c *Controller) fitGatePromote(ctx context.Context) error {
	c.mu.Lock()
	trainX, trainY := c.labeledLocked()
	valX := append([][]float64(nil), c.valX...)
	valY := append([]float64(nil), c.valY...)
	incumbent := c.incumbent
	cycle := c.cycle
	c.mu.Unlock()

	if len(trainX) == 0 {
		return c.finishCycle(outcomeAborted)
	}
	model, err := c.cfg.Fit(trainX, trainY)
	if err != nil {
		return c.finishCycle(outcomeAborted)
	}
	candidate := &guide.Advisor{Model: model, Grid: incumbent.Grid}
	artifact, err := guide.EncodeBundle([]guide.FleetEntry{{Machine: c.cfg.Machine, Advisor: candidate}}, guide.BundleMeta{})
	if err != nil {
		return c.finishCycle(outcomeAborted)
	}
	sum := sha256.Sum256(artifact)
	candID := hex.EncodeToString(sum[:])

	c.mu.Lock()
	parent := "base"
	if n := len(c.lineage); n > 0 {
		parent = c.lineage[n-1].candidate
	}
	if err := c.j.append(recFitted, c.now(), fittedPayload{
		Cycle: cycle, Candidate: candID, Parent: parent, TrainRows: len(trainX),
	}); err != nil {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()

	gate := gatePayload{Cycle: cycle, Candidate: candID, Margin: c.cfg.GateMargin}
	if len(valY) < c.cfg.MinValidation {
		gate.Reason = fmt.Sprintf("insufficient validation data (%d rows, need %d)", len(valY), c.cfg.MinValidation)
	} else {
		gate.CandidateRMSE = stats.RMSE(valY, candidate.Model.Predict(valX))
		gate.IncumbentRMSE = stats.RMSE(valY, incumbent.Model.Predict(valX))
		gate.Pass = gate.CandidateRMSE <= gate.IncumbentRMSE*(1-c.cfg.GateMargin)
	}
	c.mu.Lock()
	if err := c.j.append(recGate, c.now(), gate); err != nil {
		c.mu.Unlock()
		return err
	}
	if !gate.Pass {
		c.metrics.GateFailures++
	}
	c.mu.Unlock()
	if !gate.Pass {
		return c.finishCycle(outcomeDiscarded)
	}

	// Promotion. Persist the artifact first, durably and as the very bytes
	// the candidate ID hashes: a promoted record must always point at a
	// loadable file holding that candidate.
	path := filepath.Join(c.cfg.ArtifactDir, fmt.Sprintf("%s-cycle%d.json", c.cfg.Machine, cycle))
	if err := writeFileDurable(path, artifact); err != nil {
		return fmt.Errorf("retrain: persisting candidate: %w", err)
	}
	pre := c.cfg.Router.ShardStats()[c.cfg.Machine]
	warmed, err := c.cfg.Router.SwapShard(c.cfg.Machine, candidate, c.cfg.WarmLimit)
	if err != nil {
		return fmt.Errorf("retrain: promoting candidate: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.j.append(recPromoted, c.now(), promotedPayload{
		Cycle: cycle, Candidate: candID, Path: path, Warmed: warmed,
		PreSweepMs: float64(pre.SweepMean) / float64(time.Millisecond), PreSweepCnt: pre.SweepCount,
	}); err != nil {
		return err
	}
	c.lineage = append(c.lineage, lineageEntry{candidate: candID, path: path, cycle: cycle})
	c.metrics.Promotions++
	c.previous = c.incumbent
	c.incumbent = candidate
	c.promotedInCycle = true
	c.startWatchLocked(pre.SweepMean, pre.SweepCount)
	return c.closeCycleLocked(outcomePromoted)
}

func (c *Controller) finishCycle(outcome string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeCycleLocked(outcome)
}

func (c *Controller) closeCycleLocked(outcome string) error {
	if err := c.j.append(recCycleDone, c.now(), cycleDonePayload{Cycle: c.cycle, Outcome: outcome}); err != nil {
		return err
	}
	c.cycleActive = false
	c.acquired = false
	c.pending = nil
	c.promotedInCycle = false
	c.degradedNext = c.cycleFails > c.cfg.FailureBudget
	c.cycleFails = 0
	return nil
}

// Metrics is one controller's lifetime retraining counters, rebuilt from
// the journal on resume so they survive crashes with the rest of the state.
type Metrics struct {
	Cycles       uint64 `json:"cycles"`        // retraining cycles tripped by drift
	Promotions   uint64 `json:"promotions"`    // candidates promoted into the Router
	Rollbacks    uint64 `json:"rollbacks"`     // promotions demoted by the watch window
	GateFailures uint64 `json:"gate_failures"` // validation-gate evaluations that failed
}

// ControllerMetrics snapshots the controller's lifetime counters.
func (c *Controller) ControllerMetrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// Incumbent returns the lineage id of the currently serving advisor
// ("base" when no promotion stands).
func (c *Controller) Incumbent() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.lineage); n > 0 {
		return c.lineage[n-1].candidate
	}
	return "base"
}

// Close releases the journal. The controller must not be used after.
func (c *Controller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.j.Close()
}
