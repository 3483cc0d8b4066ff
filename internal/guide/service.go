package guide

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
)

// Service is one shard of a Router: a fitted Advisor wrapped for concurrent
// serving. It is safe for use from many goroutines at once:
//
//   - Recommend answers STQ/BQ queries through a bounded LRU cache keyed by
//     (problem, objective), so repeated queries for the same problem don't
//     re-sweep the candidate grid. The cache engine (sweepCache) supports
//     an entry-count bound plus an optional per-entry TTL.
//   - Concurrent first requests for the same key are coalesced: one
//     goroutine sweeps, the rest wait for its result (no duplicated work,
//     no thundering herd on a cold cache).
//   - Sweeps run behind the Router's admission.Controller: a bounded,
//     deadline-aware queue in front of the fleet's sweep slots, plus
//     optional brownout-mode shedding. RecommendCtx threads the caller's
//     context down into admission, so deadlines propagate and a
//     disconnected caller's queued sweep never starts.
//
// Services are built only by Router.AddShard and Router.SwapShard, so every
// shard shares the fleet's admission controller and a swapped-in advisor
// keeps the oracle and cache settings its machine was added with.
//
// The underlying model's Predict must be goroutine-safe; every model family
// in this library predicts from immutable fitted state with per-call
// scratch, which the -race hammer tests in internal/ml verify.
type Service struct {
	adv   *Advisor
	cfg   serviceConfig
	cache *sweepCache
	memo  *gridMemo // nil when the model cannot list its split thresholds
}

// serviceConfig is a shard's construction settings. AddShard decides it
// once from its ServiceOptions; SwapShard rebuilds the machine's Service
// from the outgoing shard's copy.
type serviceConfig struct {
	oracle     Oracle // optional feasibility pruning, applied to every query
	maxEntries int
	ttl        time.Duration
	clock      func() time.Time // non-nil overrides the cache clock
}

// newServiceConfig applies opts over the defaults.
func newServiceConfig(opts ...ServiceOption) serviceConfig {
	cfg := serviceConfig{maxEntries: DefaultCacheSize}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// DefaultCacheSize bounds the per-problem sweep cache unless overridden.
const DefaultCacheSize = 1024

// ServiceOption configures a shard's Service (see Router.AddShard).
type ServiceOption func(*serviceConfig)

// WithOracle sets an oracle used to prune infeasible configurations on
// every query, mirroring Advisor.Recommend's optional oracle argument.
func WithOracle(o Oracle) ServiceOption {
	return func(c *serviceConfig) { c.oracle = o }
}

// WithCacheSize bounds the sweep cache to n entries; n <= 0 disables
// caching. Every entry costs the same fixed entryBytes (see cache.go), so
// the bound is also the cache's byte footprint in entries.
func WithCacheSize(n int) ServiceOption {
	return func(c *serviceConfig) { c.maxEntries = max(n, 0) }
}

// WithTTL expires cached sweeps d after insertion, so a model retrained in
// place (hot shard swap) ages out recommendations computed against the old
// model instead of serving them forever. d <= 0 disables expiry. Expired
// entries are dropped lazily on their next lookup and counted in
// Stats.Expired.
func WithTTL(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.ttl = max(d, 0) }
}

// WithClock overrides the cache's TTL clock (tests and deterministic
// deployments; default time.Now).
func WithClock(now func() time.Time) ServiceOption {
	return func(c *serviceConfig) { c.clock = now }
}

// NewAdmissionController builds an admission controller for the serving
// tier, defaulting Capacity to the process's usable parallelism when the
// config leaves it unset. The GOMAXPROCS read lives here — in the audited
// partitioning package — so command-line frontends can build flag-driven
// controllers without sizing worker pools themselves.
func NewAdmissionController(cfg admission.ControllerConfig) *admission.Controller {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	return admission.NewController(cfg)
}

// newService wraps a fitted Advisor as a shard whose sweeps go through adm.
func newService(adv *Advisor, adm *admission.Controller, cfg serviceConfig) (*Service, error) {
	if adv == nil || adv.Model == nil {
		return nil, fmt.Errorf("guide: a shard requires a fitted advisor")
	}
	s := &Service{adv: adv, cfg: cfg, cache: newSweepCache(cfg.maxEntries, cfg.ttl, adm), memo: newGridMemo(adv.Model)}
	if cfg.clock != nil {
		s.cache.now = cfg.clock
	}
	return s, nil
}

// Advisor returns the wrapped advisor (shared, read-only).
func (s *Service) Advisor() *Advisor { return s.adv }

// Recommend answers one STQ/BQ query, serving repeats from the cache. It is
// RecommendCtx without a caller deadline; use RecommendCtx on request paths
// so disconnects and deadlines propagate into admission.
func (s *Service) Recommend(p dataset.Problem, obj Objective) (Recommendation, error) {
	rec, _, err := s.RecommendCtx(context.Background(), p, obj)
	return rec, err
}

// RecommendCtx answers one STQ/BQ query under the caller's context. The
// context's deadline participates in admission (a sweep that cannot finish
// in time is refused up front with a *admission.ShedError) and its
// cancellation unlinks a queued request without sweeping. stale reports a
// brownout-mode degraded answer: a resident-but-expired cache entry served
// in place of the sweep the server is currently refusing.
func (s *Service) RecommendCtx(ctx context.Context, p dataset.Problem, obj Objective) (rec Recommendation, stale bool, err error) {
	q := Query{Problem: p, Objective: obj}
	return s.cache.do(ctx, q, func() (Recommendation, error) {
		return s.sweep(p, obj)
	})
}

// sweep answers a query as s.adv.Recommend does, bit for bit, but takes
// the predicted grid from the shard's grid memo when it has one. It runs in
// the admission slot on a memo hit too.
func (s *Service) sweep(p dataset.Problem, obj Objective) (Recommendation, error) {
	if s.memo == nil {
		return s.adv.Recommend(p, obj, s.cfg.oracle)
	}
	cfgs, err := s.adv.configs(p)
	if err != nil {
		return Recommendation{}, err
	}
	preds := s.memo.predict(p, func() []float64 { return s.adv.predictGrid(p, cfgs) })
	return choose(p, obj, cfgs, preds, s.cfg.oracle)
}

// PredictTime predicts the iteration seconds of one configuration.
func (s *Service) PredictTime(c dataset.Config) float64 {
	return s.adv.Model.Predict([][]float64{c.Features()})[0]
}

// Stats is a point-in-time snapshot of a cache's behavior and sweep latency:
// how often queries hit the cache, what is resident, how misses were shed
// under overload, and how long the grid sweeps behind the misses took (wall
// time of the sweep itself, excluding admission queueing).
//
// Zero-sweep contract: SweepMin/SweepMean/SweepMax are all zero until the
// first sweep completes (SweepCount == 0 means "no data", NOT "sweeps take
// 0s"). Aggregations over multiple Stats (Router.AggregateStats) must treat
// them accordingly: a zero-sweep shard contributes nothing to the aggregate
// min/mean/max rather than dragging the minimum to zero.
type Stats struct {
	Hits    uint64 // cache reads plus coalesced waits on in-flight sweeps
	Misses  uint64
	Expired uint64 // TTL-expired entries dropped and re-swept (subset of Misses' causes)
	Size    int    // resident cache entries
	Bytes   int64  // approximate resident bytes (Size × entryBytes)

	// Overload accounting. CanceledQueued counts callers that disconnected
	// while queued for a sweep slot — distinct from Expired (TTL aging) and
	// from eviction, and no sweep ever ran on their behalf. StaleServed
	// counts brownout-mode degraded answers from expired entries.
	ShedQueueFull  uint64
	ShedDeadline   uint64
	ShedBrownout   uint64
	CanceledQueued uint64
	StaleServed    uint64

	SweepCount uint64 // completed grid sweeps (including ones that errored)
	SweepMin   time.Duration
	SweepMean  time.Duration
	SweepMax   time.Duration

	// Grid-memo lookups, one per sweep that reached the model: a hit reused
	// the predicted grid of a problem in the same threshold-lattice cell, a
	// miss predicted it. Both stay zero for a model without a memo.
	MemoHits   uint64
	MemoMisses uint64
}

// merge folds another snapshot into this one for fleet-level aggregation.
// Counters sum; SweepMean is re-weighted by sweep count; SweepMin aggregates
// as the min over snapshots that completed at least one sweep (min-of-mins)
// and SweepMax as max-of-maxes, the contract pinned by the Router tests.
func (a Stats) merge(b Stats) Stats {
	out := Stats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Expired: a.Expired + b.Expired,
		Size: a.Size + b.Size, Bytes: a.Bytes + b.Bytes,
		ShedQueueFull:  a.ShedQueueFull + b.ShedQueueFull,
		ShedDeadline:   a.ShedDeadline + b.ShedDeadline,
		ShedBrownout:   a.ShedBrownout + b.ShedBrownout,
		CanceledQueued: a.CanceledQueued + b.CanceledQueued,
		StaleServed:    a.StaleServed + b.StaleServed,
		SweepCount:     a.SweepCount + b.SweepCount,
		MemoHits:       a.MemoHits + b.MemoHits,
		MemoMisses:     a.MemoMisses + b.MemoMisses,
	}
	switch {
	case a.SweepCount == 0:
		out.SweepMin = b.SweepMin
	case b.SweepCount == 0:
		out.SweepMin = a.SweepMin
	default:
		out.SweepMin = min(a.SweepMin, b.SweepMin)
	}
	out.SweepMax = max(a.SweepMax, b.SweepMax)
	if out.SweepCount > 0 {
		total := a.SweepMean*time.Duration(a.SweepCount) + b.SweepMean*time.Duration(b.SweepCount)
		out.SweepMean = total / time.Duration(out.SweepCount)
	}
	return out
}

// CacheStats reports cache hits, misses, TTL expiries, shed and stale-serve
// counts, resident entries and bytes, per-sweep wall-time min/mean/max, and
// grid-memo hits and misses.
func (s *Service) CacheStats() Stats {
	st := s.cache.stats()
	st.MemoHits, st.MemoMisses = s.memo.counts()
	return st
}
