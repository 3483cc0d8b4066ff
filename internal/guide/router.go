package guide

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"parcost/internal/admission"
	"parcost/internal/dataset"
)

// Router serves a fleet of per-machine advisors behind one Recommend API.
// Each shard is a full Service (bounded sweep cache, coalesced misses), and
// every shard shares ONE admission controller owned by the Router — a
// bounded, deadline-aware queue in front of the fleet's sweep slots plus
// optional brownout shedding — so the fleet's total CPU-bound grid sweeps
// stay bounded no matter how queries distribute across machines, and
// overload is refused with structured errors instead of unbounded queueing.
//
// Shards can be added and removed while queries are in flight (hot
// retrain-in-place: fit a new advisor, SwapShard it in under the old name). A
// removed shard's in-flight sweeps complete on the detached Service;
// subsequent queries for its machine fail with an unknown-machine error.
type Router struct {
	adm *admission.Controller // fleet-wide admission, shared by every shard

	mu     sync.RWMutex
	shards map[string]*Service
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithSweepLimit bounds the fleet's total concurrent grid sweeps to n
// (default GOMAXPROCS). The bound spans every shard: a batch hammering one
// machine cannot starve the CPU out from under the others past this limit.
// Overridden by WithAdmission, which sets the full controller.
func WithSweepLimit(n int) RouterOption {
	return func(r *Router) {
		if n < 1 {
			n = 1
		}
		r.adm = admission.NewController(admission.ControllerConfig{Capacity: n})
	}
}

// WithAdmission installs a fully configured admission controller (queue
// bound, brownout trigger, rate limiter) as the fleet-wide overload policy.
func WithAdmission(adm *admission.Controller) RouterOption {
	return func(r *Router) {
		if adm != nil {
			r.adm = adm
		}
	}
}

// NewRouter builds an empty fleet router.
func NewRouter(opts ...RouterOption) *Router {
	r := &Router{shards: make(map[string]*Service)}
	for _, opt := range opts {
		opt(r)
	}
	if r.adm == nil {
		r.adm = NewAdmissionController(admission.ControllerConfig{})
	}
	return r
}

// Admission returns the fleet-wide admission controller.
func (r *Router) Admission() *admission.Controller { return r.adm }

// AddShard registers (or hot-replaces) the Service answering queries for a
// machine. The shard is built with the Router's shared admission controller;
// the given options configure its oracle and cache bounds, and stay with the
// machine across SwapShard. Replacing an existing shard swaps atomically:
// queries either see the old Service or the new one, never a gap.
func (r *Router) AddShard(machine string, adv *Advisor, opts ...ServiceOption) error {
	if machine == "" {
		return fmt.Errorf("guide: AddShard requires a machine name")
	}
	svc, err := newService(adv, r.adm, newServiceConfig(opts...))
	if err != nil {
		return fmt.Errorf("guide: shard %q: %w", machine, err)
	}
	r.mu.Lock()
	r.shards[machine] = svc
	r.mu.Unlock()
	return nil
}

// SwapShard hot-replaces a machine's shard with a freshly fitted advisor.
// The new Service keeps the outgoing shard's oracle and cache settings, so
// promotion, rollback and resume never change how a machine's queries are
// pruned or cached; a machine with no current shard gets the defaults (no
// oracle), as AddShard without options would give it.
//
// The outgoing shard's warm set is carried forward: the hottest warmLimit
// cache keys of the old Service (warmLimit <= 0: all resident keys) are
// pre-swept through the NEW service BEFORE it is installed, so promotion has
// no cold-cache window — queries keep landing on the old shard until the new
// one is warm, then cut over atomically. Returns how many keys were warmed
// (a key whose sweep fails on the new advisor is skipped, not fatal).
// Retrain promotion and rollback are both this call, in opposite directions.
//
// Two concurrent SwapShards on the same machine are last-install-wins; the
// retrain controller serializes its own promote/rollback, so this only
// matters for callers driving swaps by hand.
func (r *Router) SwapShard(machine string, adv *Advisor, warmLimit int) (int, error) {
	if machine == "" {
		return 0, fmt.Errorf("guide: SwapShard requires a machine name")
	}
	r.mu.RLock()
	old := r.shards[machine]
	r.mu.RUnlock()
	cfg := newServiceConfig()
	if old != nil {
		cfg = old.cfg
	}
	svc, err := newService(adv, r.adm, cfg)
	if err != nil {
		return 0, fmt.Errorf("guide: shard %q: %w", machine, err)
	}
	warmed := 0
	if old != nil {
		// Warm sweeps run on the incoming service (bounded by the shared
		// fleet admission queue) while the outgoing one still answers
		// queries; under brownout they shed like any other miss, which is
		// the right priority — warming is deferrable work.
		for _, q := range old.cache.hotKeys(warmLimit) {
			if _, err := svc.Recommend(q.Problem, q.Objective); err == nil {
				warmed++
			}
		}
	}
	r.mu.Lock()
	r.shards[machine] = svc
	r.mu.Unlock()
	return warmed, nil
}

// RemoveShard unregisters a machine's shard, reporting whether it existed.
// In-flight queries on the removed Service complete normally.
func (r *Router) RemoveShard(machine string) bool {
	r.mu.Lock()
	_, ok := r.shards[machine]
	delete(r.shards, machine)
	r.mu.Unlock()
	return ok
}

// Shard resolves a machine name to its Service. The empty name is allowed
// when the fleet has exactly one shard — the single-machine deployment keeps
// working without callers naming it — and is an error otherwise.
func (r *Router) Shard(machine string) (*Service, error) {
	_, svc, err := r.ResolveShard(machine)
	return svc, err
}

// ResolveShard is Shard plus the concrete machine name the query landed on,
// so a caller echoing the machine in a response reports the shard that
// actually answered — a defaulted empty name resolves here, atomically with
// the lookup, rather than being re-derived later when a concurrent
// AddShard/RemoveShard may have changed the fleet.
func (r *Router) ResolveShard(machine string) (string, *Service, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if machine == "" {
		if len(r.shards) == 1 {
			for name, svc := range r.shards {
				return name, svc, nil
			}
		}
		return "", nil, fmt.Errorf("guide: machine is required with %d shards (have %v)", len(r.shards), r.machinesLocked())
	}
	svc, ok := r.shards[machine]
	if !ok {
		return "", nil, fmt.Errorf("guide: no shard for machine %q (have %v)", machine, r.machinesLocked())
	}
	return machine, svc, nil
}

// Machines lists the registered shard names, sorted.
func (r *Router) Machines() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.machinesLocked()
}

func (r *Router) machinesLocked() []string {
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Recommend answers one STQ/BQ query routed to a machine's shard. An empty
// machine resolves only in a one-shard fleet (see Shard).
func (r *Router) Recommend(machine string, p dataset.Problem, obj Objective) (Recommendation, error) {
	rec, _, err := r.RecommendCtx(context.Background(), machine, p, obj)
	return rec, err
}

// RecommendCtx routes one query under the caller's context: the deadline
// participates in admission and cancellation unlinks a queued sweep. stale
// reports a brownout-degraded answer (see Service.RecommendCtx).
func (r *Router) RecommendCtx(ctx context.Context, machine string, p dataset.Problem, obj Objective) (Recommendation, bool, error) {
	svc, err := r.Shard(machine)
	if err != nil {
		return Recommendation{}, false, err
	}
	return svc.RecommendCtx(ctx, p, obj)
}

// RoutedQuery is one fleet batch item: a query plus the machine whose model
// should answer it.
type RoutedQuery struct {
	Machine string
	Query   Query
}

// RoutedResult pairs a routed query with its answer. Machine is the
// RESOLVED shard name — for a query whose empty machine defaulted to a
// one-shard fleet, it names that shard, not "". Stale marks a
// brownout-degraded answer.
type RoutedResult struct {
	RoutedQuery
	Rec   Recommendation
	Stale bool
	Err   error
}

// RecommendBatch answers a mixed-machine query list concurrently, returning
// results in input order. Shards are resolved once up front (so a
// mid-batch RemoveShard affects at most later batches, not this one's
// routing), then items fan across a bounded worker pool; sweeps themselves
// are additionally bounded by the fleet-wide admission queue.
func (r *Router) RecommendBatch(queries []RoutedQuery) []RoutedResult {
	return r.RecommendBatchCtx(context.Background(), queries)
}

// RecommendBatchCtx is RecommendBatch under a caller context: the deadline
// and cancellation propagate into every entry's admission.
func (r *Router) RecommendBatchCtx(ctx context.Context, queries []RoutedQuery) []RoutedResult {
	out := make([]RoutedResult, len(queries))
	svcs := make([]*Service, len(queries))
	for i, rq := range queries {
		out[i].RoutedQuery = rq
		var name string
		name, svcs[i], out[i].Err = r.ResolveShard(rq.Machine)
		if out[i].Err == nil {
			out[i].Machine = name
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := out[i].Query
				out[i].Rec, out[i].Stale, out[i].Err = svcs[i].RecommendCtx(ctx, q.Problem, q.Objective)
			}
		}()
	}
	for i := range out {
		if out[i].Err != nil { // unresolvable machine; don't dispatch
			continue
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// ShardStats snapshots every shard's cache stats, keyed by machine.
func (r *Router) ShardStats() map[string]Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Stats, len(r.shards))
	for name, svc := range r.shards {
		out[name] = svc.CacheStats()
	}
	return out
}

// AggregateStats folds every shard's snapshot into one fleet-level view.
// Counters (hits, misses, expiries, sizes, bytes, sweep counts) sum;
// SweepMean is weighted by per-shard sweep count; SweepMin is the
// min-of-mins over shards that completed at least one sweep and SweepMax the
// max-of-maxes — a shard that has never swept contributes nothing, so an
// idle shard cannot drag the fleet minimum to zero.
func (r *Router) AggregateStats() Stats {
	// merge folds float fields (SweepMean weighting), so accumulate in sorted
	// shard order to keep the aggregate bit-identical across runs.
	stats := r.ShardStats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var agg Stats
	for _, name := range names {
		agg = agg.merge(stats[name])
	}
	return agg
}

// Warm sets persist the fleet's hottest cache keys so a restarted (or
// freshly retrained) service can pre-sweep them before traffic arrives,
// instead of paying cold-sweep latency on the first burst. Export/Import and
// Encode/Decode are the in-memory and wire halves of that primitive, so the
// fleet proxy can drain a live backend — export its warm set over HTTP and
// replay it into the replacement — without either process touching a shared
// filesystem; SaveWarmSet/LoadWarmSet are the file-backed wrappers the serve
// daemon uses across restarts.
const (
	warmSetFormat  = "parcost-warmset"
	warmSetVersion = 1
)

type warmSetFile struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Entries []WarmKey `json:"entries"`
}

// WarmKey is one warm-set entry: a machine and the query whose sweep result
// was hot in its shard's cache.
type WarmKey struct {
	Machine   string `json:"machine"`
	O         int    `json:"o"`
	V         int    `json:"v"`
	Objective string `json:"objective"` // "STQ" or "BQ"
}

// WarmSet is a fleet's hottest cache keys, in per-shard heat order.
type WarmSet struct {
	Entries []WarmKey
}

// ExportWarmSet snapshots every shard's resident, unexpired cache keys in
// heat order (most recently used first). limit caps the keys exported per
// shard; limit <= 0 exports all resident keys.
func (r *Router) ExportWarmSet(limit int) WarmSet {
	r.mu.RLock()
	names := r.machinesLocked()
	shards := make(map[string]*Service, len(r.shards))
	for name, svc := range r.shards {
		shards[name] = svc
	}
	r.mu.RUnlock()

	var ws WarmSet
	for _, name := range names {
		for _, q := range shards[name].cache.hotKeys(limit) {
			ws.Entries = append(ws.Entries, WarmKey{
				Machine: name, O: q.Problem.O, V: q.Problem.V, Objective: q.Objective.String(),
			})
		}
	}
	return ws
}

// ImportWarmSet pre-sweeps a warm set's keys through the current fleet,
// returning how many keys were warmed. Keys naming machines the fleet does
// not serve are skipped (fleet composition may have changed between export
// and import); a key whose sweep fails is counted as skipped too. Sweeps run
// through RecommendBatch, so warming is parallel but still bounded by the
// fleet-wide semaphore. A key with an unrecognized objective is an error:
// it means the set was hand-built rather than exported, and silently
// dropping it would hide the corruption.
func (r *Router) ImportWarmSet(ws WarmSet) (int, error) {
	queries := make([]RoutedQuery, 0, len(ws.Entries))
	for _, it := range ws.Entries {
		var obj Objective
		switch it.Objective {
		case "STQ":
			obj = ShortestTime
		case "BQ":
			obj = Budget
		default:
			return 0, fmt.Errorf("guide: warm set objective %q not recognized", it.Objective)
		}
		queries = append(queries, RoutedQuery{
			Machine: it.Machine,
			Query:   Query{Problem: dataset.Problem{O: it.O, V: it.V}, Objective: obj},
		})
	}
	warmed := 0
	for _, res := range r.RecommendBatch(queries) {
		if res.Err == nil {
			warmed++
		}
	}
	return warmed, nil
}

// EncodeWarmSet renders a warm set in its versioned wire format.
func EncodeWarmSet(ws WarmSet) ([]byte, error) {
	return json.MarshalIndent(warmSetFile{
		Format: warmSetFormat, Version: warmSetVersion, Entries: ws.Entries,
	}, "", "  ")
}

// DecodeWarmSet parses and validates the versioned warm-set wire format.
func DecodeWarmSet(data []byte) (WarmSet, error) {
	var ws warmSetFile
	if err := json.Unmarshal(data, &ws); err != nil {
		return WarmSet{}, fmt.Errorf("guide: malformed warm set: %w", err)
	}
	if ws.Format != warmSetFormat {
		return WarmSet{}, fmt.Errorf("guide: warm set format %q, want %q", ws.Format, warmSetFormat)
	}
	if ws.Version != warmSetVersion {
		return WarmSet{}, fmt.Errorf("guide: warm set version %d not supported (reader handles %d)", ws.Version, warmSetVersion)
	}
	return WarmSet{Entries: ws.Entries}, nil
}

// SaveWarmSet writes every shard's resident, unexpired cache keys in heat
// order (most recently used first) to path. limit caps the keys saved per
// shard; limit <= 0 saves all resident keys.
func (r *Router) SaveWarmSet(path string, limit int) error {
	data, err := EncodeWarmSet(r.ExportWarmSet(limit))
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadWarmSet reads a warm set file and pre-sweeps its keys through the
// current fleet (see ImportWarmSet), returning how many keys were warmed.
func (r *Router) LoadWarmSet(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	ws, err := DecodeWarmSet(data)
	if err != nil {
		return 0, err
	}
	return r.ImportWarmSet(ws)
}
