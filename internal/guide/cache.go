package guide

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/lru"
)

// sweepCache is the serving cache engine shared by Service and Router: a
// bounded LRU of sweep results with coalesced concurrent misses and an
// admission-controlled bound on CPU-bound sweeps. It was extracted from
// Service so every shard of a fleet runs the same tested machinery instead
// of bespoke bookkeeping per wrapper.
//
// Bounds:
//
//   - maxEntries caps the resident entry count. Entries are fixed-size
//     structs costing the compile-time entryBytes constant, so this cap is
//     also the cache's byte bound (Stats.Bytes reports the footprint).
//   - ttl, when positive, expires entries so models retrained in place age
//     out sweeps computed against the previous model. Expiry is lazy: an
//     expired entry is dropped when its key is next queried (counted in
//     Stats.Expired) and re-swept.
//
// Sweeps run behind the shared admission.Controller: its Queue bounds both
// concurrency and waiting (deadline-infeasible or over-bound requests shed
// with structured errors, queued callers that disconnect are unlinked
// without sweeping), and its Brownout trigger flips misses into sheds —
// with resident-but-expired entries served as explicitly stale answers —
// while the server is overloaded.
//
// A cache with maxEntries == 0 is disabled: every query sweeps
// (WithCacheSize(0)).
type sweepCache struct {
	maxEntries int
	ttl        time.Duration
	adm        *admission.Controller // bounds sweeps; shared across Router shards
	now        func() time.Time      // injectable clock for TTL tests

	// Guarded by mu. The mutex is never held across a sweep: misses
	// register an inflight entry and release it, so hits stay O(1) while a
	// sweep runs.
	mu       sync.Mutex
	entries  *lru.Cache[Query, cacheEntry]
	inflight map[Query]*inflightCall
	hits     uint64
	misses   uint64
	expired  uint64

	// Shed accounting (see Stats): how this shard's misses were refused.
	shedQueueFull  uint64
	shedDeadline   uint64
	shedBrownout   uint64
	canceledQueued uint64
	staleServed    uint64

	// Per-sweep wall-time accounting (miss path only; hits and coalesced
	// waits are not sweeps).
	sweepCount uint64
	sweepTotal time.Duration
	sweepMin   time.Duration
	sweepMax   time.Duration
}

// cacheEntry is one resident sweep result. expires is the zero Time when the
// cache has no TTL.
type cacheEntry struct {
	rec     Recommendation
	expires time.Time
}

// inflightCall coalesces concurrent misses on the same key.
type inflightCall struct {
	done chan struct{}
	rec  Recommendation
	err  error
}

// entryBytes approximates the resident footprint of one cache entry: the
// entry with the key the LRU keeps beside it, its list element, and a flat
// allowance for its share of the LRU's map bucket (key + element pointer +
// bucket overhead). Query and Recommendation are fixed-size value structs,
// so this is exact up to the map allowance.
const entryBytes = int64(unsafe.Sizeof(cacheEntry{})+2*unsafe.Sizeof(Query{})+unsafe.Sizeof(list.Element{})) + 16

// newSweepCache builds a cache of at most maxEntries entries (0 disables
// it) sharing the given admission controller.
func newSweepCache(maxEntries int, ttl time.Duration, adm *admission.Controller) *sweepCache {
	c := &sweepCache{
		maxEntries: maxEntries,
		ttl:        ttl,
		adm:        adm,
		now:        time.Now,
		entries:    lru.New[Query, cacheEntry](maxEntries),
		inflight:   make(map[Query]*inflightCall),
	}
	return c
}

// enabled reports whether results are retained at all.
func (c *sweepCache) enabled() bool { return c.maxEntries > 0 }

// do answers one query: cache hit, coalesced wait on an in-flight sweep, or
// a fresh sweep behind admission control. sweep runs WITHOUT the cache lock
// held. stale is true only for a resident-but-expired entry served during
// brownout — the degraded-answer contract — and such answers are never
// re-inserted as fresh. A shed returns a *admission.ShedError; a caller
// whose ctx ends while coalesced or queued gets its context error.
func (c *sweepCache) do(ctx context.Context, q Query, sweep func() (Recommendation, error)) (rec Recommendation, stale bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries.Get(q); ok {
		if e.expires.IsZero() || c.now().Before(e.expires) {
			c.hits++
			c.mu.Unlock()
			return e.rec, false, nil
		}
		if c.adm.BrownoutActive() {
			// Brownout: a stale answer NOW beats a shed, and re-sweeping is
			// exactly the work brownout exists to refuse. The entry stays
			// resident (and most recently used) for the next degraded hit.
			c.staleServed++
			c.mu.Unlock()
			return e.rec, true, nil
		}
		// Stale under TTL: drop it and fall through to the miss path so the
		// caller re-sweeps against the current model.
		c.entries.Remove(q)
		c.expired++
	}
	if call, ok := c.inflight[q]; ok {
		// Another goroutine is already sweeping this key; share its result.
		c.hits++
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.rec, false, call.err
		case <-ctx.Done():
			return Recommendation{}, false, ctx.Err()
		}
	}
	if !c.adm.AllowSweep() {
		c.shedBrownout++
		c.mu.Unlock()
		return Recommendation{}, false, c.adm.ShedBrownout()
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[q] = call
	c.misses++
	c.mu.Unlock()

	// Admission before work: the bounded queue grants a sweep slot, sheds
	// requests whose deadline the measured sweep time cannot meet, and
	// unlinks this caller if ctx ends while it waits — the sweep never
	// starts on a disconnected caller's behalf. A refusal is broadcast to
	// every coalesced waiter (they would have shared the sweep; they share
	// its refusal) and the key is unregistered so the next arrival retries.
	release, aerr := c.adm.Queue.Acquire(ctx)
	if aerr != nil {
		call.err = aerr
		close(call.done)
		c.mu.Lock()
		delete(c.inflight, q)
		var shed *admission.ShedError
		if errors.As(aerr, &shed) {
			switch shed.Reason {
			case admission.ReasonQueueFull:
				c.shedQueueFull++
			case admission.ReasonDeadline:
				c.shedDeadline++
			case admission.ReasonAbandoned:
				c.canceledQueued++
			}
		}
		c.mu.Unlock()
		return Recommendation{}, false, aerr
	}

	// The sweep itself runs in the granted slot, so total CPU-bound grid
	// sweeps stay bounded no matter how many callers, batches, or Router
	// shards are in flight (cache hits and coalesced waits never take a
	// slot). A panicking sweep must still release the waiters with an
	// error and unregister the key — otherwise every later query for it
	// would block forever — and then propagate to this caller.
	var panicked any
	var sweepT time.Duration
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				call.err = fmt.Errorf("guide: sweep for %v/%v panicked: %v", q.Problem, q.Objective, r)
			}
		}()
		start := c.now()
		call.rec, call.err = sweep()
		sweepT = c.now().Sub(start)
	}()
	if panicked != nil {
		release(0) // a panic's duration must not poison the estimate
	} else {
		release(sweepT)
	}
	close(call.done)

	c.mu.Lock()
	delete(c.inflight, q)
	if panicked == nil {
		// Record the sweep's wall time (queueing excluded, so the numbers
		// reflect sweep cost, not waiting under load).
		c.sweepCount++
		c.sweepTotal += sweepT
		if c.sweepCount == 1 || sweepT < c.sweepMin {
			c.sweepMin = sweepT
		}
		if sweepT > c.sweepMax {
			c.sweepMax = sweepT
		}
	}
	if call.err == nil && c.enabled() {
		// Put also replaces the entry of a benign same-key race.
		var expires time.Time
		if c.ttl > 0 {
			expires = c.now().Add(c.ttl)
		}
		c.entries.Put(q, cacheEntry{rec: call.rec, expires: expires})
	}
	c.mu.Unlock()
	if panicked != nil {
		panic(panicked)
	}
	return call.rec, false, call.err
}

// hotKeys returns up to n resident keys in heat order (most recently used
// first); n <= 0 returns all. Expired entries are skipped — persisting a key
// whose sweep already aged out would pre-sweep stale traffic at load.
func (c *sweepCache) hotKeys(n int) []Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Query, 0, c.entries.Len())
	now := c.now()
	for q, e := range c.entries.All() {
		if n > 0 && len(keys) == n {
			break
		}
		if !e.expires.IsZero() && !now.Before(e.expires) {
			continue
		}
		keys = append(keys, q)
	}
	return keys
}

// stats snapshots the cache counters.
func (c *sweepCache) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Hits: c.hits, Misses: c.misses, Expired: c.expired,
		Size: c.entries.Len(), Bytes: int64(c.entries.Len()) * entryBytes,
		ShedQueueFull: c.shedQueueFull, ShedDeadline: c.shedDeadline,
		ShedBrownout: c.shedBrownout, CanceledQueued: c.canceledQueued,
		StaleServed: c.staleServed,
		SweepCount:  c.sweepCount, SweepMin: c.sweepMin, SweepMax: c.sweepMax,
	}
	if c.sweepCount > 0 {
		st.SweepMean = c.sweepTotal / time.Duration(c.sweepCount)
	}
	return st
}

// Query identifies one STQ/BQ question.
type Query struct {
	Problem   dataset.Problem
	Objective Objective
}
