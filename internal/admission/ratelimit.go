package admission

import (
	"sync"
	"time"

	"parcost/internal/lru"
)

// RateLimiter is a per-client token-bucket limiter keyed on an opaque
// client string. Buckets refill lazily (tokens accrue at rate/second up to
// burst, computed from the elapsed time at each Allow call — no background
// goroutine), and the resident bucket set is LRU-bounded so an open fleet
// endpoint cannot be grown without bound by unique client names. Clients
// evicted at the bound simply start a fresh (full) bucket on return — the
// bound trades a little forgiveness for a hard memory cap.
//
// A nil *RateLimiter admits everything, so callers need no feature flag.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets *lru.Cache[string, *clientBucket]
	allowed uint64
	limited uint64
}

type clientBucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter granting each client rate requests/second
// with burst capacity, keeping at most maxKeys client buckets resident.
// now must be non-nil.
func NewRateLimiter(rate, burst float64, maxKeys int, now func() time.Time) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	if maxKeys < 1 {
		maxKeys = 1
	}
	return &RateLimiter{rate: rate, burst: burst, now: now, buckets: lru.New[string, *clientBucket](maxKeys)}
}

// Allow consumes one token from key's bucket. When the bucket is empty it
// returns false plus how long until one token accrues (the Retry-After
// hint). Nil-safe: a nil limiter allows everything.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, found := l.buckets.Get(key)
	if found {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	} else {
		b = &clientBucket{tokens: l.burst, last: now}
		l.buckets.Put(key, b)
	}
	if b.tokens >= 1 {
		b.tokens--
		l.allowed++
		return true, 0
	}
	l.limited++
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// Counts reports how many requests were allowed and limited. Nil-safe.
func (l *RateLimiter) Counts() (allowed, limited uint64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.allowed, l.limited
}
