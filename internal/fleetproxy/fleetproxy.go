// Package fleetproxy turns N independent `parcost serve` processes into one
// fault-tolerant fleet endpoint speaking the identical /v1 wire contract.
//
// Routing: consistent hashing on the request's machine key maps every query
// to a primary backend plus a deterministic replica order for failover
// (ring.go), so each machine's sweep cache concentrates on one backend while
// any replica can answer when it is down.
//
// Robustness is layered per request: a per-request deadline bounds every
// attempt; connection failures and 5xx answers retry on the next replica
// with exponential backoff plus jitter; a slow primary gets a hedged
// duplicate on the best replica once it exceeds the hedge threshold (a
// fixed delay, or a percentile of the route's request latencies read from
// the proxy's own histogram since start, at log-2 bucket resolution); and a
// per-backend circuit breaker stops hammering a dead host.
//
// Circuit breaker state machine (breaker.go):
//
//	          threshold consecutive failures
//	CLOSED ─────────────────────────────────▶ OPEN
//	  ▲                                        │ window elapses
//	  │ success (trial request                 ▼
//	  │ or health probe)                   HALF-OPEN
//	  └──────────────────────────────────────┘ │
//	               ▲                           │ trial/probe fails
//	               └───────────────────────────┘ (re-opens, full window)
//
// While OPEN the proxy rejects the backend without touching it; recovery is
// probe-driven — the background health prober (prober.go) keeps hitting
// /v1/healthz, and its first success closes the breaker, so a recovered
// backend rejoins without waiting for live traffic to risk a trial.
//
// Graceful degradation is explicit policy: when a machine's primary and
// every replica are unavailable, the proxy answers from a small stale
// response cache — the body re-marked "degraded": true and the response
// carrying X-Parcost-Degraded — or, with nothing cached, returns a
// structured 503 with Retry-After. It never hangs: every path is bounded by
// the request deadline.
//
// Shard migration reuses the warm-set primitive: Drain exports a live
// backend's hottest sweep keys over GET /v1/warmset, removes it from the
// ring, and replays each machine's keys into its new primary via POST
// /v1/warmset.
package fleetproxy

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"parcost/internal/admission"
	"parcost/internal/guide"
	"parcost/internal/rng"
)

// Config configures a Proxy. Zero fields take the documented defaults.
type Config struct {
	// Backends are the `parcost serve` endpoints, as host:port or full URLs.
	Backends []string

	// Retries bounds the additional sequential attempts after the first
	// (default 2). Each retry targets the next backend in the key's failover
	// order after backoff with jitter.
	Retries int

	// RetryBudget bounds fleet-wide retry amplification: retries AND hedges
	// draw from one token bucket that earns RetryBudget tokens per initial
	// proxied request (default 0.2, i.e. at most ~20% extra backend load in
	// steady state, plus a small startup burst). When a brownout makes every
	// backend slow or failing, the per-request retry ladder would otherwise
	// multiply offered QPS by 1+Retries exactly when the fleet can least
	// afford it. Negative disables the budget (unbounded, pre-budget
	// behavior).
	RetryBudget float64

	// RetryBackoff is the base backoff before the first retry, doubling per
	// subsequent retry; each wait keeps half its value and draws the other
	// half as jitter (admission.Backoff; default 10ms).
	RetryBackoff time.Duration

	// Hedge says when to duplicate a slow request onto the next replica
	// (default the 95th percentile of the route's request-latency histogram
	// since start, read at log-2 bucket resolution).
	Hedge HedgeSpec

	// RequestTimeout is the per-attempt deadline (default 30s).
	RequestTimeout time.Duration

	// BreakerWindow and BreakerFailures configure every backend's circuit
	// breaker: BreakerFailures consecutive failures trip it open, and it
	// stays open for BreakerWindow before admitting trials (defaults 10s, 5).
	BreakerWindow   time.Duration
	BreakerFailures int

	// ProbeInterval and ProbeTimeout drive the background health prober
	// (defaults 2s, 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// StaleCacheSize bounds the degradation cache in entries (default 256;
	// negative disables degradation, answering total outages with 503 only).
	StaleCacheSize int

	// MaxBodyBytes caps accepted request bodies (default 1 MiB).
	MaxBodyBytes int64

	// RingReplicas is the virtual-node count per backend (default 64).
	RingReplicas int

	// Transport overrides the upstream transport (tests; default pooled).
	Transport http.RoundTripper

	// Now overrides the clock (tests; default time.Now).
	Now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.Hedge == (HedgeSpec{}) {
		c.Hedge = HedgeSpec{Percentile: 95}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.StaleCacheSize == 0 {
		c.StaleCacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RingReplicas <= 0 {
		c.RingReplicas = 64
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{MaxIdleConnsPerHost: 32}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// backendState is one backend's live view: breaker and prober-maintained
// health and score.
type backendState struct {
	url     string
	breaker *breaker

	mu        sync.Mutex
	healthy   bool
	score     float64
	lastProbe time.Time
}

func (b *backendState) setProbe(healthy bool, score float64, at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy = healthy
	b.lastProbe = at
	if healthy {
		b.score = score
	}
}

func (b *backendState) snapshot() (healthy bool, score float64, lastProbe time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.score, b.lastProbe
}

// Proxy is the fleet frontend. Build with New, optionally Start the health
// prober, mount Handler, and Close when done.
type Proxy struct {
	cfg     Config
	client  *http.Client
	metrics *guide.Metrics // per-route request latency: /metrics, healthz and hedging
	stale   *staleCache
	budget  *admission.RetryBudget // nil when RetryBudget < 0 (unbounded)

	mu       sync.RWMutex
	ring     *hashRing
	backends map[string]*backendState

	// Retry jitter draws from the sanctioned internal/rng rather than the
	// global math/rand state. The fixed seed is deliberate: jitter only has
	// to decorrelate THIS process's retries from its own backoff ladder, and
	// a deterministic stream keeps fault-injection tests replayable.
	jitterMu sync.Mutex
	jitter   *rng.Source

	stopOnce sync.Once
	stop     chan struct{}
	probers  sync.WaitGroup
}

// normalizeBackend turns host:port into a full http URL and strips any
// trailing slash so ring membership and map keys agree.
func normalizeBackend(s string) string {
	s = strings.TrimSuffix(strings.TrimSpace(s), "/")
	if s == "" {
		return s
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// retryBudgetBurst is the retry budget's startup credit: enough tokens to
// ride out a brief blip without waiting for deposits, small enough that a
// sustained outage exhausts it within a handful of requests.
const retryBudgetBurst = 10

// New builds a Proxy over the configured backends.
func New(cfg Config) (*Proxy, error) {
	cfg.applyDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleetproxy: at least one backend is required")
	}
	p := &Proxy{
		cfg:      cfg,
		client:   &http.Client{Transport: cfg.Transport},
		metrics:  guide.NewMetrics(),
		stale:    newStaleCache(cfg.StaleCacheSize),
		backends: make(map[string]*backendState, len(cfg.Backends)),
		jitter:   rng.New(0x70726f7879), // "proxy"
		stop:     make(chan struct{}),
	}
	if cfg.RetryBudget > 0 {
		p.budget = admission.NewRetryBudget(cfg.RetryBudget, retryBudgetBurst)
	}
	urls := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u := normalizeBackend(raw)
		if u == "" {
			return nil, fmt.Errorf("fleetproxy: empty backend address in %v", cfg.Backends)
		}
		if _, err := url.Parse(u); err != nil { // no request to it could be built
			return nil, fmt.Errorf("fleetproxy: backend address %q: %w", raw, err)
		}
		if _, dup := p.backends[u]; dup {
			return nil, fmt.Errorf("fleetproxy: backend %s listed twice", u)
		}
		p.backends[u] = &backendState{
			url:     u,
			breaker: newBreaker(cfg.BreakerWindow, cfg.BreakerFailures, cfg.Now),
			healthy: true, // optimistic until the first probe says otherwise
			score:   1,
		}
		urls = append(urls, u)
	}
	p.ring = newHashRing(urls, cfg.RingReplicas)
	return p, nil
}

// Backends lists the current backend URLs, sorted.
func (p *Proxy) Backends() []string {
	var out []string
	for _, b := range p.backendList() {
		out = append(out, b.url)
	}
	return out
}

// backendList snapshots the current backends in URL order.
func (p *Proxy) backendList() []*backendState {
	p.mu.RLock()
	out := make([]*backendState, 0, len(p.backends))
	for _, b := range p.backends {
		out = append(out, b)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// Close stops the health prober and idle upstream connections.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.probers.Wait()
	if t, ok := p.cfg.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// candidates resolves a machine key to its failover-ordered backends,
// excluding those whose breaker is open. The primary (when admitted) stays
// first for cache locality; the replicas behind it are reordered best
// health-score first, so failover and hedges land on the fastest healthy
// host. An empty result means every backend for the key is unavailable —
// the caller degrades rather than hanging.
func (p *Proxy) candidates(key string) []*backendState {
	p.mu.RLock()
	ring := p.ring
	backends := p.backends
	p.mu.RUnlock()

	var out []*backendState
	for _, u := range ring.order(key) {
		b, ok := backends[u]
		if !ok || !b.breaker.Allow() {
			continue
		}
		out = append(out, b)
	}
	if len(out) > 2 {
		replicas := out[1:]
		sort.SliceStable(replicas, func(i, j int) bool {
			_, si, _ := replicas[i].snapshot()
			_, sj, _ := replicas[j].snapshot()
			return si > sj
		})
	}
	return out
}

// backendFor resolves a normalized URL to its state (nil if unknown).
func (p *Proxy) backendFor(url string) *backendState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.backends[url]
}

// A percentile hedge waits defaultHedgeFloor until its route has
// hedgeMinSamples observations; below that the estimate is noise.
const (
	defaultHedgeFloor = 50 * time.Millisecond
	hedgeMinSamples   = 16
)

// hedgeDelay resolves the hedge spec for one route ("recommend", "batch",
// ...) from that route's own latency histogram.
func (p *Proxy) hedgeDelay(route string) time.Duration {
	var d time.Duration
	switch {
	case p.cfg.Hedge.Fixed > 0:
		d = p.cfg.Hedge.Fixed
	case p.cfg.Hedge.Percentile > 0:
		var n uint64
		d, n = p.metrics.Percentile(route, p.cfg.Hedge.Percentile)
		if n < hedgeMinSamples {
			d = defaultHedgeFloor
		}
	default:
		return p.cfg.RequestTimeout
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > p.cfg.RequestTimeout {
		d = p.cfg.RequestTimeout
	}
	return d
}

// backoff returns the sleep before sequential retry n (1-based):
// admission.Backoff over RetryBackoff, capped at one second so failover
// across a dead fleet stays far under the request deadline.
func (p *Proxy) backoff(n int) time.Duration {
	p.jitterMu.Lock()
	u := p.jitter.Float64()
	p.jitterMu.Unlock()
	return admission.Backoff(n, p.cfg.RetryBackoff, time.Second, u)
}

// Drain migrates a backend out of the fleet: its warm set (hottest sweep
// keys per machine) is exported over GET /v1/warmset, the backend is removed
// from the ring, and each machine's keys are replayed into the backend now
// primary for it via POST /v1/warmset. Returns how many keys the successors
// warmed. The export must succeed before anything is removed — a dead
// backend needs no drain (the breaker and prober already route around it,
// and there is no cache left to hand off).
func (p *Proxy) Drain(ctx context.Context, backendURL string) (int, error) {
	u := normalizeBackend(backendURL)
	b := p.backendFor(u)
	if b == nil {
		return 0, fmt.Errorf("fleetproxy: unknown backend %s (have %v)", u, p.Backends())
	}
	p.mu.RLock()
	last := len(p.backends) == 1
	p.mu.RUnlock()
	if last {
		return 0, fmt.Errorf("fleetproxy: refusing to drain the last backend %s", u)
	}

	res, err := p.roundTrip(ctx, http.MethodGet, u+"/v1/warmset", nil)
	if err != nil {
		return 0, fmt.Errorf("fleetproxy: warm-set export from %s: %w", u, err)
	}
	if res.status != http.StatusOK {
		return 0, fmt.Errorf("fleetproxy: warm-set export from %s: status %d", u, res.status)
	}
	ws, err := guide.DecodeWarmSet(res.body)
	if err != nil {
		return 0, fmt.Errorf("fleetproxy: warm-set export from %s: %w", u, err)
	}

	// Remove from the ring first so successor resolution below sees the
	// post-drain topology, and new traffic stops landing on the leaver.
	p.mu.Lock()
	delete(p.backends, u)
	p.ring = p.ring.without(u)
	ring := p.ring
	p.mu.Unlock()

	// Replay each machine's keys into its new primary.
	groups := make(map[string][]guide.WarmKey)
	for _, k := range ws.Entries {
		succ := ring.primary(k.Machine)
		if succ == "" {
			continue
		}
		groups[succ] = append(groups[succ], k)
	}
	// Replay in sorted successor order so the warmed count's partial value
	// on error — and which error is reported first — never depends on map
	// iteration order.
	succs := make([]string, 0, len(groups))
	for succ := range groups {
		succs = append(succs, succ)
	}
	sort.Strings(succs)
	warmed := 0
	var firstErr error
	for _, succ := range succs {
		keys := groups[succ]
		data, err := guide.EncodeWarmSet(guide.WarmSet{Entries: keys})
		if err != nil {
			return warmed, err
		}
		res, err := p.roundTrip(ctx, http.MethodPost, succ+"/v1/warmset", data)
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", res.status, res.body)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleetproxy: warm-set replay into %s: %w", succ, err)
			}
			continue
		}
		var out struct {
			Warmed int `json:"warmed"`
		}
		if json.Unmarshal(res.body, &out) == nil {
			warmed += out.Warmed
		}
	}
	return warmed, firstErr
}
