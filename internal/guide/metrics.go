package guide

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// Per-endpoint latency histograms, exported under /v1/healthz by both the
// single-process serve handler and the fleet proxy. Buckets are log-spaced
// (×2 per step) so one fixed layout resolves both sub-millisecond cache hits
// and multi-second cold sweeps without tuning. The proxy's health prober
// consumes these snapshots to score backends, so the wire types live here
// rather than in the CLI, and its hedger reads its own routes' percentiles
// from them (Metrics.Percentile).
const (
	latencyBucketCount = 20
	latencyBucketBase  = 50 * time.Microsecond // first upper bound; last finite bound ≈ 26s
)

// latencyHistogram records request durations for one route.
type latencyHistogram struct {
	mu      sync.Mutex
	count   uint64
	total   time.Duration
	buckets [latencyBucketCount]uint64 // buckets[i] counts d ≤ base·2^i; overflow only in count
}

// observe records one request duration.
func (h *latencyHistogram) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.total += d
	bound := latencyBucketBase
	for i := 0; i < latencyBucketCount; i++ {
		if d <= bound {
			h.buckets[i]++
			return
		}
		bound *= 2
	}
	// Slower than the last finite bound: counted in count/total only.
}

// LatencyBucket is one cumulative bucket: the count of requests at or under
// LeMs milliseconds.
type LatencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

// LatencySnapshot is the exported per-route view. Buckets are cumulative
// (Prometheus-style `le`); requests slower than the last finite bound appear
// in Count but in no bucket.
type LatencySnapshot struct {
	Count   uint64          `json:"count"`
	MeanMs  float64         `json:"mean_ms"`
	Buckets []LatencyBucket `json:"buckets"`
}

// snapshot renders the histogram, trimming trailing empty buckets (the
// cumulative counts make them redundant with the last populated one).
func (h *latencyHistogram) snapshot() LatencySnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySnapshot{Count: h.count}
	if h.count > 0 {
		s.MeanMs = float64(h.total) / float64(h.count) / float64(time.Millisecond)
	}
	var cum uint64
	bound := latencyBucketBase
	last := -1
	for i, n := range h.buckets {
		if n > 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		cum += h.buckets[i]
		s.Buckets = append(s.Buckets, LatencyBucket{
			LeMs:  float64(bound) / float64(time.Millisecond),
			Count: cum,
		})
		bound *= 2
	}
	return s
}

// Metrics holds one latency histogram per served route.
type Metrics struct {
	mu     sync.Mutex
	routes map[string]*latencyHistogram
	now    func() time.Time // injected clock; tests substitute a fake
}

// NewMetrics builds an empty route-metrics set.
func NewMetrics() *Metrics {
	return &Metrics{routes: make(map[string]*latencyHistogram), now: time.Now}
}

// route returns (creating if needed) the named route's histogram.
func (m *Metrics) route(name string) *latencyHistogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.routes[name]
	if !ok {
		h = &latencyHistogram{}
		m.routes[name] = h
	}
	return h
}

// Observe records one request duration against the named route.
func (m *Metrics) Observe(name string, d time.Duration) {
	m.route(name).observe(d)
}

// Percentile returns the upper bound of the bucket holding the p-th
// percentile (0 < p <= 100, nearest rank) of the named route's observations,
// and how many observations the route has. The bound is never below that
// percentile of the observations themselves. With no observations it
// returns 0; when the percentile lies past the last finite bound, the
// largest Duration. It allocates nothing.
func (m *Metrics) Percentile(route string, p float64) (time.Duration, uint64) {
	m.mu.Lock()
	h := m.routes[route]
	m.mu.Unlock()
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, 0
	}
	rank := min(max(uint64(math.Ceil(float64(h.count)*p/100)), 1), h.count)
	var cum uint64
	bound := latencyBucketBase
	for _, n := range h.buckets {
		cum += n
		if cum >= rank {
			return bound, h.count
		}
		bound *= 2
	}
	return math.MaxInt64, h.count
}

// Snapshot renders every route's histogram, keyed by route name.
func (m *Metrics) Snapshot() map[string]LatencySnapshot {
	m.mu.Lock()
	hists := make(map[string]*latencyHistogram, len(m.routes))
	for name, h := range m.routes {
		hists[name] = h
	}
	m.mu.Unlock()
	out := make(map[string]LatencySnapshot, len(hists))
	for name, h := range hists {
		out[name] = h.snapshot()
	}
	return out
}

// Instrument wraps a handler so every request's wall time lands in the named
// route's histogram.
func (m *Metrics) Instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := m.now()
		h(w, r)
		hist.observe(m.now().Sub(start))
	}
}
