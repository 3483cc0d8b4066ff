package fleetproxy

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Graceful-degradation machinery: a small LRU of the proxy's own successful
// responses, replayed (marked "degraded": true) when a machine's primary and
// every replica are unavailable, plus the latency reservoir that feeds the
// hedging threshold.

// upstream is one backend response the proxy relays or caches.
type upstream struct {
	status      int
	contentType string
	body        []byte
}

// staleCache is a bounded LRU of 200-status responses keyed by
// (path, request body). It exists only to answer total-outage reads with
// explicitly-marked stale data instead of an error or a hang.
type staleCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently stored/refreshed
	entries map[string]*list.Element
}

type staleEntry struct {
	key    string
	res    upstream
	stored time.Time
}

func newStaleCache(max int) *staleCache {
	if max <= 0 {
		return nil // degradation cache disabled
	}
	return &staleCache{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *staleCache) put(key string, res upstream, now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = &staleEntry{key: key, res: res, stored: now}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&staleEntry{key: key, res: res, stored: now})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*staleEntry).key)
	}
}

func (c *staleCache) get(key string) (upstream, time.Time, bool) {
	if c == nil {
		return upstream{}, time.Time{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return upstream{}, time.Time{}, false
	}
	e := el.Value.(*staleEntry)
	return e.res, e.stored, true
}

func staleKey(path string, body []byte) string {
	return path + "\x00" + string(body)
}

// degradedBody marks a cached JSON object body as stale. A body that is not
// a JSON object (never produced by the serve endpoints) passes through
// unmarked rather than failing the degraded answer too.
func degradedBody(body []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	m["degraded"] = true
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// HedgeSpec says when to send a hedged duplicate of a slow request to the
// next replica: after a percentile of the proxy's recently observed forward
// latencies ("95p"), after a fixed delay ("250ms"), or never ("off").
type HedgeSpec struct {
	Percentile float64       // (0,100]; active when > 0
	Fixed      time.Duration // active when > 0
	Disabled   bool
}

// ParseHedge parses the -hedge-after flag syntax.
func ParseHedge(s string) (HedgeSpec, error) {
	switch s {
	case "", "off":
		return HedgeSpec{Disabled: true}, nil
	}
	if strings.HasSuffix(s, "p") {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(s, "p"), 64)
		if err != nil || !(pct > 0 && pct <= 100) { // NaN fails both comparisons
			return HedgeSpec{}, fmt.Errorf("fleetproxy: hedge percentile %q must be like \"95p\" with 0 < p <= 100", s)
		}
		return HedgeSpec{Percentile: pct}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return HedgeSpec{}, fmt.Errorf("fleetproxy: hedge-after %q must be a percentile (\"95p\"), a positive duration (\"250ms\"), or \"off\"", s)
	}
	return HedgeSpec{Fixed: d}, nil
}

// latencyReservoir keeps the last N successful forward latencies for
// percentile estimation. Cheap ring buffer; percentile copies and sorts,
// which at N=512 is negligible against a network hop.
type latencyReservoir struct {
	mu     sync.Mutex
	buf    []time.Duration
	next   int
	filled int
}

func newLatencyReservoir(n int) *latencyReservoir {
	return &latencyReservoir{buf: make([]time.Duration, n)}
}

func (r *latencyReservoir) add(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
}

// reservoirMinSamples gates percentile-based hedging: below it the estimate
// is noise, so the hedge delay falls back to a fixed floor.
const reservoirMinSamples = 16

func (r *latencyReservoir) percentile(p float64) (time.Duration, bool) {
	r.mu.Lock()
	n := r.filled
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	if n < reservoirMinSamples {
		return 0, false
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(float64(n)*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx], true
}
