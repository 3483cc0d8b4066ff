package fleetproxy

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"parcost/internal/lru"
)

// Graceful-degradation machinery: a small LRU of the proxy's own successful
// responses, replayed (marked "degraded": true) when a machine's primary and
// every replica are unavailable, plus the hedge spec whose percentile form
// reads the proxy's own per-route request-latency histograms.

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
	entries *lru.Cache[string, staleEntry]
}

type staleEntry struct {
	res    upstream
	stored time.Time
}

func newStaleCache(max int) *staleCache {
	if max <= 0 {
		return nil // degradation cache disabled
	}
	return &staleCache{entries: lru.New[string, staleEntry](max)}
}

func (c *staleCache) put(key string, res upstream, now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, staleEntry{res: res, stored: now})
}

// get returns key's cached response and when it was stored; a replayed
// entry counts as used, so it outlives entries nobody asked for.
func (c *staleCache) get(key string) (upstream, time.Time, bool) {
	if c == nil {
		return upstream{}, time.Time{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(key)
	return e.res, e.stored, ok
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
// next replica: after a percentile of the route's request latencies as the
// proxy's own histogram has recorded them since start, read at log-2 bucket
// resolution ("95p"); after a fixed delay ("250ms"); or never ("off").
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
