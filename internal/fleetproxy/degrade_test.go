package fleetproxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestStaleCacheLRUEviction(t *testing.T) {
	c := newStaleCache(2)
	now := time.Now()
	c.put("a", upstream{status: 200, body: []byte("A")}, now)
	c.put("b", upstream{status: 200, body: []byte("B")}, now)
	c.put("a", upstream{status: 200, body: []byte("A2")}, now) // refresh a → b is LRU
	c.put("c", upstream{status: 200, body: []byte("C")}, now)  // evicts b

	if _, _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if res, _, ok := c.get("a"); !ok || string(res.body) != "A2" {
		t.Fatalf("refreshed entry a = %q ok=%v, want A2", res.body, ok)
	}
	if _, _, ok := c.get("c"); !ok {
		t.Fatal("newest entry c missing")
	}
}

func TestStaleCacheDisabledIsNilSafe(t *testing.T) {
	var c *staleCache = newStaleCache(-1)
	if c != nil {
		t.Fatal("non-positive size should disable the cache")
	}
	c.put("k", upstream{}, time.Time{}) // must not panic
	if _, _, ok := c.get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestDegradedBodyMarksJSONObjects(t *testing.T) {
	out := degradedBody([]byte(`{"mean_cost": 1.5, "machine": "aurora"}`))
	var m map[string]any
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("degraded body is not JSON: %v", err)
	}
	if m["degraded"] != true {
		t.Fatalf("degraded flag missing: %v", m)
	}
	if m["mean_cost"] != 1.5 || m["machine"] != "aurora" {
		t.Fatalf("original fields lost: %v", m)
	}
	if got := degradedBody([]byte(`[1,2]`)); string(got) != `[1,2]` {
		t.Fatalf("non-object body mutated: %s", got)
	}
}

func TestParseHedge(t *testing.T) {
	cases := []struct {
		in      string
		want    HedgeSpec
		wantErr bool
	}{
		{in: "off", want: HedgeSpec{Disabled: true}},
		{in: "", want: HedgeSpec{Disabled: true}},
		{in: "95p", want: HedgeSpec{Percentile: 95}},
		{in: "99.5p", want: HedgeSpec{Percentile: 99.5}},
		{in: "250ms", want: HedgeSpec{Fixed: 250 * time.Millisecond}},
		{in: "2s", want: HedgeSpec{Fixed: 2 * time.Second}},
		{in: "0p", wantErr: true},
		{in: "101p", wantErr: true},
		{in: "NaNp", wantErr: true},
		{in: "-5ms", wantErr: true},
		{in: "banana", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseHedge(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseHedge(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Fatalf("ParseHedge(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

func TestStaleKeyDistinguishesPathAndBody(t *testing.T) {
	keys := map[string]bool{}
	for _, k := range []string{
		staleKey("/v1/recommend", []byte(`{"a":1}`)),
		staleKey("/v1/predict", []byte(`{"a":1}`)),
		staleKey("/v1/recommend", []byte(`{"a":2}`)),
	} {
		if keys[k] {
			t.Fatalf("key collision: %q", k)
		}
		keys[k] = true
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 distinct keys, got %d", len(keys))
	}
}

func TestHedgeDelayClamps(t *testing.T) {
	p := mustProxy(t, Config{
		Backends:       []string{"http://a:1", "http://b:2"},
		Hedge:          HedgeSpec{Fixed: time.Hour},
		RequestTimeout: 2 * time.Second,
	})
	defer p.Close()
	if got := p.hedgeDelay("recommend"); got != 2*time.Second {
		t.Fatalf("hedge delay %v, want clamped to request timeout 2s", got)
	}

	p2 := mustProxy(t, Config{Backends: []string{"http://a:1", "http://b:2"}, Hedge: HedgeSpec{Percentile: 95}})
	defer p2.Close()
	if got := p2.hedgeDelay("recommend"); got != defaultHedgeFloor {
		t.Fatalf("unsampled percentile hedge delay %v, want floor %v", got, defaultHedgeFloor)
	}
	for i := 0; i < 64; i++ {
		p2.metrics.Observe("recommend", time.Duration(10+i)*time.Millisecond)
	}
	// The nearest-rank p95 of 10..73 ms is 70 ms, which sits in the bucket
	// bounded by 50µs·2^11 = 102.4 ms.
	if got := p2.hedgeDelay("recommend"); got != 102400*time.Microsecond {
		t.Fatalf("sampled hedge delay %v, want the 102.4ms bucket bound over the 70ms p95", got)
	}

	// Past the last finite bound (~26 s) the read is unbounded, and the
	// request timeout caps it.
	p3 := mustProxy(t, Config{
		Backends:       []string{"http://a:1", "http://b:2"},
		Hedge:          HedgeSpec{Percentile: 95},
		RequestTimeout: 40 * time.Second,
	})
	defer p3.Close()
	for i := 0; i < hedgeMinSamples; i++ {
		p3.metrics.Observe("recommend", time.Minute)
	}
	if got := p3.hedgeDelay("recommend"); got != 40*time.Second {
		t.Fatalf("overflowed hedge delay %v, want clamped to request timeout 40s", got)
	}
}

func TestHedgeDelayIsPerRoute(t *testing.T) {
	p := mustProxy(t, Config{Backends: []string{"http://a:1", "http://b:2"}, Hedge: HedgeSpec{Percentile: 95}})
	defer p.Close()
	for i := 0; i < 100; i++ {
		p.metrics.Observe("recommend", 2*time.Second)
	}
	if got := p.hedgeDelay("batch"); got != defaultHedgeFloor {
		t.Fatalf("batch hedge delay %v after recommend traffic only, want floor %v", got, defaultHedgeFloor)
	}
	for i := 0; i < hedgeMinSamples-1; i++ {
		p.metrics.Observe("batch", time.Millisecond)
	}
	if got := p.hedgeDelay("batch"); got != defaultHedgeFloor {
		t.Fatalf("batch hedge delay %v below %d observations, want floor %v", got, hedgeMinSamples, defaultHedgeFloor)
	}
	p.metrics.Observe("batch", time.Millisecond)
	if got := p.hedgeDelay("batch"); got != 1600*time.Microsecond {
		t.Fatalf("batch hedge delay %v, want the 1.6ms bucket bound over its own 1ms latencies", got)
	}
	if got := p.hedgeDelay("recommend"); got != 3276800*time.Microsecond {
		t.Fatalf("recommend hedge delay %v, want the 3.2768s bucket bound over its 2s latencies", got)
	}
}

// TestHedgeUsesTheForwardedRoute checks that a forwarded request hedges on
// its own route's threshold: a batch with a fast history hedges off a slow
// primary at once, while recommend's slow history lets the primary answer.
func TestHedgeUsesTheForwardedRoute(t *testing.T) {
	f := newTestFleet(t, 2, Config{Hedge: HedgeSpec{Percentile: 95}, RequestTimeout: 5 * time.Second})
	for i := 0; i < hedgeMinSamples; i++ {
		f.proxy.metrics.Observe("batch", time.Millisecond) // hedge after 1.6 ms
		f.proxy.metrics.Observe("recommend", time.Minute)  // past every bound: the 5 s timeout
	}
	primary := 0
	key := f.keyOwnedBy(t, primary)
	f.faults[primary].ScriptSlow(300*time.Millisecond, -1)

	resp, body := f.post(t, "/v1/batch", map[string]any{"queries": []map[string]any{{"machine": key}}})
	var br struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(body, &br); resp.StatusCode != http.StatusOK || err != nil || len(br.Results) != 1 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if got := br.Results[0]["backend"]; got != "backend-1" {
		t.Fatalf("batch answered by %v, want the replica hedged after batch's own 1.6 ms threshold", got)
	}

	resp, body = f.post(t, "/v1/recommend", map[string]any{"machine": key})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status %d: %s", resp.StatusCode, body)
	}
	if got := decodeMap(t, body)["backend"]; got != "backend-0" {
		t.Fatalf("recommend answered by %v, want the slow primary: its own threshold is the 5 s timeout", got)
	}
}

func mustProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewRejectsBadBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero backends")
	}
	if _, err := New(Config{Backends: []string{"a:1", "http://a:1"}}); err == nil {
		t.Fatal("New accepted duplicate backends (normalization should collide)")
	}
	if _, err := New(Config{Backends: []string{"a%zz:1"}}); err == nil {
		t.Fatal("New accepted a backend address no request can be built for")
	}
	p := mustProxy(t, Config{Backends: []string{"a:1/", "b:2"}})
	defer p.Close()
	got := p.Backends()
	want := fmt.Sprintf("%v", []string{"http://a:1", "http://b:2"})
	if fmt.Sprintf("%v", got) != want {
		t.Fatalf("Backends() = %v, want %s", got, want)
	}
}
