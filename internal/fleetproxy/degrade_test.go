package fleetproxy

import (
	"encoding/json"
	"fmt"
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

func TestReservoirPercentileGatesOnSamples(t *testing.T) {
	r := newLatencyReservoir(512)
	if _, ok := r.percentile(95); ok {
		t.Fatal("empty reservoir produced a percentile")
	}
	for i := 1; i <= reservoirMinSamples-1; i++ {
		r.add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := r.percentile(95); ok {
		t.Fatal("under-filled reservoir produced a percentile")
	}
	r.add(100 * time.Millisecond)
	p95, ok := r.percentile(95)
	if !ok {
		t.Fatal("filled reservoir refused a percentile")
	}
	if p95 < 10*time.Millisecond {
		t.Fatalf("p95 = %v, implausibly low for samples up to 100ms", p95)
	}
	p50, _ := r.percentile(50)
	if p50 > p95 {
		t.Fatalf("p50 %v > p95 %v", p50, p95)
	}
}

func TestReservoirWrapsRing(t *testing.T) {
	r := newLatencyReservoir(32)
	for i := 0; i < 100; i++ {
		r.add(time.Duration(i) * time.Millisecond)
	}
	// Only the last 32 samples (68ms..99ms) remain.
	p, ok := r.percentile(1)
	if !ok || p < 68*time.Millisecond {
		t.Fatalf("low percentile %v ok=%v, want >= 68ms after wrap", p, ok)
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
	if got := p.hedgeDelay(); got != 2*time.Second {
		t.Fatalf("hedge delay %v, want clamped to request timeout 2s", got)
	}

	p2 := mustProxy(t, Config{Backends: []string{"http://a:1", "http://b:2"}, Hedge: HedgeSpec{Percentile: 95}})
	defer p2.Close()
	if got := p2.hedgeDelay(); got != defaultHedgeFloor {
		t.Fatalf("unsampled percentile hedge delay %v, want floor %v", got, defaultHedgeFloor)
	}
	for i := 0; i < 64; i++ {
		p2.reservoir.add(time.Duration(10+i) * time.Millisecond)
	}
	if got := p2.hedgeDelay(); got < 10*time.Millisecond {
		t.Fatalf("sampled hedge delay %v, want a high percentile of ~10-73ms", got)
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
	p := mustProxy(t, Config{Backends: []string{"a:1/", "b:2"}})
	defer p.Close()
	got := p.Backends()
	want := fmt.Sprintf("%v", []string{"http://a:1", "http://b:2"})
	if fmt.Sprintf("%v", got) != want {
		t.Fatalf("Backends() = %v, want %s", got, want)
	}
}
