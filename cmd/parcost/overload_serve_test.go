package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"parcost/internal/admission"
	"parcost/internal/guide"
	"parcost/internal/machine"
)

// postJSONClient is postJSON with overload-control headers attached.
func postJSONClient(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v) //parcost:bless maprange header set: each key writes its own slot, order-independent
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeBody(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("response %q is not a JSON object: %v", data, err)
	}
	return m
}

// admissionRouter is testRouter with an explicit admission controller and
// extra shard options (TTL, clock) for overload tests.
func admissionRouter(t *testing.T, adm *admission.Controller, opts ...guide.ServiceOption) *guide.Router {
	t.Helper()
	adv, oracle := testAdvisor(t, machine.Aurora())
	r := guide.NewRouter(guide.WithAdmission(adm))
	shardOpts := append([]guide.ServiceOption{guide.WithOracle(oracle)}, opts...)
	if err := r.AddShard("aurora", adv, shardOpts...); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestServeRateLimit pins the per-client shedding contract: a client past
// its token bucket gets 429 with a Retry-After header and a structured
// rate_limited body, other clients are unaffected, and observability
// endpoints are never rate limited.
func TestServeRateLimit(t *testing.T) {
	adm := guide.NewAdmissionController(admission.ControllerConfig{
		Capacity: 2, Rate: 1, Burst: 1,
	})
	router := admissionRouter(t, adm)
	base := directFrontend(t, newServeHandler(router, nil))
	reqBody := map[string]any{"o": 99, "v": 718, "objective": "stq"}

	resp, _ := postJSONClient(t, base+"/v1/recommend", reqBody, map[string]string{"X-Parcost-Client": "greedy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp, body := postJSONClient(t, base+"/v1/recommend", reqBody, map[string]string{"X-Parcost-Client": "greedy"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted client: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	m := decodeBody(t, body)
	if m["reason"] != "rate_limited" {
		t.Fatalf("shed reason = %v, want rate_limited (%s)", m["reason"], body)
	}
	if ra, ok := m["retry_after"].(float64); !ok || ra < 1 {
		t.Fatalf("retry_after = %v, want >= 1 second", m["retry_after"])
	}

	// A different client is a different bucket.
	resp, body = postJSONClient(t, base+"/v1/recommend", reqBody, map[string]string{"X-Parcost-Client": "polite"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated client: status %d, want 200 (%s)", resp.StatusCode, body)
	}

	// healthz and metrics stay reachable for the throttled client (no client
	// header here, but the handler never consults the limiter for them).
	for _, path := range []string{"/v1/healthz", "/metrics"} {
		hr, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s while a client is throttled: status %d", path, hr.StatusCode)
		}
	}
}

// TestServeDeadlineHeader pins the deadline-propagation wire contract: a
// malformed X-Parcost-Deadline-Ms is a client error, a generous one is
// honored transparently.
func TestServeDeadlineHeader(t *testing.T) {
	router, _, _ := testRouter(t)
	base := directFrontend(t, newServeHandler(router, nil))
	reqBody := map[string]any{"o": 99, "v": 718, "objective": "stq"}

	for _, bad := range []string{"soon", "-20", "0", "1.5", "10000000000000"} {
		resp, body := postJSONClient(t, base+"/v1/recommend", reqBody, map[string]string{"X-Parcost-Deadline-Ms": bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
	}
	resp, body := postJSONClient(t, base+"/v1/recommend", reqBody, map[string]string{"X-Parcost-Deadline-Ms": "30000"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous deadline: status %d, want 200 (%s)", resp.StatusCode, body)
	}
	if m := decodeBody(t, body); m["nodes"] == nil {
		t.Fatalf("deadline-bounded answer missing recommendation: %s", body)
	}
}

// TestServeBrownout walks the serving tier through a brownout: healthz flips
// to "brownout", an expired cache entry is served stale (200 + degraded
// marker) instead of re-swept, a sweep-requiring miss is shed with 503 and
// reason "brownout" while the slots are busy, batch entries carry the same
// shape per entry, and /metrics exports the admission and brownout families.
func TestServeBrownout(t *testing.T) {
	var (
		mu  sync.Mutex
		cur = time.Now()
	)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	advance := func(d time.Duration) {
		mu.Lock()
		cur = cur.Add(d)
		mu.Unlock()
	}
	const target, window = 10 * time.Millisecond, 50 * time.Millisecond
	adm := admission.NewController(admission.ControllerConfig{
		Capacity: 1, BrownoutTarget: target, BrownoutWindow: window, Now: now,
	})
	router := admissionRouter(t, adm, guide.WithTTL(time.Minute), guide.WithClock(now))
	base := directFrontend(t, newServeHandler(router, nil))
	cached := map[string]any{"o": 99, "v": 718, "objective": "stq"}

	// Healthy baseline: a fresh sweep caches the answer, healthz reads ok.
	resp, body := postJSON(t, base+"/v1/recommend", cached)
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "degraded") {
		t.Fatalf("healthy request: status %d body %s", resp.StatusCode, body)
	}
	hr, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	health := decodeBody(t, hbody)
	if health["status"] != "ok" || health["admission"] == nil {
		t.Fatalf("healthy healthz = %s", hbody)
	}

	// Expire the cache entry, then enter brownout: queue delay sustained
	// above target for a full window.
	advance(2 * time.Minute)
	adm.Brownout.Observe(10 * target)
	advance(window + time.Millisecond)
	adm.Brownout.Observe(10 * target)
	if !adm.BrownoutActive() {
		t.Fatal("sustained over-target delay did not enter brownout")
	}
	hr, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ = io.ReadAll(hr.Body)
	hr.Body.Close()
	if health = decodeBody(t, hbody); health["status"] != "brownout" {
		t.Fatalf("browned-out healthz status = %v, want brownout (%s)", health["status"], hbody)
	}

	// The expired resident entry is served stale rather than re-swept.
	resp, body = postJSON(t, base+"/v1/recommend", cached)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-serve: status %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Parcost-Degraded") != "stale" {
		t.Fatalf("stale answer missing X-Parcost-Degraded header (got %q)", resp.Header.Get("X-Parcost-Degraded"))
	}
	if m := decodeBody(t, body); m["degraded"] != true {
		t.Fatalf("stale answer not marked degraded: %s", body)
	}

	// With the only sweep slot busy, a sweep-requiring miss is shed.
	release, err := adm.Queue.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	miss := map[string]any{"o": 146, "v": 1096, "objective": "stq"}
	resp, body = postJSON(t, base+"/v1/recommend", miss)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("browned-out miss: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("brownout 503 without a Retry-After header")
	}
	if m := decodeBody(t, body); m["reason"] != "brownout" {
		t.Fatalf("shed reason = %v, want brownout (%s)", m["reason"], body)
	}

	// Batch: the stale-servable entry degrades, the miss sheds per entry.
	resp, body = postJSON(t, base+"/v1/batch", map[string]any{"queries": []map[string]any{cached, miss}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch envelope: status %d (%s)", resp.StatusCode, body)
	}
	var batch struct {
		Results []struct {
			Result *struct {
				Degraded bool `json:"degraded"`
			} `json:"result"`
			Error      string `json:"error"`
			Reason     string `json:"reason"`
			RetryAfter int    `json:"retry_after"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("batch response %s: %v", body, err)
	}
	if batch.Results[0].Result == nil || !batch.Results[0].Result.Degraded {
		t.Fatalf("batch entry 0 should be a degraded stale answer: %s", body)
	}
	if batch.Results[1].Reason != "brownout" || batch.Results[1].RetryAfter < 1 || batch.Results[1].Error == "" {
		t.Fatalf("batch entry 1 should be a structured brownout shed: %s", body)
	}
	release(0)

	// The scrape carries the overload families alongside the serving ones.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"parcost_admission_queue_depth",
		"parcost_brownout_active 1",
		"parcost_sweep_shed_brownout_total",
		"parcost_stale_served_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}
