package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/fleetproxy"
	"parcost/internal/guide"
	"parcost/internal/machine"
)

// countedHandler wraps a serve handler with a request counter so tests can
// discover empirically which backend the proxy's hash ring made primary.
type countedHandler struct {
	http.Handler
	hits atomic.Int64
}

func (c *countedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.hits.Add(1)
	c.Handler.ServeHTTP(w, r)
}

// twinBackends builds two real `parcost serve` backends over the SAME advisor
// (identical models ⇒ identical predictions), so any backend can answer any
// query bit-identically — the replicated-fleet deployment shape.
func twinBackends(t testing.TB) (a, b *httptest.Server, ca, cb *countedHandler, routers [2]*guide.Router) {
	t.Helper()
	adv, oracle := testAdvisor(t, machine.Aurora())
	for i := range routers {
		routers[i] = guide.NewRouter()
		if err := routers[i].AddShard("aurora", adv, guide.WithOracle(oracle)); err != nil {
			t.Fatal(err)
		}
	}
	ca = &countedHandler{Handler: newServeHandler(routers[0], nil)}
	cb = &countedHandler{Handler: newServeHandler(routers[1], nil)}
	a = httptest.NewServer(ca)
	t.Cleanup(a.Close)
	b = httptest.NewServer(cb)
	t.Cleanup(b.Close)
	return a, b, ca, cb, routers
}

// TestProxyFailoverKillPrimaryMidStream is the PR's acceptance criterion: a
// 64-query stream against a two-backend proxy whose primary is killed
// mid-stream must complete every query — correct answers via failover, zero
// hangs. Run under -race in CI.
func TestProxyFailoverKillPrimaryMidStream(t *testing.T) {
	primary, replica, cp, cr, routers := twinBackends(t)

	// Every query shape in the stream, pre-swept in process on both
	// backends. These calls skip countedHandler, so the warm-up below still
	// reveals the primary; and no request through the proxy pays a cold
	// sweep, which under -race and load (doubled by the 250 ms hedge) can
	// outlive the 10 s RequestTimeout.
	problems := []dataset.Problem{{O: 99, V: 718}, {O: 146, V: 1096}, {O: 180, V: 1070}}
	objectives := []string{"stq", "bq"}
	var warm []guide.RoutedQuery
	for _, pr := range problems {
		for _, obj := range objectives {
			o, err := parseObjective(obj)
			if err != nil {
				t.Fatal(err)
			}
			warm = append(warm, guide.RoutedQuery{Machine: "aurora", Query: guide.Query{Problem: pr, Objective: o}})
		}
	}
	for _, r := range routers {
		for _, res := range r.RecommendBatch(warm) {
			if res.Err != nil {
				t.Fatalf("pre-sweep %+v: %v", res.Query, res.Err)
			}
		}
	}

	p, err := fleetproxy.New(fleetproxy.Config{
		Backends:        []string{primary.URL, replica.URL},
		Retries:         2,
		RetryBackoff:    5 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		BreakerWindow:   100 * time.Millisecond,
		BreakerFailures: 2,
		Hedge:           fleetproxy.HedgeSpec{Fixed: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	// Warm-up query reveals which backend the ring made primary for "aurora".
	if resp, body := postJSON(t, front.URL+"/v1/recommend",
		recommendRequest{O: 99, V: 718, Objective: "stq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, body)
	}
	kill := primary
	if cr.hits.Load() > cp.hits.Load() {
		kill = replica
	}

	// Ground truth for every query shape in the stream.
	type wire struct {
		req  recommendRequest
		want recommendResponse
	}
	var shapes []wire
	for _, pr := range problems {
		for _, obj := range objectives {
			req := recommendRequest{O: pr.O, V: pr.V, Objective: obj}
			resp, body := postJSON(t, front.URL+"/v1/recommend", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ground truth %+v: %d %s", req, resp.StatusCode, body)
			}
			var want recommendResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, wire{req: req, want: want})
		}
	}

	const streams = 64
	completed := make(chan int, streams)
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := shapes[i%len(shapes)]
			// Not postJSON: t.Fatal is illegal off the test goroutine.
			data, err := json.Marshal(sh.req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(front.URL+"/v1/recommend", "application/json", strings.NewReader(string(data)))
			if err != nil {
				errs <- fmt.Errorf("query %d: %v", i, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("query %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d (%+v): status %d body %s", i, sh.req, resp.StatusCode, body)
				return
			}
			var got recommendResponse
			if err := json.Unmarshal(body, &got); err != nil {
				errs <- fmt.Errorf("query %d: %v", i, err)
				return
			}
			if got != sh.want {
				errs <- fmt.Errorf("query %d diverged after failover: got %+v want %+v", i, got, sh.want)
				return
			}
			completed <- i
		}(i)
	}

	// Kill the primary after ~10 completions: in-flight requests see resets,
	// the breaker trips, and the rest of the stream fails over.
	go func() {
		for n := 0; n < 10; n++ {
			<-completed
		}
		kill.CloseClientConnections()
		kill.Close()
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("stream did not complete: requests hung after primary death")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestProxyDrainWarmHandoff drives the shard-migration path end to end with
// real serve backends: traffic warms the primary's sweep cache, the drain
// admin endpoint hands its warm set to the survivor, and the follow-up query
// is served from the survivor's warmed cache.
func TestProxyDrainWarmHandoff(t *testing.T) {
	a, b, ca, cb, routers := twinBackends(t)

	p, err := fleetproxy.New(fleetproxy.Config{
		Backends:       []string{a.URL, b.URL},
		RequestTimeout: 30 * time.Second,
		Hedge:          fleetproxy.HedgeSpec{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	// Two distinct problems sweep (and cache) on the aurora primary.
	for _, pr := range []dataset.Problem{{O: 99, V: 718}, {O: 146, V: 1096}} {
		resp, body := postJSON(t, front.URL+"/v1/recommend", recommendRequest{O: pr.O, V: pr.V, Objective: "stq"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm traffic: %d %s", resp.StatusCode, body)
		}
	}
	drained, survivor := a, routers[1]
	if cb.hits.Load() > ca.hits.Load() {
		drained, survivor = b, routers[0]
	}

	resp, body := postJSON(t, front.URL+"/v1/admin/drain", map[string]string{"backend": drained.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	var dr struct {
		Warmed int `json:"warmed"`
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Warmed != 2 {
		t.Fatalf("drain warmed %d keys, want 2", dr.Warmed)
	}
	if got := p.Backends(); len(got) != 1 {
		t.Fatalf("ring still lists %d backends after drain", len(got))
	}

	// The survivor was pre-swept by the handoff: the same query is a cache
	// hit there, not a fresh sweep.
	before := survivor.AggregateStats()
	resp, body = postJSON(t, front.URL+"/v1/recommend", recommendRequest{O: 99, V: 718, Objective: "stq"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain query: %d %s", resp.StatusCode, body)
	}
	after := survivor.AggregateStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("post-drain query not served warm: before %+v after %+v", before, after)
	}
}

// TestProxyFlagValidation pins the CLI contract of `parcost proxy`.
func TestProxyFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing backends", []string{}, "-backends"},
		{"negative retries", []string{"-backends", "h:1", "-retries", "-1"}, "-retries"},
		{"zero breaker failures", []string{"-backends", "h:1", "-breaker-failures", "0"}, "-breaker-failures"},
		{"zero timeout", []string{"-backends", "h:1", "-timeout", "0s"}, "-timeout"},
		{"zero breaker window", []string{"-backends", "h:1", "-breaker-window", "0s"}, "-breaker-window"},
		{"zero probe interval", []string{"-backends", "h:1", "-probe-every", "0s"}, "-probe-every"},
		{"bad hedge", []string{"-backends", "h:1", "-hedge-after", "soon"}, "hedge"},
		{"bad hedge percentile", []string{"-backends", "h:1", "-hedge-after", "250p"}, "percentile"},
		{"duplicate backends", []string{"-backends", "h:1,h:1"}, "twice"},
		{"empty backend list", []string{"-backends", " , "}, "backend"},
	}
	for _, tc := range cases {
		err := runProxy(tc.args)
		if err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkProxy_Overhead measures the per-request cost the proxy adds over a
// direct backend on the cheapest endpoint (/v1/predict — no sweep, so the
// numbers isolate proxy forwarding, not model work).
func BenchmarkProxy_Overhead(b *testing.B) {
	router, _, _ := testRouter(b)
	backend := httptest.NewServer(newServeHandler(router, nil))
	b.Cleanup(backend.Close)

	p, err := fleetproxy.New(fleetproxy.Config{Backends: []string{backend.URL}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	b.Cleanup(front.Close)

	body, _ := json.Marshal(predictRequest{O: 99, V: 718, Nodes: 100, Tile: 80})
	bench := func(url string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(string(body)))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	b.Run("direct", bench(backend.URL))
	b.Run("proxy", bench(front.URL))
}
