package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
)

// recordingObserver captures /v1/observe ingest for the handler tests.
type recordingObserver struct {
	mu  sync.Mutex
	got []guide.Observation
	err error
}

func (r *recordingObserver) Observe(o guide.Observation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.got = append(r.got, o)
	return nil
}

func (r *recordingObserver) observations() []guide.Observation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]guide.Observation(nil), r.got...)
}

// TestObserveEndpoint drives POST /v1/observe through both frontends: a
// plain serve (no observer) must answer 501 pointing at the retrain daemon
// (relayed, not retried, by the proxy), and a wired observer must receive
// exactly the validated, machine-resolved observations.
func TestObserveEndpoint(t *testing.T) {
	forEachFrontend(t, testObserveEndpoint)
}

func testObserveEndpoint(t *testing.T, newFrontend frontendFactory) {
	router, _, _ := testRouter(t)
	valid := map[string]any{"o": 146, "v": 1096, "nodes": 100, "tile": 80, "seconds": 12.5}

	// Plain serve: ingest is not wired up.
	plain := newFrontend(t, newServeHandler(router, nil))
	resp, body := postJSON(t, plain+"/v1/observe", valid)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("observe without observer: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "retrain daemon") {
		t.Errorf("501 body should point at the retrain daemon: %s", body)
	}

	// Retrain shape: observer receives the report, machine defaulted.
	obs := &recordingObserver{}
	base := newFrontend(t, newServeHandler(router, obs))
	resp, body = postJSON(t, base+"/v1/observe", valid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid observe: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"machine":"aurora"`) {
		t.Errorf("accepted response should echo the resolved machine: %s", body)
	}
	got := obs.observations()
	if len(got) != 1 {
		t.Fatalf("observer received %d observations, want 1", len(got))
	}
	want := guide.Observation{
		Machine: "aurora",
		Config:  dataset.Config{O: 146, V: 1096, Nodes: 100, TileSize: 80},
		Seconds: 12.5,
	}
	if got[0] != want {
		t.Errorf("observation = %+v, want %+v", got[0], want)
	}

	// Bad requests never reach the observer.
	for name, tc := range map[string]struct {
		body map[string]any
		want string
	}{
		"unknown machine": {map[string]any{"machine": "perlmutter", "o": 146, "v": 1096, "nodes": 100, "tile": 80, "seconds": 1.0}, "perlmutter"},
		"zero config":     {map[string]any{"o": 0, "v": 1096, "nodes": 100, "tile": 80, "seconds": 1.0}, "positive"},
		"zero seconds":    {map[string]any{"o": 146, "v": 1096, "nodes": 100, "tile": 80, "seconds": 0}, "seconds"},
	} {
		resp, body := postJSON(t, base+"/v1/observe", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s does not mention %q", name, body, tc.want)
		}
	}
	if n := len(obs.observations()); n != 1 {
		t.Errorf("invalid requests leaked through: observer has %d observations, want 1", n)
	}

	// Observer rejections surface as 400s (e.g. a paused controller).
	obs.err = fmt.Errorf("controller draining")
	resp, body = postJSON(t, base+"/v1/observe", valid)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "draining") {
		t.Errorf("observer error: status %d, body %s", resp.StatusCode, body)
	}
}

// TestServeMetricsEndpoint scrapes GET /metrics on the serve handler and
// checks the Prometheus exposition carries both the latency histograms and
// the per-machine sweep-cache series.
func TestServeMetricsEndpoint(t *testing.T) {
	router, _, _ := testRouter(t)
	base := directFrontend(t, newServeHandler(router, nil))

	// Generate traffic so the route histogram and shard stats are non-empty.
	if resp, body := postJSON(t, base+"/v1/recommend", map[string]any{"o": 146, "v": 1096, "objective": "stq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: status %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != guide.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, guide.PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`parcost_request_duration_seconds_count{route="recommend"} 1`,
		`parcost_sweep_cache_misses_total{machine="aurora"}`,
		`parcost_grid_sweeps_total{machine="aurora"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestProxyMetricsEndpoint checks the proxy exports its own /metrics (its
// request latency, no sweep-cache series — the proxy holds no models).
func TestProxyMetricsEndpoint(t *testing.T) {
	router, _, _ := testRouter(t)
	base := proxyFrontend(t, newServeHandler(router, nil))

	if resp, body := postJSON(t, base+"/v1/recommend", map[string]any{"o": 146, "v": 1096, "objective": "stq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend through proxy: status %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != guide.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, guide.PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "parcost_request_duration_seconds") {
		t.Error("proxy metrics missing request-duration histogram")
	}
	if strings.Contains(text, "parcost_sweep_cache") {
		t.Error("proxy metrics should not export sweep-cache series (it holds no models)")
	}
}

// TestServeAndRetrainRoutersAgree: `parcost serve` and `parcost retrain`
// build their routers with loadFleetRouter, so one bundle answers every
// paper problem × {STQ, BQ} identically from both, pruned by the machine's
// oracle. That holds at boot and after the SwapShard a retrain controller
// makes to install its incumbent (and on every promotion and rollback).
func TestServeAndRetrainRoutersAgree(t *testing.T) {
	adv, _ := testAdvisor(t, machine.Aurora())
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := guide.SaveBundle(path, []guide.FleetEntry{{Machine: "aurora", Advisor: adv}}, guide.BundleMeta{}); err != nil {
		t.Fatal(err)
	}
	serve, _, err := loadFleetRouter(path, guide.NewAdmissionController(admission.ControllerConfig{}),
		guide.WithCacheSize(guide.DefaultCacheSize), guide.WithTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	retrainRouter, shards, err := loadFleetRouter(path, guide.NewAdmissionController(admission.ControllerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Machine != "aurora" || shards[0].oracle == nil {
		t.Fatalf("loaded shards %+v, want one oracle-pruned aurora shard", shards)
	}
	loaded, oracle := shards[0].Advisor, shards[0].oracle
	check := func(stage string) {
		t.Helper()
		for _, p := range dataset.PaperProblems() {
			for _, obj := range []guide.Objective{guide.ShortestTime, guide.Budget} {
				want, wantErr := loaded.Recommend(p, obj, oracle)
				for name, r := range map[string]*guide.Router{"serve": serve, "retrain": retrainRouter} {
					got, err := r.Recommend("aurora", p, obj)
					if (err == nil) != (wantErr == nil) || got != want {
						t.Fatalf("%s: %s answers %v/%v with %+v (err %v), oracle-pruned advisor %+v (err %v)",
							stage, name, p, obj, got, err, want, wantErr)
					}
				}
			}
		}
	}
	check("boot")
	if _, err := retrainRouter.SwapShard("aurora", loaded, 0); err != nil {
		t.Fatal(err)
	}
	check("after swap")
}

func TestRetrainFlagValidation(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing model", nil, "-model"},
		{"bad strategy", []string{"-model", "m.json", "-strategy", "zz"}, "-strategy"},
		{"zero batch", []string{"-model", "m.json", "-batch", "0"}, "-batch"},
		{"zero drift window", []string{"-model", "m.json", "-drift-window", "0"}, "-drift-window"},
		{"zero rollback window", []string{"-model", "m.json", "-rollback-window", "0"}, "-rollback-window"},
		{"zero drift threshold", []string{"-model", "m.json", "-drift-threshold", "0"}, "-drift-threshold"},
		{"zero gate margin", []string{"-model", "m.json", "-gate-margin", "0"}, "-gate-margin"},
		{"zero trees", []string{"-model", "m.json", "-trees", "0"}, "-trees"},
		{"zero drain", []string{"-model", "m.json", "-drain", "0s"}, "-drain"},
		{"missing artifact", []string{"-model", filepath.Join(state, "missing.json"), "-state", state}, "missing.json"},
	} {
		err := runRetrain(tc.args)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkRetrain_HotSwap measures the query path while a promotion storm
// runs in the background: one goroutine hot-swaps the aurora shard between
// two advisors as fast as it can, and the benchmark times Recommend through
// the churn. This is the latency a client sees during a retrain promotion.
func BenchmarkRetrain_HotSwap(b *testing.B) {
	router, adv, _ := testRouter(b)
	adv2, _ := testAdvisor(b, machine.Aurora())
	problem := dataset.Problem{O: 146, V: 1096}
	if _, err := router.Recommend("aurora", problem, guide.ShortestTime); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		advisors := []*guide.Advisor{adv2, adv}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := router.SwapShard("aurora", advisors[i%2], 4); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Recommend("aurora", problem, guide.ShortestTime); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
