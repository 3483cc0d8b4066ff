package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/fleetproxy"
	"parcost/internal/guide"
	"parcost/internal/machine"
)

// frontendFactory exposes a serve handler over HTTP: either directly, or
// through a one-backend `parcost proxy` in front of it. Running every wire
// battery through both makes the serve tests double as proxy conformance
// tests — the proxy must be invisible for a healthy single backend.
type frontendFactory func(t *testing.T, h http.Handler) (baseURL string)

func directFrontend(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

func proxyFrontend(t *testing.T, h http.Handler) string {
	t.Helper()
	backend := httptest.NewServer(h)
	t.Cleanup(backend.Close)
	p, err := fleetproxy.New(fleetproxy.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

func forEachFrontend(t *testing.T, fn func(t *testing.T, newFrontend frontendFactory)) {
	t.Run("direct", func(t *testing.T) { fn(t, directFrontend) })
	t.Run("proxy", func(t *testing.T) { fn(t, proxyFrontend) })
}

// testAdvisor trains a small advisor over simulated data for one machine.
func testAdvisor(t testing.TB, spec machine.Spec) (*guide.Advisor, guide.Oracle) {
	t.Helper()
	d := ccsd.Generate(spec, ccsd.GenConfig{
		Problems: []dataset.Problem{{O: 99, V: 718}, {O: 146, V: 1096}, {O: 180, V: 1070}},
		Grid: dataset.Grid{
			Nodes:     []int{5, 15, 30, 50, 100, 200, 400},
			TileSizes: []int{40, 60, 80, 100},
		},
		Seed: 1,
	})
	adv, err := guide.NewAdvisor(buildGB(60, 6, 1), d)
	if err != nil {
		t.Fatal(err)
	}
	return adv, guide.NewSimOracle(spec)
}

// testRouter builds a one-shard aurora router, the single-machine serving
// shape.
func testRouter(t testing.TB) (*guide.Router, *guide.Advisor, guide.Oracle) {
	t.Helper()
	adv, oracle := testAdvisor(t, machine.Aurora())
	r := guide.NewRouter()
	if err := r.AddShard("aurora", adv, guide.WithOracle(oracle)); err != nil {
		t.Fatal(err)
	}
	return r, adv, oracle
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeEndToEnd drives the HTTP API of a one-shard fleet — directly and
// through a one-backend proxy — and asserts every answer matches the
// in-process advisor exactly.
func TestServeEndToEnd(t *testing.T) {
	forEachFrontend(t, testServeEndToEnd)
}

func testServeEndToEnd(t *testing.T, newFrontend frontendFactory) {
	router, adv, oracle := testRouter(t)
	base := newFrontend(t, newServeHandler(router, nil))

	// healthz
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health guide.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Machines) != 1 || health.Machines[0].Machine != "aurora" {
		t.Fatalf("health = %+v", health)
	}

	// recommend, both objectives, vs in-process advisor. The machine field
	// is OMITTED: a one-shard fleet must default to its only machine.
	for _, objName := range []string{"stq", "bq"} {
		obj := guide.ShortestTime
		if objName == "bq" {
			obj = guide.Budget
		}
		p := dataset.Problem{O: 146, V: 1096}
		want, err := adv.Recommend(p, obj, oracle)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, base+"/v1/recommend", recommendRequest{O: p.O, V: p.V, Objective: objName})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s: status %d body %s", objName, resp.StatusCode, body)
		}
		var rec recommendResponse
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Machine != "aurora" {
			t.Fatalf("defaulted machine echoed as %q", rec.Machine)
		}
		if rec.Nodes != want.Config.Nodes || rec.Tile != want.Config.TileSize {
			t.Fatalf("HTTP %s recommends nodes=%d tile=%d, in-process nodes=%d tile=%d",
				objName, rec.Nodes, rec.Tile, want.Config.Nodes, want.Config.TileSize)
		}
		if rec.PredSeconds != want.PredTime || rec.PredValue != want.PredValue {
			t.Fatalf("HTTP %s predictions %v/%v, in-process %v/%v",
				objName, rec.PredSeconds, rec.PredValue, want.PredTime, want.PredValue)
		}
	}

	// healthz again: the two sweeps must show up per-shard AND in the
	// aggregate with a consistent min ≤ mean ≤ max.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, block := range []guide.CacheHealth{health.Machines[0].CacheHealth, health.Aggregate} {
		if block.Sweeps != 2 || block.CacheMisses != 2 {
			t.Fatalf("healthz after 2 sweeps: %+v", block)
		}
		if !(block.SweepMinMs > 0 && block.SweepMinMs <= block.SweepMeanMs && block.SweepMeanMs <= block.SweepMaxMs) {
			t.Fatalf("healthz sweep timings inconsistent: %+v", block)
		}
	}

	// predict vs in-process model
	cfg := dataset.Config{O: 99, V: 718, Nodes: 100, TileSize: 80}
	wantSecs := adv.Model.Predict([][]float64{cfg.Features()})[0]
	resp2, body := postJSON(t, base+"/v1/predict", predictRequest{O: cfg.O, V: cfg.V, Nodes: cfg.Nodes, Tile: cfg.TileSize})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d body %s", resp2.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.PredSeconds != wantSecs || pr.Machine != "aurora" {
		t.Fatalf("HTTP predict %+v, in-process %v", pr, wantSecs)
	}

	// batch: order preserved, answers match the advisor
	batch := batchRequest{Queries: []recommendRequest{
		{O: 99, V: 718, Objective: "stq"},
		{O: 146, V: 1096, Objective: "bq"},
	}}
	resp3, body := postJSON(t, base+"/v1/batch", batch)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp3.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch returned %d results", len(br.Results))
	}
	for i, q := range batch.Queries {
		obj := guide.ShortestTime
		if q.Objective == "bq" {
			obj = guide.Budget
		}
		want, err := adv.Recommend(dataset.Problem{O: q.O, V: q.V}, obj, oracle)
		if err != nil {
			t.Fatal(err)
		}
		got := br.Results[i]
		if got.Error != "" || got.Result == nil {
			t.Fatalf("batch result %d: %+v", i, got)
		}
		if got.Result.Nodes != want.Config.Nodes || got.Result.Tile != want.Config.TileSize {
			t.Fatalf("batch result %d diverges from in-process advisor", i)
		}
	}
}

// TestServeBackCompatSingleArtifact: a single-machine artifact — the
// one-entry fleet bundle `parcost train -machine aurora` writes — loads into
// a one-shard Router, and /v1/recommend WITHOUT a machine field answers
// bit-identically to the advisor queried directly in process.
func TestServeBackCompatSingleArtifact(t *testing.T) {
	forEachFrontend(t, testServeBackCompatSingleArtifact)
}

func testServeBackCompatSingleArtifact(t *testing.T, newFrontend frontendFactory) {
	adv, oracle := testAdvisor(t, machine.Aurora())
	path := filepath.Join(t.TempDir(), "advisor.json")
	if err := guide.SaveBundle(path, []guide.FleetEntry{{Machine: "aurora", Advisor: adv}}, guide.BundleMeta{}); err != nil {
		t.Fatal(err)
	}

	entries, _, err := guide.LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Machine != "aurora" {
		t.Fatalf("single artifact loaded as %+v", entries)
	}
	router := guide.NewRouter()
	if err := router.AddShard(entries[0].Machine, entries[0].Advisor, guide.WithOracle(oracle)); err != nil {
		t.Fatal(err)
	}
	base := newFrontend(t, newServeHandler(router, nil))

	for _, objName := range []string{"stq", "bq"} {
		obj := guide.ShortestTime
		if objName == "bq" {
			obj = guide.Budget
		}
		for _, p := range []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}} {
			want, err := adv.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			resp, body := postJSON(t, base+"/v1/recommend",
				recommendRequest{O: p.O, V: p.V, Objective: objName}) // no machine field
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d body %s", resp.StatusCode, body)
			}
			var rec recommendResponse
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatal(err)
			}
			// Bit-identical: the exact floats the in-process advisor gives.
			if rec.Nodes != want.Config.Nodes || rec.Tile != want.Config.TileSize ||
				rec.PredSeconds != want.PredTime || rec.PredValue != want.PredValue {
				t.Fatalf("single-machine %v/%s: HTTP %+v, in-process %+v", p, objName, rec, want)
			}
		}
	}
}

// TestServeFleetEndToEnd is the fleet acceptance criterion:
// train -machines Aurora,Frontier → one bundle → one serve process answers
// routed queries for both machines, with per-shard stats in /v1/healthz and
// per-endpoint latency histograms.
func TestServeFleetEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.json")
	if err := runTrain([]string{"-machines", "aurora,frontier", "-gensize", "300", "-trees", "25", "-depth", "4", "-seed", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	entries, meta, err := guide.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Machine != "aurora" || entries[1].Machine != "frontier" {
		t.Fatalf("fleet entries %+v", entries)
	}
	if meta.TrainedAt == "" || !strings.Contains(meta.Source, "seed=3") {
		t.Fatalf("bundle meta %+v", meta)
	}

	// Each fleet shard must predict identically to a single-machine train
	// run with the same flags (the -machines path shares loadOrGenerate and
	// buildGB with the single path, pinned here for aurora).
	p := dataset.Problem{O: 146, V: 1096}
	single := filepath.Join(t.TempDir(), "aurora.json")
	if err := runTrain([]string{"-machine", "aurora", "-gensize", "300", "-trees", "25", "-depth", "4", "-seed", "3", "-out", single}); err != nil {
		t.Fatal(err)
	}
	singleAdv, _, err := guide.LoadAdvisor(single)
	if err != nil {
		t.Fatal(err)
	}
	wantSingle, err := singleAdv.Recommend(p, guide.ShortestTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotFleet, err := entries[0].Advisor.Recommend(p, guide.ShortestTime, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotFleet != wantSingle {
		t.Fatalf("aurora fleet shard diverges from single train: %+v vs %+v", gotFleet, wantSingle)
	}

	// Corrupted bundle entries (any shard) are rejected at load — spot-check
	// through the CLI-visible LoadFleet path with whole-file tampering; the
	// per-entry cases are pinned in internal/guide.
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"machine":"aurora"`), []byte(`"machine":"borealis"`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found in bundle")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := guide.LoadFleet(bad); err == nil {
		t.Fatal("tampered bundle accepted by LoadFleet")
	}

	// The wire battery runs once per frontend (direct and proxied) over a
	// fresh router each time so the healthz stats assertions stay exact.
	forEachFrontend(t, func(t *testing.T, newFrontend frontendFactory) {
		testServeFleetWire(t, newFrontend, entries)
	})
}

func testServeFleetWire(t *testing.T, newFrontend frontendFactory, entries []guide.FleetEntry) {
	router := guide.NewRouter()
	oracles := map[string]guide.Oracle{}
	for _, e := range entries {
		spec, err := machine.ByName(e.Machine)
		if err != nil {
			t.Fatal(err)
		}
		oracles[e.Machine] = guide.NewSimOracle(spec)
		if err := router.AddShard(e.Machine, e.Advisor, guide.WithOracle(oracles[e.Machine])); err != nil {
			t.Fatal(err)
		}
	}
	base := newFrontend(t, newServeHandler(router, nil))

	// Routed queries for both machines from one process; answers must match
	// each machine's own advisor.
	p := dataset.Problem{O: 146, V: 1096}
	for _, e := range entries {
		want, err := e.Advisor.Recommend(p, guide.ShortestTime, oracles[e.Machine])
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, base+"/v1/recommend",
			recommendRequest{Machine: e.Machine, O: p.O, V: p.V, Objective: "stq"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend %s: status %d body %s", e.Machine, resp.StatusCode, body)
		}
		var rec recommendResponse
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Machine != e.Machine || rec.Nodes != want.Config.Nodes || rec.Tile != want.Config.TileSize ||
			rec.PredSeconds != want.PredTime {
			t.Fatalf("%s routed answer %+v, in-process %+v", e.Machine, rec, want)
		}
	}

	// The two shards must answer DIFFERENTLY (different machines, different
	// models) — otherwise routing could be silently collapsed.
	ra, _ := recommendOne(context.Background(), router, recommendRequest{Machine: "aurora", O: p.O, V: p.V, Objective: "stq"})
	rf, _ := recommendOne(context.Background(), router, recommendRequest{Machine: "frontier", O: p.O, V: p.V, Objective: "stq"})
	if ra.PredSeconds == rf.PredSeconds {
		t.Fatal("aurora and frontier shards returned identical predictions; routing suspect")
	}

	// A mixed-machine batch routes each entry to its shard; an entry naming
	// an unknown machine fails alone without failing the batch.
	batch := batchRequest{Queries: []recommendRequest{
		{Machine: "aurora", O: 99, V: 718, Objective: "stq"},
		{Machine: "frontier", O: 99, V: 718, Objective: "bq"},
		{Machine: "perlmutter", O: 99, V: 718, Objective: "stq"},
	}}
	respB, body := postJSON(t, base+"/v1/batch", batch)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", respB.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Error != "" || br.Results[0].Result.Machine != "aurora" {
		t.Fatalf("batch aurora entry %+v", br.Results[0])
	}
	if br.Results[1].Error != "" || br.Results[1].Result.Machine != "frontier" {
		t.Fatalf("batch frontier entry %+v", br.Results[1])
	}
	if br.Results[2].Error == "" || !strings.Contains(br.Results[2].Error, "perlmutter") {
		t.Fatalf("batch unknown-machine entry %+v", br.Results[2])
	}

	// An un-machined recommend against a two-shard fleet is a 400.
	respU, body := postJSON(t, base+"/v1/recommend", recommendRequest{O: 99, V: 718, Objective: "stq"})
	if respU.StatusCode != http.StatusBadRequest {
		t.Fatalf("machine-less query on a 2-shard fleet: status %d body %s", respU.StatusCode, body)
	}

	// healthz: per-shard stats visible for both machines, plus per-endpoint
	// latency histograms for the routes exercised above (behind the proxy,
	// the histograms are the proxy's own route timings — same schema).
	respH, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health guide.HealthReport
	if err := json.NewDecoder(respH.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	respH.Body.Close()
	if len(health.Machines) != 2 {
		t.Fatalf("healthz lists %d shards", len(health.Machines))
	}
	perShard := map[string]guide.ShardHealth{}
	for _, sh := range health.Machines {
		perShard[sh.Machine] = sh
	}
	if perShard["aurora"].Sweeps == 0 || perShard["frontier"].Sweeps == 0 {
		t.Fatalf("per-shard sweeps missing: %+v", perShard)
	}
	if health.Aggregate.Sweeps != perShard["aurora"].Sweeps+perShard["frontier"].Sweeps {
		t.Fatalf("aggregate sweeps %d != shard sum", health.Aggregate.Sweeps)
	}
	for _, route := range []string{"recommend", "batch"} {
		hist, ok := health.Latency[route]
		if !ok || hist.Count == 0 {
			t.Fatalf("latency histogram for %s missing or empty: %+v", route, health.Latency)
		}
		if len(hist.Buckets) == 0 || hist.MeanMs <= 0 {
			t.Fatalf("latency %s has no buckets: %+v", route, hist)
		}
		// Cumulative buckets are monotone and end at or below the count.
		var prev uint64
		for _, bkt := range hist.Buckets {
			if bkt.Count < prev {
				t.Fatalf("latency %s buckets not cumulative: %+v", route, hist.Buckets)
			}
			prev = bkt.Count
		}
		if prev > hist.Count {
			t.Fatalf("latency %s cumulative %d exceeds count %d", route, prev, hist.Count)
		}
	}
}

// TestServeWarmSetAcrossRestart drives the Router warm-set API the way
// runServe does: serve traffic, save on shutdown, pre-sweep on next boot.
func TestServeWarmSetAcrossRestart(t *testing.T) {
	router, adv, oracle := testRouter(t)
	srv := httptest.NewServer(newServeHandler(router, nil))
	for _, p := range []dataset.Problem{{O: 99, V: 718}, {O: 146, V: 1096}} {
		resp, body := postJSON(t, srv.URL+"/v1/recommend", recommendRequest{O: p.O, V: p.V, Objective: "stq"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend: %d %s", resp.StatusCode, body)
		}
	}
	srv.Close()
	warm := filepath.Join(t.TempDir(), "warm.json")
	if err := router.SaveWarmSet(warm, 0); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh router over the same advisor, warm from file.
	restarted := guide.NewRouter()
	if err := restarted.AddShard("aurora", adv, guide.WithOracle(oracle)); err != nil {
		t.Fatal(err)
	}
	warmed, err := restarted.LoadWarmSet(warm)
	if err != nil || warmed != 2 {
		t.Fatalf("LoadWarmSet = %d, %v; want 2, nil", warmed, err)
	}
	srv2 := httptest.NewServer(newServeHandler(restarted, nil))
	defer srv2.Close()
	if resp, _ := postJSON(t, srv2.URL+"/v1/recommend", recommendRequest{O: 99, V: 718, Objective: "stq"}); resp.StatusCode != http.StatusOK {
		t.Fatal("warmed query failed")
	}
	st := restarted.AggregateStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-restart stats %+v: the warmed keys should hit", st)
	}
}

// TestServeGracefulShutdown pins the drain path: cancelling the serve
// context (what SIGINT/SIGTERM do in runServe) lets an in-flight request
// complete, runs the drain hook, and returns nil.
func TestServeGracefulShutdown(t *testing.T) {
	router, _, _ := testRouter(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	handler := newServeHandler(router, nil)
	started := make(chan struct{})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(300 * time.Millisecond) // in-flight work Shutdown must wait for
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "drained")
	})
	mux.Handle("/", handler)
	srv := &http.Server{Handler: mux}

	ctx, cancel := context.WithCancel(context.Background())
	drained := false
	done := make(chan error, 1)
	go func() {
		done <- serveUntilShutdown(ctx, srv, ln, 5*time.Second, func() error { drained = true; return nil })
	}()

	reqDone := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqDone <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		reqDone <- buf.String()
	}()
	<-started
	cancel() // SIGINT

	select {
	case body := <-reqDone:
		if body != "drained" {
			t.Fatalf("in-flight request during shutdown: %q", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntilShutdown never returned")
	}
	if !drained {
		t.Fatal("drain hook did not run")
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServeRejectsBadRequests covers the validation layer of every endpoint —
// semantic 400s, malformed-JSON 400s, and oversized-body 413s — directly and
// through the proxy (which must relay 4xx verbatim, never retry them).
func TestServeRejectsBadRequests(t *testing.T) {
	forEachFrontend(t, testServeRejectsBadRequests)
}

func testServeRejectsBadRequests(t *testing.T, newFrontend frontendFactory) {
	router, _, _ := testRouter(t)
	base := newFrontend(t, newServeHandler(router, nil))

	cases := []struct {
		name string
		path string
		body any
	}{
		{"zero o/v", "/v1/recommend", recommendRequest{O: 0, V: 0, Objective: "stq"}},
		{"negative o", "/v1/recommend", recommendRequest{O: -5, V: 100, Objective: "stq"}},
		{"bad objective", "/v1/recommend", recommendRequest{O: 99, V: 718, Objective: "fastest"}},
		{"unknown machine", "/v1/recommend", recommendRequest{Machine: "perlmutter", O: 99, V: 718, Objective: "stq"}},
		{"zero nodes", "/v1/predict", predictRequest{O: 99, V: 718, Nodes: 0, Tile: 80}},
		{"zero tile", "/v1/predict", predictRequest{O: 99, V: 718, Nodes: 100, Tile: 0}},
		{"predict unknown machine", "/v1/predict", predictRequest{Machine: "perlmutter", O: 99, V: 718, Nodes: 100, Tile: 80}},
		{"empty batch", "/v1/batch", batchRequest{}},
		{"batch bad entry", "/v1/batch", batchRequest{Queries: []recommendRequest{{O: 0, V: 1, Objective: "stq"}}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, base+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", tc.name, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
	}

	// Oversized and malformed bodies on every POST endpoint. The oversized
	// payload is valid JSON past the 1 MiB cap, so only MaxBytesReader can be
	// the thing rejecting it; the answer must be a structured 413 naming the
	// limit, not a hang or connection drop.
	oversized := `{"pad":"` + strings.Repeat("x", maxRequestBytes+1024) + `"}`
	for _, path := range []string{"/v1/recommend", "/v1/predict", "/v1/batch"} {
		wire := []struct {
			name       string
			payload    string
			wantStatus int
			wantInBody string
		}{
			{"oversized body", oversized, http.StatusRequestEntityTooLarge, "exceeds"},
			{"malformed JSON", "{nope", http.StatusBadRequest, "malformed"},
			{"empty body", "", http.StatusBadRequest, ""},
		}
		for _, tc := range wire {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(tc.payload))
			if err != nil {
				t.Fatalf("%s %s: %v", path, tc.name, err)
			}
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("%s %s: status %d (body %.100s), want %d", path, tc.name, resp.StatusCode, buf.String(), tc.wantStatus)
				continue
			}
			var er errorResponse
			if err := json.Unmarshal(buf.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("%s %s: error body %.100q not structured", path, tc.name, buf.String())
				continue
			}
			if tc.wantInBody != "" && !strings.Contains(er.Error, tc.wantInBody) {
				t.Errorf("%s %s: error %q does not mention %q", path, tc.name, er.Error, tc.wantInBody)
			}
		}
	}
}

// TestServeDrainSurfacesWarmSetFailure is the drain-path failure contract: a
// warm-set save that cannot be written must name the path and become the exit
// status of serveUntilShutdown — never a silent loss.
func TestServeDrainSurfacesWarmSetFailure(t *testing.T) {
	router, _, _ := testRouter(t)
	// Warm one key so there is something to save.
	srv := httptest.NewServer(newServeHandler(router, nil))
	if resp, body := postJSON(t, srv.URL+"/v1/recommend", recommendRequest{O: 99, V: 718, Objective: "stq"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup recommend: %d %s", resp.StatusCode, body)
	}
	srv.Close()

	// A directory is unwritable as a file: SaveWarmSet must fail.
	unwritable := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveUntilShutdown(ctx, &http.Server{Handler: newServeHandler(router, nil)}, ln,
			5*time.Second, saveWarmSetOnDrain(router, unwritable))
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unwritable warm-set path did not surface in exit status")
		}
		if !strings.Contains(err.Error(), unwritable) {
			t.Fatalf("drain error %q does not name the warm-set path %q", err, unwritable)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntilShutdown never returned")
	}

	// The happy path stays nil: a writable path saves and exits clean.
	writable := filepath.Join(t.TempDir(), "warm.json")
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		done2 <- serveUntilShutdown(ctx2, &http.Server{Handler: newServeHandler(router, nil)}, ln2,
			5*time.Second, saveWarmSetOnDrain(router, writable))
	}()
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("writable warm-set drain returned %v", err)
	}
	if _, err := os.Stat(writable); err != nil {
		t.Fatalf("warm set not written on clean drain: %v", err)
	}
}

// TestTrainArtifactMatchesRefit is the CLI acceptance criterion: a model
// trained by `parcost train` and loaded from its artifact recommends
// identically to the refit-in-process path with the same flags.
func TestTrainArtifactMatchesRefit(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.json")
	args := []string{"-machine", "aurora", "-gensize", "400", "-trees", "40", "-depth", "5", "-seed", "3", "-out", out}
	if err := runTrain(args); err != nil {
		t.Fatal(err)
	}

	loaded, machineName, err := guide.LoadAdvisor(out)
	if err != nil {
		t.Fatal(err)
	}
	if machineName != "aurora" {
		t.Fatalf("artifact machine %q", machineName)
	}

	// Refit in process exactly as `parcost stq -trees 40 -depth 5 -seed 3`
	// would without -model.
	d, spec, err := loadOrGenerate("", "aurora", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	refit, err := guide.NewAdvisor(buildGB(40, 5, 3), d)
	if err != nil {
		t.Fatal(err)
	}
	oracle := guide.NewSimOracle(spec)
	for _, obj := range []guide.Objective{guide.ShortestTime, guide.Budget} {
		for _, p := range []dataset.Problem{{O: 146, V: 1096}, {O: 99, V: 718}} {
			want, err := refit.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("artifact-loaded %v/%v = %+v, refit = %+v", p, obj, got, want)
			}
		}
	}
}

// TestQueryFlagValidation pins the CLI's rejection of nonsense problems:
// zero/negative O, V, nodes, tile, trees, or depth must error out instead
// of silently sweeping a meaningless configuration.
func TestQueryFlagValidation(t *testing.T) {
	cases := []struct {
		name        string
		args        []string
		withConfig  bool
		needProblem bool
		wantErr     string
	}{
		{"missing o/v", []string{}, false, true, "-o and -v"},
		{"zero o/v", []string{"-o", "0", "-v", "0"}, false, true, "-o and -v"},
		{"negative o", []string{"-o", "-146", "-v", "1096"}, false, true, "-o and -v"},
		{"zero v only", []string{"-o", "146", "-v", "0"}, false, true, "-o and -v"},
		{"predict missing nodes/tile", []string{"-o", "146", "-v", "1096"}, true, true, "-nodes and -tile"},
		{"predict zero nodes", []string{"-o", "146", "-v", "1096", "-nodes", "0", "-tile", "80"}, true, true, "-nodes and -tile"},
		{"predict negative tile", []string{"-o", "146", "-v", "1096", "-nodes", "300", "-tile", "-80"}, true, true, "-nodes and -tile"},
		{"zero trees", []string{"-o", "146", "-v", "1096", "-trees", "0"}, false, true, "-trees and -depth"},
		{"negative depth", []string{"-o", "146", "-v", "1096", "-depth", "-1"}, false, true, "-trees and -depth"},
		{"model with machine", []string{"-model", "m.json", "-machine", "frontier", "-o", "146", "-v", "1096"}, false, true, "no effect with -model"},
		{"model with trees", []string{"-model", "m.json", "-trees", "100", "-o", "146", "-v", "1096"}, false, true, "no effect with -model"},
		{"model with seed", []string{"-model", "m.json", "-seed", "9", "-o", "146", "-v", "1096"}, false, true, "no effect with -model"},
	}
	for _, tc := range cases {
		_, err := parseQueryFlags(tc.args, tc.withConfig, tc.needProblem)
		if err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// Valid invocations parse.
	if _, err := parseQueryFlags([]string{"-o", "146", "-v", "1096"}, false, true); err != nil {
		t.Errorf("valid stq flags rejected: %v", err)
	}
	if _, err := parseQueryFlags([]string{"-o", "146", "-v", "1096", "-nodes", "300", "-tile", "80"}, true, true); err != nil {
		t.Errorf("valid predict flags rejected: %v", err)
	}
	// eval does not need a problem size.
	if _, err := parseQueryFlags(nil, false, false); err != nil {
		t.Errorf("eval flags rejected: %v", err)
	}
	// -model alone (without training flags) is the supported fast path.
	if _, err := parseQueryFlags([]string{"-model", "m.json", "-o", "146", "-v", "1096"}, false, true); err != nil {
		t.Errorf("valid -model flags rejected: %v", err)
	}
}

func TestTrainFlagValidation(t *testing.T) {
	if err := runTrain([]string{}); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("train without -out: %v", err)
	}
	if err := runTrain([]string{"-out", "x.json", "-trees", "0"}); err == nil || !strings.Contains(err.Error(), "-trees") {
		t.Errorf("train with zero trees: %v", err)
	}
	// Fleet-flag conflicts.
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"machines with machine", []string{"-out", "x.json", "-machines", "aurora,frontier", "-machine", "aurora"}, "-machine"},
		{"machines with data", []string{"-out", "x.json", "-machines", "aurora,frontier", "-data", "d.csv"}, "-data"},
		{"machines empty entry", []string{"-out", "x.json", "-machines", "aurora,,frontier"}, "empty"},
		{"machines duplicate", []string{"-out", "x.json", "-machines", "aurora,aurora"}, "twice"},
		{"machines duplicate after trim", []string{"-out", "x.json", "-machines", "aurora, aurora"}, "twice"},
		{"machines unknown", []string{"-out", "x.json", "-machines", "aurora,perlmutter"}, "perlmutter"},
		{"zero gensize", []string{"-out", "x.json", "-gensize", "0"}, "-gensize"},
	} {
		if err := runTrain(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := runServe([]string{}); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("serve without -model: %v", err)
	}
	if err := runServe([]string{"-model", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("serve with missing artifact should error")
	}
	if err := runServe([]string{"-model", "m.json", "-drain", "0s"}); err == nil || !strings.Contains(err.Error(), "-drain") {
		t.Errorf("serve with zero drain: %v", err)
	}
}
