package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
)

// runServe loads a trained fleet bundle (one machine or many) and serves
// STQ/BQ/predict queries over HTTP, backed by a guide.Router of per-machine
// Service shards (bounded sweep caches, one fleet-wide sweep semaphore,
// coalesced concurrent queries).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		model   = fs.String("model", "", "trained artifact: fleet bundle or single advisor (required; from `parcost train`)")
		addr    = fs.String("addr", ":8080", "listen address")
		cache   = fs.Int("cache", guide.DefaultCacheSize, "sweep-cache entries per shard (0 disables the cache)")
		ttl     = fs.Duration("ttl", 0, "sweep-cache entry TTL, e.g. 30m (0 = no expiry)")
		warmset = fs.String("warmset", "", "warm-set file: pre-sweep its keys at startup, save the hottest keys on shutdown")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout on SIGINT/SIGTERM")
	)
	admCfg := admissionFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("-model is required")
	}
	if *cache < 0 || *ttl < 0 || *drain <= 0 {
		return fmt.Errorf("-cache and -ttl must be non-negative and -drain positive")
	}
	adm, err := admCfg()
	if err != nil {
		return err
	}
	router, _, err := loadFleetRouter(*model, adm,
		guide.WithCacheSize(*cache), guide.WithTTL(*ttl))
	if err != nil {
		return err
	}
	if *warmset != "" {
		if warmed, err := router.LoadWarmSet(*warmset); err == nil {
			fmt.Printf("Warm set %s: pre-swept %d keys\n", *warmset, warmed)
		} else if !errors.Is(err, os.ErrNotExist) {
			// A missing file is the normal first boot; anything else (corrupt
			// warm set, unreadable path) should be visible but not fatal.
			fmt.Fprintf(os.Stderr, "warning: warm set %s not loaded: %v\n", *warmset, err)
		}
	}
	fmt.Printf("Serving fleet %v on %s\n", router.Machines(), *addr)
	return runUntilSignal(*addr, newServeHandler(router, nil), *drain, nil, saveWarmSetOnDrain(router, *warmset))
}

// fleetShard is one machine of a loaded fleet: its advisor and the oracle
// its shard prunes with.
type fleetShard struct {
	guide.FleetEntry
	oracle *guide.SimOracle
}

// loadFleetRouter loads a trained fleet bundle and builds the router
// `parcost serve` and `parcost retrain` answer from: one shard per machine
// behind adm, pruned by that machine's SimOracle and cached per opts. The
// router's SwapShard keeps each shard's settings, so retrain promotions
// answer as serve does.
func loadFleetRouter(path string, adm *admission.Controller, opts ...guide.ServiceOption) (*guide.Router, []fleetShard, error) {
	entries, _, err := guide.LoadFleet(path)
	if err != nil {
		return nil, nil, err
	}
	// Loading leaves the bundle's file bytes (about 40 MB for the paper's
	// two-machine GB) as garbage beside the decoded trees. Return it to the
	// OS now: otherwise the first sweeps' allocations stack on pages the
	// runtime has not yet released, raising peak RSS (perfbench serve-cold
	// on 2 vCPUs read about 165 MiB without this call, 136 MiB with it).
	debug.FreeOSMemory()
	router := guide.NewRouter(guide.WithAdmission(adm))
	shards := make([]fleetShard, 0, len(entries))
	for _, e := range entries {
		spec, err := machine.ByName(e.Machine)
		if err != nil {
			return nil, nil, fmt.Errorf("artifact machine: %w", err)
		}
		sh := fleetShard{FleetEntry: e, oracle: guide.NewSimOracle(spec)}
		if err := router.AddShard(e.Machine, e.Advisor, append([]guide.ServiceOption{guide.WithOracle(sh.oracle)}, opts...)...); err != nil {
			return nil, nil, err
		}
		shards = append(shards, sh)
		fmt.Printf("Shard %s: %s advisor (grid %d nodes × %d tiles)\n",
			e.Machine, e.Advisor.Model.Name(), len(e.Advisor.Grid.Nodes), len(e.Advisor.Grid.TileSizes))
	}
	return router, shards, nil
}

// runUntilSignal serves h on addr through hardenedServer until SIGINT or
// SIGTERM, then drains it with serveUntilShutdown. background, when
// non-nil, runs alongside the server under a context the signal cancels;
// onDrained runs once in-flight requests have finished.
func runUntilSignal(addr string, h http.Handler, drain time.Duration, background func(context.Context), onDrained func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if background != nil {
		go background(ctx)
	}
	return serveUntilShutdown(ctx, hardenedServer(addr, h), nil, drain, onDrained)
}

// admissionFlags registers the overload-control flags shared by `parcost
// serve` and `parcost retrain` and returns a closure that, after Parse,
// validates them and builds the fleet's admission controller.
func admissionFlags(fs *flag.FlagSet) func() (*admission.Controller, error) {
	var (
		sweepLimit = fs.Int("sweep-limit", 0, "concurrent sweep slots across the fleet (0 = number of CPUs)")
		maxQueue   = fs.Int("max-queue", admission.DefaultMaxQueue, "max requests waiting for a sweep slot; arrivals past it are shed with 503")
		rate       = fs.Float64("rate", 0, "per-client request rate limit in requests/second, keyed on the X-Parcost-Client header (0 = unlimited)")
		rateBurst  = fs.Float64("rate-burst", 0, "per-client burst allowance for -rate (0 = same as -rate, min 1)")
		brownout   = fs.Duration("brownout", 0, "queue-delay target, e.g. 500ms: delay sustained above it enters brownout mode (0 disables)")
		brWindow   = fs.Duration("brownout-window", 0, "sustain interval for entering and leaving brownout (0 = 10x -brownout)")
	)
	return func() (*admission.Controller, error) {
		// !(x >= 0) so NaN fails the float checks too.
		if *sweepLimit < 0 || *maxQueue < 0 || !(*rate >= 0) || !(*rateBurst >= 0) || *brownout < 0 || *brWindow < 0 {
			return nil, fmt.Errorf("-sweep-limit, -max-queue, -rate, -rate-burst, -brownout, and -brownout-window must be non-negative")
		}
		return guide.NewAdmissionController(admission.ControllerConfig{
			Capacity:       *sweepLimit,
			MaxQueue:       *maxQueue,
			BrownoutTarget: *brownout,
			BrownoutWindow: *brWindow,
			Rate:           *rate,
			Burst:          *rateBurst,
		}), nil
	}
}

// Hardened http.Server limits: without them a client that trickles header
// bytes (slow loris) or never finishes a body pins a connection forever, and
// idle keep-alives accumulate across deploy cycles. Request bodies are
// additionally capped at maxRequestBytes via http.MaxBytesReader, answered
// with a structured 413.
const (
	serverReadHeaderTimeout = 5 * time.Second
	serverReadTimeout       = 30 * time.Second
	serverIdleTimeout       = 120 * time.Second
	maxRequestBytes         = 1 << 20
)

// hardenedServer builds the http.Server shared by serve and proxy with the
// slow-client limits above. No WriteTimeout: cold sweeps legitimately run
// long, and the drain timeout already bounds shutdown.
func hardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		ReadTimeout:       serverReadTimeout,
		IdleTimeout:       serverIdleTimeout,
	}
}

// saveWarmSetOnDrain is the drain hook runServe installs: persist the warm
// set after in-flight requests finish. A save failure names the path and
// becomes the process exit status — losing the warm set silently would turn
// the next boot's first burst into unexplained cold-sweep latency.
func saveWarmSetOnDrain(router *guide.Router, path string) func() error {
	return func() error {
		if path == "" {
			return nil
		}
		if err := router.SaveWarmSet(path, 0); err != nil {
			return fmt.Errorf("warm set %s not saved on drain: %w", path, err)
		}
		fmt.Printf("Warm set saved to %s\n", path)
		return nil
	}
}

// serveUntilShutdown runs the server until it fails or ctx is cancelled
// (SIGINT/SIGTERM in production). On cancellation it stops accepting new
// connections, lets in-flight requests — including long cold sweeps — finish
// within the drain timeout via http.Server.Shutdown, then runs onDrained
// (warm-set persistence). A clean drain returns nil; a drain-hook failure is
// the return value (and thus the exit status) when shutdown itself
// succeeded, so a lost warm set is never silent. ln, when non-nil, supplies
// the listener (tests bind port 0 to learn the address); nil uses srv.Addr.
func serveUntilShutdown(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, onDrained func() error) error {
	errCh := make(chan error, 1)
	go func() {
		if ln != nil {
			errCh <- srv.Serve(ln)
			return
		}
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err // bind failure or other serve error; nothing to drain
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	var drainErr error
	if onDrained != nil {
		if drainErr = onDrained(); drainErr != nil {
			fmt.Fprintf(os.Stderr, "error: drain: %v\n", drainErr)
		}
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return drainErr
}

// Request/response schema of the serve endpoints. All bodies are JSON. The
// machine field routes a query to its fleet shard; it may be omitted when
// the fleet serves exactly one machine.
type recommendRequest struct {
	Machine   string `json:"machine,omitempty"`
	O         int    `json:"o"`
	V         int    `json:"v"`
	Objective string `json:"objective"` // "stq" or "bq"
}

type recommendResponse struct {
	Machine     string  `json:"machine"`
	O           int     `json:"o"`
	V           int     `json:"v"`
	Objective   string  `json:"objective"`
	Nodes       int     `json:"nodes"`
	Tile        int     `json:"tile"`
	PredSeconds float64 `json:"pred_seconds"`
	PredValue   float64 `json:"pred_value"` // seconds (STQ) or node-hours (BQ)

	// Degraded marks a brownout-mode stale answer: served from an expired
	// cache entry instead of a fresh sweep. Mirrored in the
	// X-Parcost-Degraded response header.
	Degraded bool `json:"degraded,omitempty"`
}

type predictRequest struct {
	Machine string `json:"machine,omitempty"`
	O       int    `json:"o"`
	V       int    `json:"v"`
	Nodes   int    `json:"nodes"`
	Tile    int    `json:"tile"`
}

type predictResponse struct {
	Machine       string  `json:"machine"`
	PredSeconds   float64 `json:"pred_seconds"`
	PredNodeHours float64 `json:"pred_node_hours"`
}

type batchRequest struct {
	Queries []recommendRequest `json:"queries"`
}

type batchEntry struct {
	Result *recommendResponse `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`

	// Shed entries carry the machine-readable refusal reason and, when the
	// server can estimate one, a retry hint in seconds — the batch envelope
	// is 200, so per-entry sheds surface here instead of in a status code.
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

type batchResponse struct {
	Results []batchEntry `json:"results"`
}

// observeRequest reports a configuration that actually ran and how long an
// iteration took, feeding the retrain daemon's drift monitors.
type observeRequest struct {
	Machine string  `json:"machine,omitempty"`
	O       int     `json:"o"`
	V       int     `json:"v"`
	Nodes   int     `json:"nodes"`
	Tile    int     `json:"tile"`
	Seconds float64 `json:"seconds"`
}

type errorResponse struct {
	Error string `json:"error"`

	// Set on overload sheds: the machine-readable refusal reason
	// (queue_full, deadline_infeasible, brownout, rate_limited) and the
	// Retry-After hint in seconds, mirroring the Retry-After header.
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// decodeJSON reads a size-capped JSON request body into dst, answering a
// structured 413 when the body exceeds maxRequestBytes and a structured 400
// when it is malformed. Returns false when a response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed JSON body: " + err.Error()})
		return false
	}
	return true
}

// Overload-control request headers. X-Parcost-Client keys the per-client
// rate limiter; X-Parcost-Deadline-Ms propagates the caller's remaining
// time budget into admission, so a sweep that cannot finish in time is
// refused up front instead of computed for nobody. X-Parcost-Degraded marks
// brownout-mode stale answers on the way out.
const (
	clientHeader   = "X-Parcost-Client"
	deadlineHeader = "X-Parcost-Deadline-Ms"
	degradedHeader = "X-Parcost-Degraded"
)

// clientKey identifies the caller for rate limiting: the X-Parcost-Client
// header when present, else the connection's remote host (so an anonymous
// greedy client is still one bucket, not a limiter bypass).
func clientKey(r *http.Request) string {
	if c := r.Header.Get(clientHeader); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// requestContext derives the handler context from the caller's deadline
// header: a positive X-Parcost-Deadline-Ms bounds the request's context,
// which admission then judges sweeps against. An unparseable or
// non-positive value is a client error.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get(deadlineHeader)
	if h == "" {
		return r.Context(), func() {}, nil
	}
	ms, err := strconv.Atoi(h)
	// Past MaxInt64 nanoseconds the Duration would wrap negative and the
	// request would be abandoned at once instead of refused.
	if err != nil || ms <= 0 || time.Duration(ms) > math.MaxInt64/time.Millisecond {
		return nil, nil, fmt.Errorf("%s must be a positive integer of milliseconds (got %q)", deadlineHeader, h)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// writeShed maps an admission refusal onto the wire: 429 for rate limiting,
// 503 for queue-full/deadline/brownout sheds, each with a Retry-After
// header and a structured body naming the reason. Returns false when err is
// not a shed (the caller handles it as a plain error). A caller that
// disconnected gets nothing written — there is nobody to read it.
func writeShed(w http.ResponseWriter, r *http.Request, err error) bool {
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		return false
	}
	if shed.Reason == admission.ReasonAbandoned {
		// The request's context ended while it was queued. If the caller
		// hung up, any body is unreadable; if its deadline header expired,
		// the answer is already too late. Either way: drop, don't compute.
		if r.Context().Err() == nil {
			writeRetryable(w, http.StatusServiceUnavailable, shed)
		}
		return true
	}
	status := http.StatusServiceUnavailable
	if shed.Reason == admission.ReasonRateLimited {
		status = http.StatusTooManyRequests
	}
	writeRetryable(w, status, shed)
	return true
}

// writeRetryable answers one shed with its Retry-After header and body.
func writeRetryable(w http.ResponseWriter, status int, shed *admission.ShedError) {
	secs := shed.RetryAfterSeconds()
	if secs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, errorResponse{
		Error:      shed.Error(),
		Reason:     string(shed.Reason),
		RetryAfter: secs,
	})
}

// newServeHandler builds the HTTP API over a guide.Router. Split from
// runServe so tests drive the exact handler the daemon mounts. obs, when
// non-nil, receives /v1/observe reports (the retrain daemon's drift
// monitors); a plain `parcost serve` passes nil and the endpoint answers
// 501 so clients learn observation ingest is not wired up (501, not 503:
// the condition is configuration, not a transient fault, so the proxy
// relays it instead of failing over).
//
// Overload control rides the router's admission controller: the per-client
// rate limiter fronts every query endpoint, request deadlines propagate
// from X-Parcost-Deadline-Ms into admission, and sheds answer 429/503 with
// Retry-After (see writeShed).
func newServeHandler(router *guide.Router, obs guide.Observer) http.Handler {
	mux := http.NewServeMux()
	metrics := guide.NewMetrics()
	adm := router.Admission()

	// rateLimited fronts the query endpoints with the per-client token
	// buckets. healthz/metrics stay unlimited: shedding observability while
	// overloaded would blind the operator exactly when they need to see.
	rateLimited := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if ok, retry := adm.Limiter.Allow(clientKey(r)); !ok {
				writeRetryable(w, http.StatusTooManyRequests, &admission.ShedError{
					Reason: admission.ReasonRateLimited, RetryAfter: retry,
				})
				return
			}
			h(w, r)
		}
	}

	// Prometheus scrape endpoint. Deliberately NOT instrumented: scraping
	// every 15s would swamp the latency histograms it exports.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", guide.PrometheusContentType)
		guide.WritePrometheus(w, metrics.Snapshot(), router.ShardStats())
		admission.WritePrometheus(w, adm.Health())
		// The retrain daemon's observer carries its own metric families
		// (retrain cycles, promotions, rollbacks, gate failures).
		if pw, ok := obs.(interface{ WritePrometheus(io.Writer) }); ok {
			pw.WritePrometheus(w)
		}
	})

	mux.HandleFunc("POST /v1/observe", metrics.Instrument("observe", rateLimited(func(w http.ResponseWriter, r *http.Request) {
		if adm.BrownoutActive() {
			// Observation ingest triggers drift checks and possible refits —
			// precisely the optional work a browned-out server must refuse.
			writeRetryable(w, http.StatusServiceUnavailable, adm.ShedBrownout())
			return
		}
		var req observeRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if obs == nil {
			writeJSON(w, http.StatusNotImplemented, errorResponse{
				Error: "observation ingest requires the retrain daemon (run `parcost retrain`)"})
			return
		}
		// Resolve the machine like every other endpoint, so a defaulted
		// single-shard fleet works and unknown machines fail loudly.
		machineName, _, err := router.ResolveShard(req.Machine)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		o := guide.Observation{
			Machine: machineName,
			Config:  dataset.Config{O: req.O, V: req.V, Nodes: req.Nodes, TileSize: req.Tile},
			Seconds: req.Seconds,
		}
		if err := o.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if err := obs.Observe(o); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted", "machine": machineName})
	})))

	mux.HandleFunc("GET /v1/healthz", metrics.Instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if adm.BrownoutActive() {
			status = "brownout"
		}
		health := adm.Health()
		resp := guide.HealthReport{
			Status:    status,
			Aggregate: guide.HealthFromStats(router.AggregateStats()),
			Latency:   metrics.Snapshot(),
			Admission: &health,
		}
		stats := router.ShardStats()
		for _, name := range router.Machines() {
			svc, err := router.Shard(name)
			if err != nil {
				continue // removed between listing and resolve
			}
			resp.Machines = append(resp.Machines, guide.ShardHealth{
				Machine:     name,
				Model:       svc.Advisor().Model.Name(),
				CacheHealth: guide.HealthFromStats(stats[name]),
			})
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	// Warm-set handoff endpoints: GET exports the fleet's hottest keys in
	// the same versioned format SaveWarmSet writes; POST pre-sweeps an
	// exported set through this fleet. Together they let a proxy drain a
	// backend into its replacement without a shared filesystem.
	mux.HandleFunc("GET /v1/warmset", metrics.Instrument("warmset", func(w http.ResponseWriter, r *http.Request) {
		data, err := guide.EncodeWarmSet(router.ExportWarmSet(0))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	}))

	mux.HandleFunc("POST /v1/warmset", metrics.Instrument("warmset", func(w http.ResponseWriter, r *http.Request) {
		var raw json.RawMessage
		if !decodeJSON(w, r, &raw) {
			return
		}
		ws, err := guide.DecodeWarmSet(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		warmed, err := router.ImportWarmSet(ws)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"warmed": warmed})
	}))

	mux.HandleFunc("POST /v1/recommend", metrics.Instrument("recommend", rateLimited(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, err := requestContext(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		defer cancel()
		var req recommendRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := recommendOne(ctx, router, req)
		if err != nil {
			if writeShed(w, r, err) {
				return
			}
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if resp.Degraded {
			w.Header().Set(degradedHeader, "stale")
		}
		writeJSON(w, http.StatusOK, resp)
	})))

	mux.HandleFunc("POST /v1/batch", metrics.Instrument("batch", rateLimited(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, err := requestContext(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		defer cancel()
		var req batchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if len(req.Queries) == 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch requires at least one query"})
			return
		}
		// Validate every query up front so a malformed entry rejects the
		// batch before any sweeps run. Machine resolution stays per-entry:
		// a batch may mix machines, and an unknown one fails only its entry.
		queries := make([]guide.RoutedQuery, len(req.Queries))
		for i, q := range req.Queries {
			obj, err := parseObjective(q.Objective)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
				return
			}
			if q.O <= 0 || q.V <= 0 {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("query %d: o and v must be positive (got o=%d v=%d)", i, q.O, q.V)})
				return
			}
			queries[i] = guide.RoutedQuery{
				Machine: q.Machine,
				Query:   guide.Query{Problem: dataset.Problem{O: q.O, V: q.V}, Objective: obj},
			}
		}
		results := router.RecommendBatchCtx(ctx, queries)
		resp := batchResponse{Results: make([]batchEntry, len(results))}
		for i, res := range results {
			if res.Err != nil {
				entry := batchEntry{Error: res.Err.Error()}
				var shed *admission.ShedError
				if errors.As(res.Err, &shed) {
					entry.Reason = string(shed.Reason)
					entry.RetryAfter = shed.RetryAfterSeconds()
				}
				resp.Results[i] = entry
				continue
			}
			rr := toRecommendResponse(req.Queries[i], res.Rec)
			rr.Machine = res.Machine // resolved shard name, not the (possibly empty) request field
			rr.Degraded = res.Stale
			resp.Results[i] = batchEntry{Result: &rr}
		}
		writeJSON(w, http.StatusOK, resp)
	})))

	mux.HandleFunc("POST /v1/predict", metrics.Instrument("predict", rateLimited(func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.O <= 0 || req.V <= 0 || req.Nodes <= 0 || req.Tile <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("o, v, nodes, and tile must all be positive (got o=%d v=%d nodes=%d tile=%d)", req.O, req.V, req.Nodes, req.Tile)})
			return
		}
		machineName, svc, err := router.ResolveShard(req.Machine)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		cfg := dataset.Config{O: req.O, V: req.V, Nodes: req.Nodes, TileSize: req.Tile}
		secs := svc.PredictTime(cfg)
		writeJSON(w, http.StatusOK, predictResponse{
			Machine:       machineName,
			PredSeconds:   secs,
			PredNodeHours: float64(cfg.Nodes) * secs / 3600,
		})
	})))

	return mux
}

// recommendOne validates and answers a single recommend request under the
// caller's context (deadline and disconnect propagate into admission). The
// response echoes the machine name resolved atomically with the shard
// lookup, so a defaulted query reports the shard that actually answered
// even if the fleet composition changes mid-request.
func recommendOne(ctx context.Context, router *guide.Router, req recommendRequest) (recommendResponse, error) {
	obj, err := parseObjective(req.Objective)
	if err != nil {
		return recommendResponse{}, err
	}
	if req.O <= 0 || req.V <= 0 {
		return recommendResponse{}, fmt.Errorf("o and v must be positive (got o=%d v=%d)", req.O, req.V)
	}
	machineName, svc, err := router.ResolveShard(req.Machine)
	if err != nil {
		return recommendResponse{}, err
	}
	rec, stale, err := svc.RecommendCtx(ctx, dataset.Problem{O: req.O, V: req.V}, obj)
	if err != nil {
		return recommendResponse{}, err
	}
	out := toRecommendResponse(req, rec)
	out.Machine = machineName
	out.Degraded = stale
	return out, nil
}

func toRecommendResponse(req recommendRequest, rec guide.Recommendation) recommendResponse {
	return recommendResponse{
		Machine: req.Machine,
		O:       req.O, V: req.V, Objective: rec.Objective.String(),
		Nodes: rec.Config.Nodes, Tile: rec.Config.TileSize,
		PredSeconds: rec.PredTime, PredValue: rec.PredValue,
	}
}

// parseObjective maps the wire objective name to a guide.Objective.
func parseObjective(s string) (guide.Objective, error) {
	switch s {
	case "stq", "STQ":
		return guide.ShortestTime, nil
	case "bq", "BQ":
		return guide.Budget, nil
	default:
		return 0, fmt.Errorf("objective must be \"stq\" or \"bq\" (got %q)", s)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
