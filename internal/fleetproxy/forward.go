package fleetproxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parcost/internal/admission"
	"parcost/internal/guide"
)

// maxUpstreamBytes caps relayed backend responses; a sane backend's largest
// body (a big batch) is far below it.
const maxUpstreamBytes = 32 << 20

type proxyError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler mounts the proxy's HTTP API: the full /v1 serving contract
// (recommend, batch, predict, healthz) plus the drain admin endpoint and a
// Prometheus /metrics scrape of the proxy's own latency histograms.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", p.metrics.Instrument("healthz", p.handleHealthz))
	mux.HandleFunc("POST /v1/recommend", p.metrics.Instrument("recommend", p.handleSingle("/v1/recommend")))
	mux.HandleFunc("POST /v1/predict", p.metrics.Instrument("predict", p.handleSingle("/v1/predict")))
	mux.HandleFunc("POST /v1/observe", p.metrics.Instrument("observe", p.handleSingle("/v1/observe")))
	mux.HandleFunc("POST /v1/batch", p.metrics.Instrument("batch", p.handleBatch))
	mux.HandleFunc("POST /v1/admin/drain", p.metrics.Instrument("drain", p.handleDrain))
	// Uninstrumented like the serve-side /metrics: scrapes must not swamp
	// the histograms they export. The proxy has no local sweep caches, so
	// only the latency families are emitted — plus the retry-budget gauge
	// and counters when the budget is enabled.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", guide.PrometheusContentType)
		guide.WritePrometheus(w, p.metrics.Snapshot(), nil)
		if p.budget != nil {
			admission.WriteBudgetPrometheus(w, p.budget.Stats())
		}
	})
	return mux
}

// readBody reads a size-capped request body, answering a structured 413 on
// overflow. Returns nil with a response written on failure.
func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, proxyError{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		} else {
			writeJSON(w, http.StatusBadRequest, proxyError{Error: "reading request body: " + err.Error()})
		}
		return nil, false
	}
	return body, true
}

// roundTrip is one deadline-bounded upstream exchange with no breaker or
// retry involvement (forwarding attempts, health fetches, drain admin
// calls); the body is read under maxUpstreamBytes.
func (p *Proxy) roundTrip(ctx context.Context, method, url string, body []byte) (upstream, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return upstream{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return upstream{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBytes))
	if err != nil {
		return upstream{}, err
	}
	return upstream{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: data}, nil
}

// fetchHealth is one backend's /v1/healthz report, fetched through
// roundTrip: a transport error, a non-200 status or an undecodable body is
// an error.
func (p *Proxy) fetchHealth(ctx context.Context, backendURL string) (guide.HealthReport, error) {
	var rep guide.HealthReport
	res, err := p.roundTrip(ctx, http.MethodGet, backendURL+"/v1/healthz", nil)
	if err == nil && res.status != http.StatusOK {
		err = fmt.Errorf("status %d", res.status)
	}
	if err == nil {
		err = json.Unmarshal(res.body, &rep)
	}
	return rep, err
}

// attemptOut is one forwarding attempt's outcome. ok means the backend
// answered below 500: 2xx is relayed as a success, and 4xx too — a
// validation error is the client's to see, and retrying it elsewhere would
// only duplicate work to get the same answer. 501 is the one 5xx relayed
// verbatim: Not Implemented states a backend's deliberate configuration
// (e.g. /v1/observe on a plain serve without the retrain daemon), so a
// replica would answer the same and failing over just burns the budget.
type attemptOut struct {
	res  upstream
	err  error
	dead bool // see connFailure
}

func (a attemptOut) ok() bool {
	return a.err == nil &&
		(a.res.status < http.StatusInternalServerError || a.res.status == http.StatusNotImplemented)
}

// connFailure reports whether err says the backend is down rather than slow
// or failing: the dial was refused, or the connection was reset or closed
// before any response arrived. Only client.Do wraps its errors in
// *url.Error, so a failure while reading a response body never counts.
func connFailure(err error) bool {
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		strings.Contains(err.Error(), errServerClosedIdle)
}

// errServerClosedIdle is the text of net/http's unexported error for a
// pooled connection the backend closed before the request got an answer.
const errServerClosedIdle = "http: server closed idle connection"

// tryBackends runs the fault-tolerant forwarding loop over a key's failover
// candidates: attempt the primary; retry the next replica (with backoff and
// jitter) on a failed exchange or 5xx, up to the per-request retry cap;
// hedge one duplicate onto the next replica when the in-flight attempt
// outlives the hedge threshold. First sub-500 answer wins and cancels the
// rest. Returns ok=false when every admitted candidate failed (or none were
// admitted) — the caller chooses the degradation policy.
//
// Every extra attempt — sequential retry or hedge — additionally withdraws
// from the shared fleet-wide retry budget, which earns tokens only from
// initial requests. Under a fleet-wide brownout the per-request ladder would
// multiply offered backend QPS by 1+Retries (and hedges on top); the budget
// caps that amplification at ~RetryBudget extra load regardless of how many
// requests are failing at once. The one exception is a dead backend (see
// connFailure): its attempt put no load on anything, so failing over from it
// is immediate and free. Otherwise a backend's death would fail all its
// in-flight requests at once, drain the budget, and strand them while a
// healthy replica stood by.
func (p *Proxy) tryBackends(ctx context.Context, path string, body []byte, cands []*backendState) (upstream, bool) {
	p.budget.Deposit() // each initial request earns a fraction of a retry token
	if len(cands) == 0 {
		return upstream{}, false
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan attemptOut, len(cands))
	next := 0
	inflight := 0
	launch := func(delay time.Duration) {
		b := cands[next]
		next++
		inflight++
		go func() {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					results <- attemptOut{err: ctx.Err()}
					return
				}
			}
			out := attemptOut{}
			out.res, out.err = p.roundTrip(ctx, http.MethodPost, b.url+path, body)
			out.dead = connFailure(out.err)
			if out.ok() {
				b.breaker.Success()
			} else if ctx.Err() == nil { // a cancelled loser is not a backend failure
				b.breaker.Failure()
			}
			results <- out
		}()
	}

	launch(0)
	maxSeq := 1 + p.cfg.Retries // sequential attempts; a hedge is extra
	launched := 1
	retries := 0
	var hedge <-chan time.Time
	if !p.cfg.Hedge.Disabled && len(cands) > 1 {
		hedge = time.After(p.hedgeDelay(strings.TrimPrefix(path, "/v1/")))
	}
	for {
		select {
		case out := <-results:
			inflight--
			if out.ok() {
				return out.res, true
			}
			if launched < maxSeq && next < len(cands) && out.dead {
				launch(0)
				launched++
			} else if launched < maxSeq && next < len(cands) && p.budget.Withdraw() {
				retries++
				launch(p.backoff(retries))
				launched++
			} else if inflight == 0 {
				return upstream{}, false
			}
		case <-hedge:
			hedge = nil
			if next < len(cands) && p.budget.Withdraw() {
				launch(0) // hedged duplicate: no backoff, no sequential-cap charge
			}
		case <-ctx.Done():
			return upstream{}, false
		}
	}
}

func writeUpstream(w http.ResponseWriter, res upstream) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// retryAfterSeconds is the degradation contract's recovery hint: one breaker
// window is when an open backend next admits trials.
func (p *Proxy) retryAfterSeconds() string {
	s := int(p.cfg.BreakerWindow / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// degrade answers a request whose every candidate failed: a stale cached
// response re-marked "degraded": true when one exists, else a structured 503
// with Retry-After. Never a hang, never an empty reply.
func (p *Proxy) degrade(w http.ResponseWriter, key string) {
	if res, stored, ok := p.stale.get(key); ok {
		w.Header().Set("Content-Type", res.contentType)
		w.Header().Set("X-Parcost-Degraded", "true")
		w.Header().Set("X-Parcost-Stale-Age", strconv.FormatInt(int64(p.cfg.Now().Sub(stored)/time.Second), 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(degradedBody(res.body))
		return
	}
	w.Header().Set("Retry-After", p.retryAfterSeconds())
	writeJSON(w, http.StatusServiceUnavailable, proxyError{
		Error: "all backends unavailable for this request; retry after the breaker window"})
}

// handleSingle forwards the machine-keyed single-request endpoints
// (/v1/recommend, /v1/predict, /v1/observe). The machine key is
// sniffed from the body without full validation — the backend owns the
// request schema, so its error bodies pass through verbatim and every
// serve-side test of those contracts holds through the proxy.
func (p *Proxy) handleSingle(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := p.readBody(w, r)
		if !ok {
			return
		}
		var probe struct {
			Machine string `json:"machine"`
		}
		_ = json.Unmarshal(body, &probe) // malformed JSON routes by "" and fails on the backend

		res, ok := p.tryBackends(r.Context(), path, body, p.candidates(probe.Machine))
		if !ok {
			p.degrade(w, staleKey(path, body))
			return
		}
		if res.status == http.StatusOK {
			p.stale.put(staleKey(path, body), res, p.cfg.Now())
		}
		writeUpstream(w, res)
	}
}

// handleBatch forwards /v1/batch, splitting a mixed-machine batch into one
// sub-batch per machine so each group follows its own primary/failover
// order. Entries whose every backend failed degrade to per-entry errors
// (the batch contract already carries them); if every group failed the
// response is the structured 503. A single-group batch — always the case
// behind a one-backend proxy — relays the backend response verbatim.
func (p *Proxy) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		Queries []json.RawMessage `json:"queries"`
	}
	groups := make(map[string][]int) // machine key -> original indices
	if err := json.Unmarshal(body, &probe); err == nil {
		for i, q := range probe.Queries {
			var qp struct {
				Machine string `json:"machine"`
			}
			_ = json.Unmarshal(q, &qp)
			groups[qp.Machine] = append(groups[qp.Machine], i)
		}
	}

	// Malformed or empty batches forward verbatim so the backend's canonical
	// validation answer (400) comes back unchanged; likewise a batch whose
	// machines all hash to one group.
	if len(groups) <= 1 {
		key := ""
		for k := range groups {
			key = k //parcost:bless maprange the len(groups) <= 1 guard means at most one iteration, which is order-independent
		}
		res, ok := p.tryBackends(r.Context(), "/v1/batch", body, p.candidates(key))
		if !ok {
			w.Header().Set("Retry-After", p.retryAfterSeconds())
			writeJSON(w, http.StatusServiceUnavailable, proxyError{
				Error: "all backends unavailable for this batch; retry after the breaker window"})
			return
		}
		writeUpstream(w, res)
		return
	}

	type groupOut struct {
		key  string
		idxs []int
		res  upstream
		ok   bool
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outs := make([]groupOut, len(keys))
	done := make(chan int, len(keys))
	for gi, k := range keys {
		go func(gi int, key string) {
			idxs := groups[key]
			sub := struct {
				Queries []json.RawMessage `json:"queries"`
			}{Queries: make([]json.RawMessage, len(idxs))}
			for j, i := range idxs {
				sub.Queries[j] = probe.Queries[i]
			}
			data, _ := json.Marshal(sub)
			res, ok := p.tryBackends(r.Context(), "/v1/batch", data, p.candidates(key))
			outs[gi] = groupOut{key: key, idxs: idxs, res: res, ok: ok}
			done <- gi
		}(gi, k)
	}
	for range keys {
		<-done
	}

	// A backend that rejected its sub-batch outright (4xx) speaks for the
	// whole request: on one backend the same batch would have been rejected
	// whole. Relay the first group's rejection. (Its error message may index
	// queries within the sub-batch, not the original; the offending values
	// are still named.)
	for _, out := range outs {
		if out.ok && out.res.status != http.StatusOK {
			writeUpstream(w, out.res)
			return
		}
	}

	merged := make([]json.RawMessage, len(probe.Queries))
	anyOK := false
	for _, out := range outs {
		if !out.ok {
			for _, i := range out.idxs {
				e, _ := json.Marshal(map[string]string{
					"error": fmt.Sprintf("machine %q: all backends unavailable (degraded)", out.key)})
				merged[i] = e
			}
			continue
		}
		anyOK = true
		var br struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(out.res.body, &br); err != nil || len(br.Results) != len(out.idxs) {
			for _, i := range out.idxs {
				e, _ := json.Marshal(map[string]string{"error": "backend returned an unreadable batch response"})
				merged[i] = e
			}
			continue
		}
		for j, i := range out.idxs {
			merged[i] = br.Results[j]
		}
	}
	if !anyOK {
		w.Header().Set("Retry-After", p.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, proxyError{
			Error: "all backends unavailable for this batch; retry after the breaker window"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Results []json.RawMessage `json:"results"`
	}{Results: merged})
}

// BackendHealth is one backend's block in the proxy's /v1/healthz.
type BackendHealth struct {
	Backend      string  `json:"backend"`
	Reachable    bool    `json:"reachable"`
	Breaker      string  `json:"breaker"`
	Score        float64 `json:"score"`
	ProbeAgeMs   float64 `json:"probe_age_ms"`
	ProbedOnce   bool    `json:"probed_once"`
	HealthyProbe bool    `json:"healthy"`
}

// ProxyHealth is the proxy's /v1/healthz body: the merged fleet report in
// the standard shape (so fleet clients and the serve-side health checks read
// it unchanged), plus per-backend proxy state. Latency histograms are the
// PROXY's own route timings — the per-backend ones remain on each backend.
// RetryBudget is present only when the shared retry budget is enabled.
type ProxyHealth struct {
	guide.HealthReport
	Backends    []BackendHealth        `json:"backends"`
	RetryBudget *admission.BudgetStats `json:"retry_budget,omitempty"`
}

// handleHealthz aggregates health across backends: each reachable backend's
// report is fetched live and merged per machine (replicas of a machine sum,
// following the Stats merge contract); unreachable backends or non-closed
// breakers mark the whole fleet "degraded".
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := p.backendList()
	type fetched struct {
		rep guide.HealthReport
		err error
	}
	reps := make([]fetched, len(backends))
	done := make(chan int, len(backends))
	for i, b := range backends {
		go func(i int, b *backendState) {
			reps[i].rep, reps[i].err = p.fetchHealth(r.Context(), b.url)
			done <- i
		}(i, b)
	}
	for range backends {
		<-done
	}

	resp := ProxyHealth{HealthReport: guide.HealthReport{
		Status:  "ok",
		Latency: p.metrics.Snapshot(),
	}}
	if p.budget != nil {
		bs := p.budget.Stats()
		resp.RetryBudget = &bs
	}
	shardAt := make(map[string]int)
	now := p.cfg.Now()
	for i, b := range backends {
		healthy, score, lastProbe := b.snapshot()
		bh := BackendHealth{
			Backend:      b.url,
			Reachable:    reps[i].err == nil,
			Breaker:      b.breaker.State().String(),
			Score:        score,
			ProbedOnce:   !lastProbe.IsZero(),
			HealthyProbe: healthy,
		}
		if bh.ProbedOnce {
			bh.ProbeAgeMs = float64(now.Sub(lastProbe)) / float64(time.Millisecond)
		}
		resp.Backends = append(resp.Backends, bh)
		if reps[i].err != nil || b.breaker.State() != BreakerClosed {
			resp.Status = "degraded"
		}
		if reps[i].err != nil {
			continue
		}
		for _, sh := range reps[i].rep.Machines {
			if at, ok := shardAt[sh.Machine]; ok {
				resp.Machines[at].CacheHealth = resp.Machines[at].CacheHealth.Merge(sh.CacheHealth)
			} else {
				shardAt[sh.Machine] = len(resp.Machines)
				resp.Machines = append(resp.Machines, sh)
			}
		}
		resp.Aggregate = resp.Aggregate.Merge(reps[i].rep.Aggregate)
	}
	sort.Slice(resp.Machines, func(i, j int) bool { return resp.Machines[i].Machine < resp.Machines[j].Machine })
	writeJSON(w, http.StatusOK, resp)
}

// handleDrain is the shard-migration admin endpoint:
// POST /v1/admin/drain {"backend": "host:port"}.
func (p *Proxy) handleDrain(w http.ResponseWriter, r *http.Request) {
	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Backend == "" {
		writeJSON(w, http.StatusBadRequest, proxyError{Error: "body must be {\"backend\": \"host:port\"}"})
		return
	}
	warmed, err := p.Drain(r.Context(), req.Backend)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, proxyError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"drained": normalizeBackend(req.Backend),
		"warmed":  warmed,
	})
}
