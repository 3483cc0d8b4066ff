package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/rng"
)

const (
	// hotRate is serve-hot's open-loop arrival rate, well below what the
	// fleet answers closed-loop on two cores (3k–5k requests per second).
	hotRate = 1000.0
	// hotConns caps the open loop's connections to the proxy. An open loop
	// must not queue at the client: at 1000 per second and about 1.5 ms per
	// request, two connections (one per core) were busy three quarters of
	// the time, and on a slowed host same-code runs read p90s from 2.3 to
	// 12.6 ms while requests waited for a connection. With eight, two runs
	// on that host read 2.50 and 2.53 ms.
	hotConns = 8
	// zipfS skews serve-hot's key popularity.
	zipfS = 1.0
	// scheduleKeys is the key-index space of the open-loop schedule, mapped
	// onto hot keys through the Zipf table.
	scheduleKeys = 1 << 20
	// coldWarmup is how many unique keys serve-cold sends in set-up.
	coldWarmup = 16
	// coldChecked is how many cold answers an untraced run checks against
	// the in-process reference; a traced run checks every measured one.
	coldChecked = 4
	// replayKeys is how many hot keys a traced serve-hot run sweeps in
	// process with the timing wrappers.
	replayKeys = 4
	// overheadKeys is how many keys are swept in process both with and
	// without the timing wrappers to measure the tracing overhead.
	overheadKeys = 2
	// calSamples is how many calibration samples a serve run takes before
	// set-up, between set-up and the measured phase, and after it, each
	// time while the fleet does no work.
	calSamples = 10
	// hopRounds is how many proxied/direct request pairs the traced run
	// sends to measure the proxy hop.
	hopRounds = 200
)

// runServe runs serve-cold (hot=false) or serve-hot against a fresh fleet.
func runServe(ctx context.Context, o options, hot bool) (*report, error) {
	nproc := runtime.NumCPU()
	bin := filepath.Join(o.out, "bin", "parcost")
	bundle, hotRef, err := prepare(ctx, o, bin, nproc)
	if err != nil {
		return nil, err
	}
	logDir := filepath.Join(o.out, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	name := "serve-cold"
	if hot {
		name = "serve-hot"
	}
	tr := newTracer(o.trace)
	rep := newReport()
	ctl := newHTTPClient(4)
	load := newHTTPClient(nproc)

	// Set-up: spawn, wait for every /v1/healthz, then warm up. serve-hot
	// warms every hot key on both serves directly: the proxy hedges a slow
	// request onto the other serve, and a hedge that misses there starts a
	// full sweep, so a half-warm fleet would spend the measured phase
	// sweeping for nobody. serve-cold sends coldWarmup unique keys through
	// the proxy, enough to pass its 16-sample hedging gate (below it every
	// request slower than 50 ms is hedged) and to spend the retry budget's
	// start-up burst, so the measured phase sees steady-state hedging.
	cal := newCalibrator(nproc)
	if err := cal.sample(calSamples); err != nil {
		return nil, err
	}
	start := time.Now()
	f, err := startFleet(bin, bundle, logDir)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := f.waitReady(ctx, ctl, 150*time.Second); err != nil {
		return nil, err
	}
	keys := hotKeys()
	gen := newColdKeys(o.seed)
	var all []sample // every answer of the run, checked below
	if hot {
		warm := make([][]sample, len(f.serves))
		forEach(len(f.serves), len(f.serves), func(_, i int) {
			warm[i] = inParallel(ctx, load, f.serves[i].url, keys, nproc)
		})
		for _, w := range warm {
			all = append(all, w...)
		}
		all = append(all, inParallel(ctx, load, f.proxy.url, keys[:min(2*nproc, len(keys))], nproc)...)
	} else {
		warm := make([]query, coldWarmup)
		for i := range warm {
			warm[i] = gen.next()
		}
		all = append(all, inParallel(ctx, load, f.proxy.url, warm, nproc)...)
	}
	setup := time.Since(start)
	if err := cal.sample(calSamples); err != nil {
		return nil, err
	}

	// Measurement. serve-hot is an open loop at hotRate for the whole phase:
	// at a fixed offered rate its CPU per request and its latency do not
	// depend on how fast a contended host drains a closed loop. serve-cold
	// is a closed loop of nproc connections.
	before, err := f.snapshot(ctx, ctl)
	if err != nil {
		return nil, err
	}
	phase := time.Duration(o.seconds) * time.Second
	var measured []sample
	if hot {
		z := newZipf(len(keys), zipfS, o.seed)
		sched := admission.NewSchedule(o.seed, hotRate, int(hotRate*phase.Seconds()), scheduleKeys)
		measured = openLoop(ctx, newHTTPClient(hotConns), f.proxy.url, sched, func(k int) query {
			return keys[z.pick((float64(k)+0.5)/scheduleKeys)]
		}, tr)
	} else {
		measured = closedLoop(ctx, load, f.proxy.url, nproc, phase, func(int) query { return gen.next() }, tr)
	}
	after, err := f.snapshot(ctx, ctl)
	if err != nil {
		return nil, err
	}
	if err := cal.sample(calSamples); err != nil {
		return nil, err
	}
	all = append(all, measured...)

	answered := countOK(measured)
	if answered == 0 {
		return nil, fmt.Errorf("no request of the measured phase was answered")
	}
	rep.metrics["setup_s"] = setup.Seconds()
	lat := okLatencies(measured)
	rep.metrics["latency_p50_ms"] = ms(percentile(lat, 50))
	// The p90 is printed, not reported: on serve-hot it reads how the host
	// schedules four processes on two cores (README.md).
	var p90 float64
	if hot {
		// The median over one-second windows of each window's p90, so one
		// stalled second (a collection, a neighbour's burst) moves it by
		// one window's worth at most.
		var p90s []float64
		for _, w := range windows(measured, phase) {
			if len(w) > 0 {
				p90s = append(p90s, ms(percentile(w, 90)))
			}
		}
		p90 = medianOf(p90s)
	} else {
		// About 60 cold answers per 10 s: too few for a p99 or for windows.
		p90 = ms(percentile(lat, 90))
	}
	rep.line("latency p90, as measured: %.6g ms", p90)

	var fleetCPU time.Duration
	var peakKB int64
	for i := range after {
		fleetCPU += after[i].use.cpu - before[i].use.cpu
		peakKB = max(peakKB, after[i].use.hwmKB)
	}
	rep.metrics["cpu_ms_per_req"] = ms(fleetCPU) / float64(answered)
	rep.metrics["peak_rss_mb"] = float64(peakKB) / 1024
	cal.apply(rep)

	// In-process reference: the whole bundle on serve-cold (checked sample)
	// and in traced runs (replay); untraced serve-hot checks against the
	// cached hot-key answers only.
	var ip *inproc
	var loadTook time.Duration
	if !hot || o.trace {
		if ip, loadTook, err = loadInproc(bundle); err != nil {
			return nil, err
		}
	}
	// The keys answered in process: on serve-hot a seeded sample; on
	// serve-cold every measured key in traced runs and a seeded sample of
	// coldChecked keys otherwise.
	var replay []query
	switch {
	case hot:
		for _, i := range rng.New(o.seed).Sample(len(keys), replayKeys) {
			replay = append(replay, keys[i])
		}
	case o.trace:
		for _, s := range measured {
			if s.err == nil {
				replay = append(replay, s.q)
			}
		}
	default:
		replay = coldSample(measured, o.seed)
	}

	// Accuracy the fleet promises: the predicted seconds of each distinct
	// recommended configuration against its simulated time, per machine.
	apes := map[string][]float64{}
	seen := map[query]bool{}
	for _, s := range measured {
		if s.err != nil || seen[s.q] {
			continue
		}
		seen[s.q] = true
		var truth float64
		if hot {
			truth = hotRef[s.q].TrueSeconds
		} else {
			var ok bool
			cfg := dataset.Config{O: s.q.O, V: s.q.V, Nodes: s.ans.Nodes, TileSize: s.ans.Tile}
			truth, ok = guide.NewSimOracle(ip.specs[s.q.Machine]).TrueTime(cfg)
			rep.check(ok, "%v: served configuration %v has no simulated time", s.q, cfg)
		}
		if truth > 0 {
			apes[s.q.Machine] = append(apes[s.q.Machine], math.Abs(s.ans.PredSeconds-truth)/truth)
		}
	}
	for _, m := range benchMachines {
		if len(apes[m]) == 0 {
			return nil, fmt.Errorf("no %s answer in the measured phase", m)
		}
		rep.metrics["mape."+m] = meanOf(apes[m])
	}

	d := delta(before, after)
	served, sweeps := 0.0, 0.0
	for _, s := range d.serves {
		served += s.handled
		sweeps += s.sweeps
	}
	rep.line("%s measured phase: %d answers; the serves handled %.0f requests and ran %.0f sweeps; the proxy drew %.0f retries or hedges",
		name, answered, served, sweeps, d.withdrawn)

	if !o.trace {
		want := hotRef
		if !hot {
			refs, err := ip.references(replay, nproc)
			if err != nil {
				return nil, err
			}
			want = refMap(replay, refs)
		}
		verify(rep, all, want)
		return rep, nil
	}

	// Traced run: per-layer metrics.
	sweepSec, hits, misses, handlerSec, shed := 0.0, 0.0, 0.0, 0.0, 0.0
	totalSweeps, totalSweepSec := 0.0, 0.0
	for i, s := range d.serves {
		sweepSec += s.sweepSec
		hits += s.hits
		misses += s.misses
		handlerSec += s.handlerSec
		shed += s.shed
		totalSweeps += after[i+1].prom["parcost_grid_sweeps_total"]
		totalSweepSec += after[i+1].prom.sweepSeconds()
	}
	L := rep.metrics
	// Server-reported sweep time: serve-cold's measured sweeps; serve-hot
	// sweeps only while warming, so it reports those.
	if hot {
		L["guide.sweep_ms"] = 1000 * totalSweepSec / math.Max(totalSweeps, 1)
	} else {
		L["guide.sweep_ms"] = 1000 * sweepSec / math.Max(sweeps, 1)
	}
	L["guide.sweeps_per_req"] = sweeps / float64(answered)
	L["guide.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	L["admission.wait_ms"] = 1000 * (handlerSec - sweepSec) / math.Max(served, 1)
	L["admission.shed_ratio"] = shed / math.Max(served, 1)
	L["fleetproxy.attempts_per_req"] = served / float64(answered)
	L["fleetproxy.budget_withdrawals_per_req"] = d.withdrawn / float64(answered)
	L["fleetproxy.cpu_ms_per_req"] = ms(after[0].use.cpu-before[0].use.cpu) / float64(answered)
	L["fleetproxy.rss_mb"] = float64(after[0].use.hwmKB) / 1024
	var serveCPU time.Duration
	var serveKB int64
	for i := 1; i < len(after); i++ {
		serveCPU += after[i].use.cpu - before[i].use.cpu
		serveKB = max(serveKB, after[i].use.hwmKB)
	}
	L["serve.cpu_ms_per_req"] = ms(serveCPU) / float64(answered)
	L["serve.rss_mb"] = float64(serveKB) / 1024
	lags := make([]time.Duration, 0, len(measured))
	for _, s := range measured {
		lags = append(lags, s.lag)
	}
	L["loadgen.lag_p99_ms"] = ms(percentile(lags, 99))
	L["guide.bundle_load_s"] = loadTook.Seconds()
	if fi, err := os.Stat(bundle); err == nil {
		L["guide.bundle_mb"] = float64(fi.Size()) / 1e6
	}
	L["guide.bundle_save_s"] = 0

	// In-process replay of the replay keys over the same bundle, with timing
	// wrappers around the model and the simulator oracle. On serve-cold the
	// replay is the reference for every measured answer.
	rs, err := replaySweeps(ctx, ip, replay, tr, nproc)
	if err != nil {
		return nil, err
	}
	want := hotRef
	if hot {
		for i, q := range replay {
			rep.check(hotRef[q] == rs.answers[i], "%v: replay %+v, cached reference %+v", q, rs.answers[i], hotRef[q])
		}
	} else {
		want = refMap(replay, rs.answers)
	}
	verify(rep, all, want)
	L["ccsd.oracle_ms_per_sweep"] = ms(rs.probe.oracleTime) / float64(len(replay))
	L["ccsd.oracle_calls_per_sweep"] = float64(rs.probe.oracleCalls) / float64(len(replay))
	L["ccsd.feasible_ratio"] = float64(rs.probe.oracleKept) / float64(rs.probe.oracleCalls)
	L["ml.predict_ms_per_sweep"] = ms(rs.probe.predictTime) / float64(len(replay))
	L["ml.predict_rows_per_sweep"] = float64(rs.probe.predictRows) / float64(len(replay))
	selfT := tr.selfTimes()
	L["guide.sweep_self_ms"] = ms(selfT["guide.recommend"].self) / float64(len(replay))
	L["guide.lookup_us"] = float64(rs.lookup) / float64(time.Microsecond)
	L["trace.overhead_pct"] = 100 * (rs.traced - rs.untraced).Seconds() / rs.untraced.Seconds()

	// Proxy hop and serve HTTP cost, from cache hits on the owning serve.
	hop, direct, err := probeHop(ctx, f, measured)
	if err != nil {
		return nil, err
	}
	L["fleetproxy.hop_ms"] = ms(hop)
	L["serve.http_ms"] = ms(direct - rs.lookup)

	// Workload-only metrics read zero here.
	for _, k := range []string{"ml.predict_ms", "ensemble.fit_s", "modelsel.candidates"} {
		L[k] = 0
	}
	for _, c := range searchCodes {
		L["modelsel.search_s."+c] = 0
	}

	blocking := 1.0 // sweeps on a request's blocking path: every cold request misses
	if hot {
		blocking = 0
	}
	base := ms(mean(okLatencies(measured)))
	basis := "closed loop, mean latency from send"
	if hot {
		basis = "open loop, mean latency from the due time"
	}
	rows := []timeRow{
		{"fleetproxy: hop (proxied minus direct RTT)", L["fleetproxy.hop_ms"]},
		{"cmd/parcost serve: HTTP (direct RTT minus lookup)", L["serve.http_ms"]},
		{"guide: cache lookup (in-process hit)", L["guide.lookup_us"] / 1000},
	}
	if hot {
		rows = append(rows, timeRow{"loadgen: send lag (mean)", ms(mean(lags))})
	} else {
		rows = append(rows, timeRow{"admission: wait (server handler minus sweep)", L["admission.wait_ms"]})
	}
	rows = append(rows,
		timeRow{"guide: sweep self time (argmin, features)", blocking * L["guide.sweep_self_ms"]},
		timeRow{"ccsd: simulator oracle", blocking * L["ccsd.oracle_ms_per_sweep"]},
		timeRow{"ml: GB predict", blocking * L["ml.predict_ms_per_sweep"]},
	)
	timeTable{
		title: fmt.Sprintf("%s, per request; base = %s over %d answers (%.4g ms)", name, basis, answered, base),
		base:  base, unit: "ms", rows: rows,
	}.render(rep)
	if !hot {
		// serve-hot's server-reported sweeps are its warm-up, 2·nproc at a time
		// on nproc cores, so they are no base for in-process sweeps.
		covered := L["ccsd.oracle_ms_per_sweep"] + L["ml.predict_ms_per_sweep"] + L["guide.sweep_self_ms"]
		rep.line("sweep coverage: in-process oracle + predict + self = %.4g ms = %.1f%% of the server-reported sweep (%.4g ms)",
			covered, 100*covered/L["guide.sweep_ms"], L["guide.sweep_ms"])
	}
	rep.line("tracing overhead: traced %v vs untraced %v over %d in-process sweeps (%.3g%%)",
		rs.traced, rs.untraced, overheadKeys, L["trace.overhead_pct"])
	path, err := tr.write(filepath.Join(o.out, "trace"), fmtSpanFile(name, o.seed))
	if err != nil {
		return nil, err
	}
	rep.line("spans written to %s", path)
	return rep, nil
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return n
}

func okLatencies(ss []sample) []time.Duration {
	out := make([]time.Duration, 0, len(ss))
	for _, s := range ss {
		if s.err == nil {
			out = append(out, s.latency)
		}
	}
	return out
}

// windows splits a phase into whole one-second windows by each answered
// sample's offset and returns the latencies of each; a trailing partial
// window is dropped, unless the phase is shorter than one window.
func windows(ss []sample, phase time.Duration) [][]time.Duration {
	out := make([][]time.Duration, max(1, int(phase/time.Second)))
	for _, s := range ss {
		if i := int(s.at / time.Second); s.err == nil && i < len(out) {
			out[i] = append(out[i], s.latency)
		}
	}
	return out
}

// medianOf returns the median of xs, averaging the middle pair of an even
// count; it reorders xs.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func meanOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// coldSample picks a seeded sample of answered cold keys to check in
// process, half per machine where the run answered enough of each.
func coldSample(ss []sample, seed uint64) []query {
	byMachine := map[string][]query{}
	for _, s := range ss {
		if s.err == nil {
			byMachine[s.q.Machine] = append(byMachine[s.q.Machine], s.q)
		}
	}
	r := rng.New(seed + 1)
	var out []query
	for _, m := range benchMachines {
		qs := byMachine[m]
		for _, i := range r.Sample(len(qs), min(len(qs), coldChecked/len(benchMachines))) {
			out = append(out, qs[i])
		}
	}
	return out
}

// verify counts every request of the run as attempted and each one that
// failed as failed, once: no answer (a transport error or a non-200
// status, 429 and 503 sheds included), an answer to another query or a
// degraded one, or an answer that differs from its in-process reference in
// want. Every failure is also a failed check, so the run is not correct.
func verify(rep *report, ss []sample, want map[query]refAnswer) {
	for _, s := range ss {
		rep.attempted++
		ref, checked := want[s.q]
		var problem string
		switch {
		case s.err != nil:
			problem = s.err.Error()
		case !s.ans.echoes(s.q):
			problem = fmt.Sprintf("served %+v", s.ans)
		case checked && !ref.matches(s.ans):
			problem = fmt.Sprintf("served %+v, in-process %+v", s.ans, ref)
		}
		if problem != "" {
			rep.failed++
			rep.check(false, "%v: %s", s.q, problem)
		}
	}
}

// fleetDelta is what each process counted during the measured phase.
type fleetDelta struct {
	withdrawn float64 // proxy retry-budget withdrawals: retries and hedges
	serves    []serveDelta
}

type serveDelta struct {
	handled, handlerSec float64 // /v1/recommend requests and their handler time
	sweeps, sweepSec    float64
	hits, misses, shed  float64
}

func delta(before, after fleetState) fleetDelta {
	d := fleetDelta{withdrawn: after[0].prom["parcost_retry_budget_withdrawn_total"] - before[0].prom["parcost_retry_budget_withdrawn_total"]}
	for i := 1; i < len(after); i++ {
		a, b := after[i].prom, before[i].prom
		diff := func(k string) float64 { return a[k] - b[k] }
		d.serves = append(d.serves, serveDelta{
			handled:    diff(`parcost_request_duration_seconds_count{route="recommend"}`),
			handlerSec: diff(`parcost_request_duration_seconds_sum{route="recommend"}`),
			sweeps:     diff("parcost_grid_sweeps_total"),
			sweepSec:   a.sweepSeconds() - b.sweepSeconds(),
			hits:       diff("parcost_sweep_cache_hits_total"),
			misses:     diff("parcost_sweep_cache_misses_total"),
			shed:       diff("parcost_admission_shed_total"),
		})
	}
	return d
}

// replayStats is the outcome of the traced in-process replay.
type replayStats struct {
	answers          []refAnswer
	probe            sweepProbe    // summed over the replay workers
	traced, untraced time.Duration // overheadKeys sweeps with and without the wrappers
	lookup           time.Duration // median in-process cache hit
}

// tracedRouter builds a guide.Router over the loaded bundle whose shards wrap
// the model and a guide.SimOracle in timing wrappers reporting to p.
func tracedRouter(ip *inproc, p *sweepProbe) (*guide.Router, error) {
	r := guide.NewRouter(guide.WithSweepLimit(1))
	for _, m := range benchMachines {
		adv := ip.advisors[m]
		wrapped := &guide.Advisor{Model: timedModel{inner: adv.Model, p: p}, Grid: adv.Grid}
		if err := r.AddShard(m, wrapped, guide.WithOracle(timedOracle{inner: guide.NewSimOracle(ip.specs[m]), p: p})); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedRecommend answers q on a traced Router under a "guide.recommend"
// span, the parent of the wrappers' spans.
func tracedRecommend(ctx context.Context, r *guide.Router, p *sweepProbe, q query) (guide.Recommendation, time.Duration, error) {
	p.cur = p.tr.id()
	p.req = p.cur
	start := time.Now()
	rec, _, err := r.RecommendCtx(ctx, q.Machine, dataset.Problem{O: q.O, V: q.V}, objective(q.Objective))
	end := time.Now()
	if err != nil {
		return rec, 0, fmt.Errorf("replaying %v: %w", q, err)
	}
	p.tr.addID(p.cur, 0, p.req, "guide.recommend", start, end)
	return rec, end.Sub(start), nil
}

// replaySweeps answers keys in process on workers goroutines, each with its
// own traced Router so the wrappers of one sweep see only that sweep; the
// fleet's owning serve likewise runs one sweep per core. It then times
// cache hits, and measures the tracing overhead by sweeping overheadKeys
// keys on fresh Routers with and without the wrappers, alternating which
// goes first, after one unmeasured sweep that warms the process.
func replaySweeps(ctx context.Context, ip *inproc, keys []query, tr *tracer, workers int) (replayStats, error) {
	workers = min(workers, len(keys))
	probes := make([]sweepProbe, workers)
	routers := make([]*guide.Router, workers)
	for w := range probes {
		probes[w].tr = tr
		r, err := tracedRouter(ip, &probes[w])
		if err != nil {
			return replayStats{}, err
		}
		routers[w] = r
	}
	rs := replayStats{answers: make([]refAnswer, len(keys))}
	errs := make([]error, len(keys))
	sweptBy := make([]int, len(keys))
	forEach(len(keys), workers, func(w, i int) {
		q := keys[i]
		rec, _, err := tracedRecommend(ctx, routers[w], &probes[w], q)
		sweptBy[i] = w
		if err != nil {
			errs[i] = err
			return
		}
		truth, _ := guide.NewSimOracle(ip.specs[q.Machine]).TrueTime(rec.Config)
		rs.answers[i] = refAnswer{Nodes: rec.Config.Nodes, Tile: rec.Config.TileSize, PredSeconds: rec.PredTime, TrueSeconds: truth}
	})
	if err := errors.Join(errs...); err != nil {
		return replayStats{}, err
	}
	for _, p := range probes {
		rs.probe.oracleCalls += p.oracleCalls
		rs.probe.oracleKept += p.oracleKept
		rs.probe.predictRows += p.predictRows
		rs.probe.oracleTime += p.oracleTime
		rs.probe.predictTime += p.predictTime
	}

	// Time cache hits on the Router that swept the first key.
	hitKey, hitRouter := keys[0], routers[sweptBy[0]]
	const lookups = 2000
	hits := make([]time.Duration, 0, lookups)
	for i := 0; i < lookups; i++ {
		start := time.Now()
		if _, _, err := hitRouter.RecommendCtx(ctx, hitKey.Machine, dataset.Problem{O: hitKey.O, V: hitKey.V}, objective(hitKey.Objective)); err != nil {
			return replayStats{}, err
		}
		hits = append(hits, time.Since(start))
	}
	rs.lookup = percentile(hits, 50)

	// Tracing overhead, on a tracer of its own so its spans stay out of the
	// per-layer figures.
	scratch := &sweepProbe{tr: newTracer(true)}
	traced, err := tracedRouter(ip, scratch)
	if err != nil {
		return replayStats{}, err
	}
	plain := guide.NewRouter(guide.WithSweepLimit(1))
	for _, m := range benchMachines {
		if err := plain.AddShard(m, ip.advisors[m], guide.WithOracle(guide.NewSimOracle(ip.specs[m]))); err != nil {
			return replayStats{}, err
		}
	}
	sweepPlain := func(q query) (time.Duration, error) {
		start := time.Now()
		_, _, err := plain.RecommendCtx(ctx, q.Machine, dataset.Problem{O: q.O, V: q.V}, objective(q.Objective))
		return time.Since(start), err
	}
	warm := keys[0]
	warm.O++ // a key no Router here has seen
	if _, err := sweepPlain(warm); err != nil {
		return replayStats{}, err
	}
	for i, q := range keys[:min(overheadKeys, len(keys))] {
		var pt, tt time.Duration
		var err1, err2 error
		if i%2 == 0 {
			pt, err1 = sweepPlain(q)
			_, tt, err2 = tracedRecommend(ctx, traced, scratch, q)
		} else {
			_, tt, err2 = tracedRecommend(ctx, traced, scratch, q)
			pt, err1 = sweepPlain(q)
		}
		if err := errors.Join(err1, err2); err != nil {
			return replayStats{}, err
		}
		rs.untraced += pt
		rs.traced += tt
	}
	return rs, nil
}

// probeHop sends hopRounds pairs of requests for answered keys, one through
// the proxy and one straight to the serve that owns the key's machine, on
// one connection each, alternating. Both are cache hits on the same serve,
// so the difference of the medians is the proxy hop. It returns the hop and
// the median direct round trip.
func probeHop(ctx context.Context, f *fleet, measured []sample) (time.Duration, time.Duration, error) {
	var qs []query
	for _, s := range measured {
		if s.err == nil && len(qs) < 32 {
			qs = append(qs, s.q)
		}
	}
	viaProxy, straight := newHTTPClient(1), newHTTPClient(1)
	var proxied, direct []time.Duration
	for i := -1; i < hopRounds; i++ { // round -1 opens both connections
		q := qs[(i+len(qs))%len(qs)]
		t := time.Now()
		if _, err := recommend(ctx, viaProxy, f.proxy.url, q); err != nil {
			return 0, 0, fmt.Errorf("hop probe via proxy: %w", err)
		}
		p := time.Since(t)
		t = time.Now()
		if _, err := recommend(ctx, straight, f.owner[q.Machine].url, q); err != nil {
			return 0, 0, fmt.Errorf("hop probe direct: %w", err)
		}
		if i >= 0 {
			proxied, direct = append(proxied, p), append(direct, time.Since(t))
		}
	}
	d := percentile(direct, 50)
	return percentile(proxied, 50) - d, d, nil
}
