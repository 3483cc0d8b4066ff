package guide

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Prometheus text-format exporter for the observability the serving tier
// already collects: the per-route log-spaced latency histograms (Metrics)
// and the per-shard sweep-cache stats (Router.ShardStats). Nothing new is
// measured here — this renders the same numbers /v1/healthz reports, in the
// exposition format a Prometheus scraper ingests, so fleet deployments get
// scrape-ready dashboards without a sidecar translating JSON.

// PrometheusContentType is the Content-Type of the /metrics response.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders latency histograms and per-machine cache stats in
// Prometheus text exposition format. Either map may be nil (the proxy has
// latency histograms but no local sweep caches). Output is deterministic:
// routes and machines are emitted in sorted order.
func WritePrometheus(w io.Writer, latency map[string]LatencySnapshot, shards map[string]Stats) {
	writeLatency(w, latency)
	writeShards(w, shards)
}

// promFloat renders a float the way Prometheus clients do: shortest exact
// representation, so bucket bounds like 0.00005 stay greppable.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeLatency(w io.Writer, latency map[string]LatencySnapshot) {
	if len(latency) == 0 {
		return
	}
	routes := make([]string, 0, len(latency))
	for name := range latency {
		routes = append(routes, name)
	}
	sort.Strings(routes)
	fmt.Fprint(w, "# HELP parcost_request_duration_seconds Request wall time per route (cumulative log-spaced buckets).\n")
	fmt.Fprint(w, "# TYPE parcost_request_duration_seconds histogram\n")
	for _, name := range routes {
		s := latency[name]
		// Snapshot buckets are already cumulative and trimmed after the last
		// populated bound; requests slower than the last finite bound appear
		// only in +Inf, exactly the histogram contract.
		for _, b := range s.Buckets {
			fmt.Fprintf(w, "parcost_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				name, promFloat(b.LeMs/1e3), b.Count)
		}
		fmt.Fprintf(w, "parcost_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(w, "parcost_request_duration_seconds_sum{route=%q} %s\n",
			name, promFloat(s.MeanMs/1e3*float64(s.Count)))
		fmt.Fprintf(w, "parcost_request_duration_seconds_count{route=%q} %d\n", name, s.Count)
	}
}

func writeShards(w io.Writer, shards map[string]Stats) {
	if len(shards) == 0 {
		return
	}
	machines := make([]string, 0, len(shards))
	for name := range shards {
		machines = append(machines, name)
	}
	sort.Strings(machines)

	counter := func(metric, help string, value func(Stats) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, m := range machines {
			fmt.Fprintf(w, "%s{machine=%q} %d\n", metric, m, value(shards[m]))
		}
	}
	gauge := func(metric, help string, value func(Stats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, m := range machines {
			fmt.Fprintf(w, "%s{machine=%q} %d\n", metric, m, value(shards[m]))
		}
	}
	counter("parcost_sweep_cache_hits_total", "Sweep-cache hits, including coalesced waits.", func(s Stats) uint64 { return s.Hits })
	counter("parcost_sweep_cache_misses_total", "Sweep-cache misses (each triggered a grid sweep).", func(s Stats) uint64 { return s.Misses })
	counter("parcost_sweep_cache_expired_total", "TTL-expired entries dropped and re-swept.", func(s Stats) uint64 { return s.Expired })
	gauge("parcost_sweep_cache_entries", "Resident sweep-cache entries.", func(s Stats) int64 { return int64(s.Size) })
	gauge("parcost_sweep_cache_bytes", "Approximate resident sweep-cache bytes.", func(s Stats) int64 { return s.Bytes })
	counter("parcost_grid_sweeps_total", "Completed grid sweeps, including errored ones.", func(s Stats) uint64 { return s.SweepCount })
	counter("parcost_sweep_shed_queue_full_total", "Misses refused because the admission queue was full.", func(s Stats) uint64 { return s.ShedQueueFull })
	counter("parcost_sweep_shed_deadline_total", "Misses refused as deadline-infeasible before taking a slot.", func(s Stats) uint64 { return s.ShedDeadline })
	counter("parcost_sweep_shed_brownout_total", "Misses refused while brownout mode was active.", func(s Stats) uint64 { return s.ShedBrownout })
	counter("parcost_sweep_canceled_queued_total", "Queued callers that disconnected before their sweep started.", func(s Stats) uint64 { return s.CanceledQueued })
	counter("parcost_stale_served_total", "Brownout-mode degraded answers served from expired entries.", func(s Stats) uint64 { return s.StaleServed })
	counter("parcost_grid_memo_hits_total", "Sweeps that reused the predicted grid of a problem in the same threshold-lattice cell.", func(s Stats) uint64 { return s.MemoHits })
	counter("parcost_grid_memo_misses_total", "Sweeps that predicted their grid and stored it in the grid memo.", func(s Stats) uint64 { return s.MemoMisses })

	// Per-sweep wall time. The zero-sweep contract holds on the wire too: a
	// shard that has never swept emits no series here rather than a
	// misleading 0s minimum.
	fmt.Fprint(w, "# HELP parcost_sweep_duration_seconds Grid-sweep wall time (stat is min, mean, or max).\n")
	fmt.Fprint(w, "# TYPE parcost_sweep_duration_seconds gauge\n")
	secs := func(d time.Duration) string { return promFloat(d.Seconds()) }
	for _, m := range machines {
		s := shards[m]
		if s.SweepCount == 0 {
			continue
		}
		fmt.Fprintf(w, "parcost_sweep_duration_seconds{machine=%q,stat=\"min\"} %s\n", m, secs(s.SweepMin))
		fmt.Fprintf(w, "parcost_sweep_duration_seconds{machine=%q,stat=\"mean\"} %s\n", m, secs(s.SweepMean))
		fmt.Fprintf(w, "parcost_sweep_duration_seconds{machine=%q,stat=\"max\"} %s\n", m, secs(s.SweepMax))
	}
}
