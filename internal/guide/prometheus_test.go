package guide

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusFormat pins the exporter against a known snapshot: the
// histogram is cumulative with a +Inf bucket equal to the total count, sum
// and bounds are in seconds, and per-machine cache series carry the machine
// label in sorted order.
func TestWritePrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.Observe("recommend", 30*time.Microsecond) // first bucket (≤50µs)
	m.Observe("recommend", 80*time.Microsecond) // second bucket (≤100µs)
	m.Observe("recommend", 40*time.Second)      // past the last finite bound: +Inf only

	var buf bytes.Buffer
	WritePrometheus(&buf, m.Snapshot(), map[string]Stats{
		"frontier": {Hits: 2, Misses: 3, Size: 3, Bytes: 3 * entryBytes, SweepCount: 3,
			SweepMin: time.Millisecond, SweepMean: 2 * time.Millisecond, SweepMax: 3 * time.Millisecond,
			MemoHits: 1, MemoMisses: 2},
		"aurora": {Misses: 1, Size: 1, Bytes: entryBytes}, // zero sweeps: no duration series
	})
	out := buf.String()

	for _, want := range []string{
		"# TYPE parcost_request_duration_seconds histogram",
		`parcost_request_duration_seconds_bucket{route="recommend",le="5e-05"} 1`,
		`parcost_request_duration_seconds_bucket{route="recommend",le="0.0001"} 2`,
		`parcost_request_duration_seconds_bucket{route="recommend",le="+Inf"} 3`,
		`parcost_request_duration_seconds_count{route="recommend"} 3`,
		`parcost_sweep_cache_hits_total{machine="aurora"} 0`,
		`parcost_sweep_cache_hits_total{machine="frontier"} 2`,
		`parcost_sweep_cache_misses_total{machine="frontier"} 3`,
		fmt.Sprintf(`parcost_sweep_cache_bytes{machine="aurora"} %d`, entryBytes),
		`parcost_grid_sweeps_total{machine="frontier"} 3`,
		"# TYPE parcost_grid_memo_hits_total counter",
		`parcost_grid_memo_hits_total{machine="aurora"} 0`,
		`parcost_grid_memo_hits_total{machine="frontier"} 1`,
		"# TYPE parcost_grid_memo_misses_total counter",
		`parcost_grid_memo_misses_total{machine="aurora"} 0`,
		`parcost_grid_memo_misses_total{machine="frontier"} 2`,
		`parcost_sweep_duration_seconds{machine="frontier",stat="min"} 0.001`,
		`parcost_sweep_duration_seconds{machine="frontier",stat="mean"} 0.002`,
		`parcost_sweep_duration_seconds{machine="frontier",stat="max"} 0.003`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Zero-sweep contract on the wire: aurora emits no sweep-duration series.
	if strings.Contains(out, `parcost_sweep_duration_seconds{machine="aurora"`) {
		t.Errorf("zero-sweep shard exported a sweep duration:\n%s", out)
	}
	// aurora sorts before frontier in every series family.
	if strings.Index(out, `hits_total{machine="aurora"}`) > strings.Index(out, `hits_total{machine="frontier"}`) {
		t.Error("machines not emitted in sorted order")
	}
	// The histogram sum is count × mean, in seconds.
	if !strings.Contains(out, `parcost_request_duration_seconds_sum{route="recommend"} 40.00011`) {
		t.Errorf("histogram sum missing or mis-scaled:\n%s", out)
	}
}

// TestWritePrometheusEmpty: nil inputs produce no output at all (an empty
// scrape, not a panic or a stray HELP line).
func TestWritePrometheusEmpty(t *testing.T) {
	var buf bytes.Buffer
	WritePrometheus(&buf, nil, nil)
	if buf.Len() != 0 {
		t.Fatalf("empty export wrote %q", buf.String())
	}
}
