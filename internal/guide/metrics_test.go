package guide

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMetricsPercentile(t *testing.T) {
	ms := time.Millisecond
	rep := func(d time.Duration, n int) []time.Duration { return slices.Repeat([]time.Duration{d}, n) }
	cases := []struct {
		name      string
		obs       []time.Duration
		p         float64
		wantBound time.Duration
		wantCount uint64
	}{
		{name: "no observations", p: 95},
		{name: "fewer than the hedge gate", obs: []time.Duration{ms, 2 * ms, 4 * ms}, p: 95,
			wantBound: 6400 * time.Microsecond, wantCount: 3}, // rank ceil(2.85) = 3: 4 ms ≤ 50µs·2^7
		{name: "exactly on a bound", obs: rep(1600*time.Microsecond, 20), p: 95,
			wantBound: 1600 * time.Microsecond, wantCount: 20},
		{name: "nearest rank picks the lower bucket", obs: append(rep(ms, 19), time.Second), p: 95,
			wantBound: 1600 * time.Microsecond, wantCount: 20}, // rank 19 of 20 is 1 ms
		{name: "p100 is the maximum's bucket", obs: append(rep(ms, 19), time.Second), p: 100,
			wantBound: 1638400 * time.Microsecond, wantCount: 20},
		{name: "tiny p still ranks the first observation", obs: []time.Duration{10 * time.Microsecond}, p: 0.001,
			wantBound: latencyBucketBase, wantCount: 1},
		{name: "beyond the last finite bound", obs: append(rep(ms, 4), rep(time.Minute, 16)...), p: 95,
			wantBound: math.MaxInt64, wantCount: 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			for _, d := range tc.obs {
				m.Observe("recommend", d)
			}
			m.Observe("batch", time.Hour) // another route never moves this one
			bound, n := m.Percentile("recommend", tc.p)
			if bound != tc.wantBound || n != tc.wantCount {
				t.Fatalf("Percentile = %v, %d; want %v, %d", bound, n, tc.wantBound, tc.wantCount)
			}
			if len(tc.obs) > 0 && bound < nearestRank(tc.obs, tc.p) {
				t.Fatalf("bound %v below the observations' own percentile %v", bound, nearestRank(tc.obs, tc.p))
			}
		})
	}
	if bound, n := NewMetrics().Percentile("unknown", 95); bound != 0 || n != 0 {
		t.Fatalf("unknown route = %v, %d; want 0, 0", bound, n)
	}
}

func TestMetricsPercentileAllocatesNothing(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 64; i++ {
		m.Observe("recommend", time.Duration(i)*time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Percentile("recommend", 95) }); allocs != 0 {
		t.Fatalf("Percentile allocated %v times per call", allocs)
	}
}

// nearestRank is the p-th percentile of obs by the nearest-rank rule (the
// ceil(n·p/100)-th smallest).
func nearestRank(obs []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(obs)
	slices.Sort(sorted)
	rank := max(int(math.Ceil(float64(len(sorted))*p/100)), 1)
	return sorted[rank-1]
}
