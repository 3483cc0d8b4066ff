package simsched

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"parcost/internal/rng"
)

func TestListMakespanSingleRank(t *testing.T) {
	durs := []float64{1, 2, 3, 4}
	if m := ListMakespan(durs, 1); m != 10 {
		t.Fatalf("single rank makespan %v, want 10", m)
	}
}

func TestListMakespanPerfectBalance(t *testing.T) {
	durs := []float64{2, 2, 2, 2}
	if m := ListMakespan(durs, 4); m != 2 {
		t.Fatalf("makespan %v, want 2", m)
	}
	if m := ListMakespan(durs, 2); m != 4 {
		t.Fatalf("makespan %v, want 4", m)
	}
}

func TestListMakespanEmpty(t *testing.T) {
	if m := ListMakespan(nil, 4); m != 0 {
		t.Fatalf("empty makespan %v", m)
	}
}

func TestListMakespanLowerBounds(t *testing.T) {
	// Makespan must be >= max task and >= total/ranks.
	r := rng.New(1)
	durs := make([]float64, 200)
	total, maxD := 0.0, 0.0
	for i := range durs {
		durs[i] = r.Uniform(0.1, 10)
		total += durs[i]
		if durs[i] > maxD {
			maxD = durs[i]
		}
	}
	ranks := 8
	m := ListMakespan(durs, ranks)
	if m < maxD-1e-9 {
		t.Fatalf("makespan %v below max task %v", m, maxD)
	}
	if m < total/float64(ranks)-1e-9 {
		t.Fatalf("makespan %v below total/ranks %v", m, total/float64(ranks))
	}
}

func TestListMakespanGreedyBound(t *testing.T) {
	// Greedy list scheduling is within (2 - 1/m) of optimal; in particular
	// it never exceeds total/ranks + maxTask.
	r := rng.New(2)
	durs := make([]float64, 500)
	total, maxD := 0.0, 0.0
	for i := range durs {
		durs[i] = r.Uniform(0, 5)
		total += durs[i]
		if durs[i] > maxD {
			maxD = durs[i]
		}
	}
	ranks := 16
	m := ListMakespan(durs, ranks)
	if m > total/float64(ranks)+maxD+1e-9 {
		t.Fatalf("makespan %v exceeds greedy bound", m)
	}
}

func TestListMakespanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ranks did not panic")
		}
	}()
	ListMakespan([]float64{1}, 0)
}

func TestExpectedMakespanRegimes(t *testing.T) {
	// Fewer tasks than ranks: makespan ~ expected max, near mean.
	m := ExpectedMakespan(4, 2, 0.1, 2.3, 100)
	if m < 2 || m > 2.3 {
		t.Fatalf("under-subscribed makespan %v out of [2, 2.3]", m)
	}
	// Many tasks: makespan ~ mean load.
	big := ExpectedMakespan(100000, 1, 0.2, 1.5, 100)
	meanLoad := 100000 * 1.0 / 100
	if big < meanLoad {
		t.Fatalf("oversubscribed makespan %v below mean load %v", big, meanLoad)
	}
	if big > meanLoad*1.2 {
		t.Fatalf("oversubscribed makespan %v too far above mean load", big)
	}
}

func TestExpectedMakespanZero(t *testing.T) {
	if ExpectedMakespan(0, 1, 1, 2, 4) != 0 {
		t.Fatal("zero tasks should give zero makespan")
	}
}

func TestExpectedMakespanApproximatesList(t *testing.T) {
	// The aggregate model should be within ~25% of actual list scheduling
	// for a realistic oversubscribed workload.
	r := rng.New(3)
	const n, ranks = 20000, 64
	mean, std := 0.5, 0.15
	durs := make([]float64, n)
	maxD := 0.0
	for i := range durs {
		d := mean + std*r.Normal()
		if d < 0 {
			d = 0
		}
		durs[i] = d
		if d > maxD {
			maxD = d
		}
	}
	got := ListMakespan(durs, ranks)
	approx := ExpectedMakespan(n, mean, std, maxD, ranks)
	relErr := math.Abs(approx-got) / got
	if relErr > 0.25 {
		t.Fatalf("aggregate model rel err %.3f vs list scheduler (got=%v approx=%v)", relErr, got, approx)
	}
}

// Property: makespan is at least total/ranks and at least the max task.
func TestQuickMakespanLowerBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		ranks := 1 + r.Intn(16)
		durs := make([]float64, n)
		total, maxD := 0.0, 0.0
		for i := range durs {
			durs[i] = r.Uniform(0, 10)
			total += durs[i]
			if durs[i] > maxD {
				maxD = durs[i]
			}
		}
		m := ListMakespan(durs, ranks)
		return m >= maxD-1e-9 && m >= total/float64(ranks)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// refRankHeap and refListMakespan are the container/heap list scheduler
// ListMakespan replaced: all ranks start on a heap of zero loads and every
// task goes through heap.Fix. They are the reference the float-heap
// rewrite must match bit for bit.
type refRankHeap []float64

func (h refRankHeap) Len() int            { return len(h) }
func (h refRankHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refRankHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refRankHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refRankHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refListMakespan(durs []float64, ranks int) float64 {
	if len(durs) == 0 {
		return 0
	}
	if ranks == 1 {
		var s float64
		for _, d := range durs {
			s += d
		}
		return s
	}
	h := make(refRankHeap, ranks)
	heap.Init(&h)
	for _, d := range durs {
		h[0] += d
		heap.Fix(&h, 0)
	}
	var makespan float64
	for _, t := range h {
		if t > makespan {
			makespan = t
		}
	}
	return makespan
}

// Property: ListMakespan returns the reference scheduler's exact bits over
// seeded random durations with repeats and zeros, for rank counts from 1 to
// beyond the task count.
func TestListMakespanMatchesReference(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(300)
		durs := make([]float64, n)
		palette := []float64{0, r.Uniform(0, 1), r.Uniform(0, 10)}
		for i := range durs {
			switch r.Intn(4) {
			case 0:
				durs[i] = palette[r.Intn(len(palette))] // repeats and zeros
			default:
				durs[i] = r.Uniform(0, 10)
			}
		}
		for _, ranks := range []int{1, 2, 3, 1 + r.Intn(n), n - 1, n, n + 1, 2*n + r.Intn(50)} {
			if ranks < 1 {
				continue
			}
			got, want := ListMakespan(durs, ranks), refListMakespan(durs, ranks)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: %d tasks on %d ranks: makespan %v (%#x), reference %v (%#x)",
					trial, n, ranks, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestListMakespanNegativePanics(t *testing.T) {
	for _, ranks := range []int{2, 8} { // fewer and more ranks than tasks
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("negative duration on %d ranks did not panic", ranks)
				}
			}()
			ListMakespan([]float64{1, 2, 3, -1}, ranks)
		}()
	}
}

func BenchmarkListMakespan(b *testing.B) {
	r := rng.New(1)
	durs := make([]float64, 100000)
	for i := range durs {
		durs[i] = r.Uniform(0, 1)
	}
	// 128 ranks: every task past the first 128 goes through the heap.
	// 200000 ranks: more ranks than tasks, the idle-rank fill alone.
	for _, ranks := range []int{128, 200000} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ListMakespan(durs, ranks)
			}
		})
	}
}
