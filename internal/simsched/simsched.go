// Package simsched is a small scheduling model of task-based distributed
// execution, standing in for the TAMM runtime the paper's CCSD application
// runs on.
//
// Two levels of fidelity are provided, trading accuracy for speed:
//
//  1. ListMakespan — greedy list scheduling of independent tasks, the exact
//     behaviour of TAMM's dynamic work distribution within one contraction.
//     The first tasks fill idle ranks directly (with no more tasks than
//     ranks the makespan is the longest task); the rest go through a plain
//     float64 min-heap of rank loads.
//  2. ExpectedMakespan — a closed-form approximation used when the block
//     count reaches millions: mean load per rank plus a trailing-task
//     imbalance term. Its accuracy against ListMakespan is validated in
//     tests and measured by the ablation benchmark.
package simsched

import (
	"fmt"
	"math"
)

// ListMakespan computes the makespan of scheduling the given independent
// task durations onto `ranks` workers with greedy list scheduling (each
// task goes to the earliest-available rank, in slice order). This models
// TAMM's dynamic load balancing of block tasks within a contraction.
//
// The first min(ranks, len(durs)) tasks each start on an idle rank, so with
// no more tasks than ranks the makespan is the longest task. Beyond that the
// rank loads live in a plain float64 min-heap: each further task is added
// to the least-loaded rank. Which of several tied ranks takes it leaves the
// multiset of loads, and so the makespan, unchanged.
func ListMakespan(durs []float64, ranks int) float64 {
	if ranks <= 0 {
		panic("simsched: non-positive rank count")
	}
	for _, d := range durs {
		if d < 0 {
			panic("simsched: negative task duration")
		}
	}
	if len(durs) <= ranks {
		return maxLoad(durs)
	}
	loads := append([]float64(nil), durs[:ranks]...)
	for i := ranks/2 - 1; i >= 0; i-- {
		siftDown(loads, i)
	}
	for _, d := range durs[ranks:] {
		loads[0] += d
		siftDown(loads, 0)
	}
	return maxLoad(loads)
}

// maxLoad returns the largest of the given non-negative loads.
func maxLoad(loads []float64) float64 {
	var m float64
	for _, t := range loads {
		if t > m {
			m = t
		}
	}
	return m
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []float64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if !(h[c] < x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// ExpectedMakespan approximates the expected greedy-scheduling makespan of
// n independent tasks with the given per-task duration mean and standard
// deviation, of which the largest possible task lasts maxDur, on the given
// number of ranks.
//
// Regimes:
//   - n == 0: zero.
//   - n <= ranks: every task runs concurrently, so the makespan is the
//     expected maximum of n draws ≈ mean + std·sqrt(2 ln n) (capped at
//     maxDur).
//   - n > ranks: greedy scheduling yields makespan ≤ total/ranks + max
//     task; in expectation the trailing imbalance is about half the
//     largest task, plus the dispersion of per-rank sums.
func ExpectedMakespan(n float64, mean, std, maxDur float64, ranks int) float64 {
	if ranks <= 0 {
		panic("simsched: non-positive rank count")
	}
	if n <= 0 {
		return 0
	}
	if mean < 0 || std < 0 || maxDur < mean {
		panic(fmt.Sprintf("simsched: inconsistent task stats mean=%g std=%g max=%g", mean, std, maxDur))
	}
	r := float64(ranks)
	if n <= r {
		m := mean
		if n > 1 {
			m += std * math.Sqrt(2*math.Log(n))
		}
		if m > maxDur {
			m = maxDur
		}
		return m
	}
	meanLoad := n * mean / r
	// Per-rank sums of ~n/r tasks fluctuate with std·sqrt(n/r); the max of
	// r such sums exceeds the mean load by about sqrt(2 ln r) deviations.
	// Greedy dispatch smooths this, so the trailing term is further damped.
	imbalance := 0.5*maxDur + 0.25*std*math.Sqrt(n/r)*math.Sqrt(2*math.Log(r))
	return meanLoad + imbalance
}
