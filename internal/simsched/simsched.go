// Package simsched is a small discrete-event simulator of task-based
// distributed execution, standing in for the TAMM runtime the paper's CCSD
// application runs on.
//
// Three levels of fidelity are provided, trading accuracy for speed:
//
//  1. Engine — an event-driven simulator of a task DAG over a fixed number
//     of ranks (dependencies, dynamic greedy dispatch).
//  2. ListMakespan — greedy list scheduling of independent tasks, the exact
//     behaviour of TAMM's dynamic work distribution within one contraction.
//     The first tasks fill idle ranks directly (with no more tasks than
//     ranks the makespan is the longest task); the rest go through a plain
//     float64 min-heap of rank loads.
//  3. ExpectedMakespan — a closed-form approximation used when the block
//     count reaches millions: mean load per rank plus a trailing-task
//     imbalance term. Its accuracy against ListMakespan is validated in
//     tests and measured by the ablation benchmark.
package simsched

import (
	"container/heap"
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

// Task is a node in a dependency DAG executed by Engine.
type Task struct {
	Dur  float64
	Deps []int // indices of tasks that must finish first
}

// Engine simulates the execution of a task DAG over a fixed rank count
// using event-driven greedy dispatch: whenever a rank frees up, it takes
// the longest-waiting ready task.
type Engine struct {
	tasks []Task
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Add appends a task with the given duration and dependency indices,
// returning the new task's index. Dependencies must refer to
// previously-added tasks (indices < the new index), which structurally
// guarantees acyclicity.
func (e *Engine) Add(dur float64, deps ...int) int {
	if dur < 0 {
		panic("simsched: negative task duration")
	}
	id := len(e.tasks)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("simsched: task %d depends on invalid task %d", id, d))
		}
	}
	e.tasks = append(e.tasks, Task{Dur: dur, Deps: append([]int(nil), deps...)})
	return id
}

// Len returns the number of tasks added.
func (e *Engine) Len() int { return len(e.tasks) }

// Result summarizes one simulated execution.
type Result struct {
	Makespan  float64
	TotalWork float64   // sum of task durations
	Finish    []float64 // per-task completion times
}

// Efficiency returns parallel efficiency: total work / (ranks × makespan).
func (r Result) Efficiency(ranks int) float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.TotalWork / (float64(ranks) * r.Makespan)
}

// event is a task completion in the event queue.
type event struct {
	time float64
	task int
	rank int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].task < h[j].task // deterministic tie-break
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run simulates the DAG on the given number of ranks and returns the
// schedule result. The engine may be Run multiple times.
func (e *Engine) Run(ranks int) Result {
	if ranks <= 0 {
		panic("simsched: non-positive rank count")
	}
	n := len(e.tasks)
	res := Result{Finish: make([]float64, n)}
	if n == 0 {
		return res
	}
	remaining := make([]int, n) // unmet dependency counts
	children := make([][]int, n)
	for i, t := range e.tasks {
		remaining[i] = len(t.Deps)
		res.TotalWork += t.Dur
		for _, d := range t.Deps {
			children[d] = append(children[d], i)
		}
	}
	// Ready queue in FIFO order for determinism.
	var ready []int
	for i := range e.tasks {
		if remaining[i] == 0 {
			ready = append(ready, i)
		}
	}
	freeRanks := ranks
	now := 0.0
	events := &eventHeap{}
	heap.Init(events)
	launched := 0
	dispatch := func() {
		for freeRanks > 0 && len(ready) > 0 {
			t := ready[0]
			ready = ready[1:]
			freeRanks--
			launched++
			heap.Push(events, event{time: now + e.tasks[t].Dur, task: t})
		}
	}
	dispatch()
	for events.Len() > 0 {
		ev := heap.Pop(events).(event)
		now = ev.time
		res.Finish[ev.task] = now
		freeRanks++
		for _, c := range children[ev.task] {
			remaining[c]--
			if remaining[c] == 0 {
				ready = append(ready, c)
			}
		}
		dispatch()
	}
	if launched != n {
		// Unreachable given Add's structural acyclicity, but guard anyway.
		panic("simsched: deadlocked DAG")
	}
	res.Makespan = now
	return res
}
