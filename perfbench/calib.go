package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration. A checkout shares a few cores of a host with other
// tenants, and on two cores of such a host the same work slowed by up to a
// third for minutes at a time: CPU time grew with wall time, the guest
// counted no steal, and fixed set-up work slowed as much as the measured
// phase. So each run also times a fixed computation of the benchmark's own:
// a JSON round trip and a sort of float slices on every core at once, which
// exercises what parcost does (float formatting and parsing, allocation and
// collection, comparisons over floats). train samples before every stage
// and several times around the job; the serve workloads sample before
// set-up, between set-up and the measured phase, and after it, each time
// with the fleet idle. A run reports each end-to-end time t as
// t × calRef / (the run's median calibration time): what the run would have
// taken on a host where the calibration takes calRef. None of the
// computation is parcost code, so a change to the program cannot move it.
//
// On a drifting two-core host this narrowed the spread (interquartile range
// over median) of same-code runs: over eight serve-cold runs from 0.25 to
// 0.13 for latency_p50_ms, 0.27 to 0.09 for its p90 and 0.21 to 0.11
// for cpu_ms_per_req; over two blocks of five train runs from 0.18 and 0.20
// to 0.11 and 0.08 for train_s.

// calRef is the reference host's calibration time: about the median on two
// cores of a quiet 2-vCPU cloud guest.
const calRef = 20 * time.Millisecond

const (
	calFloats = 1 << 14 // values one worker encodes, decodes and sorts per pass
	calPasses = 2       // passes per sample
)

// calibrator holds each worker's fixed input and the samples taken so far.
type calibrator struct {
	inputs  [][]float64
	samples []time.Duration
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{inputs: make([][]float64, workers)}
	x := uint64(0x9e3779b97f4a7c15)
	for w := range c.inputs {
		in := make([]float64, calFloats)
		for i := range in {
			// A fixed xorshift stream over a wide range of magnitudes, so the
			// encoder prints and the decoder parses full-length numbers.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			in[i] = math.Ldexp(float64(x>>11)/(1<<53), int(x%40)-20)
		}
		c.inputs[w] = in
	}
	return c
}

// sample times n passes of the computation on every worker at once and
// records each pass's wall time.
func (c *calibrator) sample(n int) error {
	errs := make([]error, len(c.inputs))
	for range n {
		var wg sync.WaitGroup
		start := time.Now()
		for w, in := range c.inputs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = calWork(in)
			}()
		}
		wg.Wait()
		c.samples = append(c.samples, time.Since(start))
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func calWork(in []float64) error {
	for range calPasses {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		var out []float64
		if err := json.Unmarshal(data, &out); err != nil {
			return err
		}
		if len(out) != len(in) || out[len(out)-1] != in[len(in)-1] {
			return fmt.Errorf("calibration: the round trip changed its input")
		}
		slices.Sort(out)
	}
	return nil
}

// median returns the run's median calibration time.
func (c *calibrator) median() time.Duration {
	s := slices.Clone(c.samples)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// apply scales the run's end-to-end times to the reference host and reports
// the calibration and the times as measured.
func (c *calibrator) apply(rep *report) {
	med := c.median()
	k := float64(calRef) / float64(med)
	m := rep.metrics
	rep.line("host speed: calibration median %v over %d samples, scale %.4f; as measured: setup_s %.6g, latency_p50_ms %.6g, cpu_ms_per_req %.6g",
		med, len(c.samples), k, m["setup_s"], m["latency_p50_ms"], m["cpu_ms_per_req"])
	for _, name := range []string{"setup_s", "latency_p50_ms", "cpu_ms_per_req"} {
		m[name] *= k
	}
	m["host.calibration_ms"] = ms(med)
}
