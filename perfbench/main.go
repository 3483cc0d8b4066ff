// Command perfbench is parcost's end-to-end benchmark. It drives seeded
// workloads through the deployed topology — a `parcost proxy` in front of
// two `parcost serve` processes — and through an in-process training
// pipeline, checks every answer, and prints one JSON result as the last line
// of standard output. run.sh builds both binaries and runs it:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// Workloads are serve-cold, serve-hot and train; README.md says why each
// exists and defines every metric. With --trace 0 the result carries the
// end-to-end metrics listed in BENCHMARK.json. With --trace 1 the run also
// records spans around the calls it makes into parcost, writes them under
// <out>/trace/, prints a "where the time goes" table, and reports the
// per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

type options struct {
	root, out string
	workload  string
	seed      uint64
	seconds   int
	trace     bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "root of the parcost checkout")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for binaries, caches, logs and span files")
	flag.StringVar(&o.workload, "workload", "", "serve-cold, serve-hot or train")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	o.trace = trace == 1
	if o.workload == "train" {
		if err := retainFreedPages(); err != nil {
			fail(err)
		}
	}

	defs, err := loadDefs(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var rep *report
	switch o.workload {
	case "serve-cold":
		rep, err = runServe(ctx, o, false)
	case "serve-hot":
		rep, err = runServe(ctx, o, true)
	case "train":
		rep, err = runTrain(o)
	default:
		err = fmt.Errorf("unknown workload %q (want serve-cold, serve-hot or train)", o.workload)
	}
	stop()
	if err == nil {
		err = rep.print(os.Stdout, defs, o.trace)
	}
	if err != nil {
		fail(err)
	}
}

// retainFreedPages re-executes the benchmark, once, with GODEBUG
// madvdontneed=0: the Go runtime then returns freed heap pages with
// MADV_FREE, which leaves them mapped until the kernel needs them, instead of
// MADV_DONTNEED, which unmaps them so the next use faults them in again. The
// runtime reads the setting only at start-up. Only the train workload asks
// for it (see pretouchHeap); the serve workloads pass their environment on
// to the parcost processes, which run as they ship.
func retainFreedPages() error {
	const setting = "madvdontneed=0"
	cur := os.Getenv("GODEBUG")
	if slices.Contains(strings.Split(cur, ","), setting) {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "GODEBUG=") })
	if cur != "" {
		cur += ","
	}
	return syscall.Exec(self, os.Args, append(env, "GODEBUG="+cur+setting))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricDef is one metric entry of BENCHMARK.json. The result line carries
// exactly the metrics listed there, so that file is the one source of metric
// names and units.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefs(path string) (benchDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchDefs{}, err
	}
	var d benchDefs
	if err := json.Unmarshal(data, &d); err != nil {
		return benchDefs{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// report is one run's outcome: request accounting, failed checks, metric
// values by name, and the human-readable lines printed before the result.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	lines             []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed correctness check; the run then reports
// "correct": false.
func (r *report) check(ok bool, format string, args ...any) {
	switch {
	case ok:
	case len(r.problems) < 20:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	case len(r.problems) == 20:
		r.problems = append(r.problems, "further failures not listed")
	}
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines, every metric of the selected list
// by name with its unit, and the JSON result as the last line.
func (r *report) print(w io.Writer, defs benchDefs, trace bool) error {
	list := defs.EndToEnd
	if trace {
		list = defs.PerLayer
	}
	if r.attempted < 1 {
		return fmt.Errorf("the run attempted nothing")
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range list {
		v, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range list {
		fmt.Fprintf(w, "%-30s %16.6g %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
