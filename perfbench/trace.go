package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/ml"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent names the span that made the call. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so untraced runs pay one branch per boundary.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished root span: a request of its own.
func (t *tracer) add(name string, start, end time.Time) {
	if !t.on {
		return
	}
	id := t.id()
	t.addID(id, 0, id, name, start, end)
}

// addID records a finished span under an ID reserved with id.
func (t *tracer) addID(id, parent, req int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// layerTime is one span name's total self time and span count.
type layerTime struct {
	self time.Duration
	n    int
}

// selfTimes sums, per span name, each span's duration minus the durations
// of its children. Children in this benchmark run one after another inside
// their parent, so subtracting their sum removes the interval they cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - children[s.ID])
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if !t.on {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sweepProbe carries the span of the sweep in progress to the timing
// wrappers and counts what they see. The in-process replay runs one sweep
// at a time, so the wrappers read cur and req without a lock.
type sweepProbe struct {
	tr       *tracer
	cur, req int64

	oracleCalls, oracleKept int
	predictRows             int
	oracleTime, predictTime time.Duration
}

// timedOracle wraps a guide.Oracle (the simulator, package ccsd) and records
// one span per configuration it is asked about.
type timedOracle struct {
	inner guide.Oracle
	p     *sweepProbe
}

func (o timedOracle) TrueTime(c dataset.Config) (float64, bool) {
	id := o.p.tr.id()
	start := time.Now()
	secs, ok := o.inner.TrueTime(c)
	end := time.Now()
	o.p.tr.addID(id, o.p.cur, o.p.req, "ccsd.oracle", start, end)
	o.p.oracleCalls++
	if ok {
		o.p.oracleKept++
	}
	o.p.oracleTime += end.Sub(start)
	return secs, ok
}

// timedModel wraps the loaded ml.Regressor and records one span per Predict.
type timedModel struct {
	inner ml.Regressor
	p     *sweepProbe
}

func (m timedModel) Fit(x [][]float64, y []float64) error {
	return errors.New("perfbench: the replay model is already fitted")
}

func (m timedModel) Predict(x [][]float64) []float64 {
	id := m.p.tr.id()
	start := time.Now()
	out := m.inner.Predict(x)
	end := time.Now()
	m.p.tr.addID(id, m.p.cur, m.p.req, "ml.predict", start, end)
	m.p.predictRows += len(x)
	m.p.predictTime += end.Sub(start)
	return out
}

func (m timedModel) Name() string { return m.inner.Name() }

// table renders the "where the time goes" rows: each layer's time per unit
// of work and its share of the stated base.
type timeTable struct {
	title string
	base  float64 // in the rows' unit
	unit  string
	rows  []timeRow
}

type timeRow struct {
	layer string
	value float64
}

func (t timeTable) render(rep *report) {
	rep.line("where the time goes: %s", t.title)
	rep.line("  %-44s %12s %8s", "layer", t.unit, "share")
	sum := 0.0
	for _, r := range t.rows {
		rep.line("  %-44s %12.4f %7.2f%%", r.layer, r.value, 100*r.value/t.base)
		sum += r.value
	}
	rep.line("  %-44s %12.4f %7.2f%%", "unaccounted (base minus the rows above)", t.base-sum, 100*(t.base-sum)/t.base)
	rep.line("  %-44s %12.4f %7.2f%%", "base", t.base, 100.0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (nearest rank) of ds, sorting it.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(p/100*float64(len(ds))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(ds) {
		rank = len(ds) - 1
	}
	return ds[rank]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

func fmtSpanFile(workload string, seed uint64) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, seed)
}
