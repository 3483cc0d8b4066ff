package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/rng"
)

// query is one STQ/BQ question in the /v1/recommend wire form.
type query struct {
	Machine   string `json:"machine"`
	O         int    `json:"o"`
	V         int    `json:"v"`
	Objective string `json:"objective"` // "stq" or "bq"
}

// answer is the part of a /v1/recommend response the checks read.
type answer struct {
	Machine     string  `json:"machine"`
	O           int     `json:"o"`
	V           int     `json:"v"`
	Objective   string  `json:"objective"`
	Nodes       int     `json:"nodes"`
	Tile        int     `json:"tile"`
	PredSeconds float64 `json:"pred_seconds"`
	Degraded    bool    `json:"degraded"`
}

// echoes reports whether the answer is for q and is not a degraded replay.
func (a answer) echoes(q query) bool {
	obj := "STQ"
	if q.Objective == "bq" {
		obj = "BQ"
	}
	return a.Machine == q.Machine && a.O == q.O && a.V == q.V && a.Objective == obj && !a.Degraded
}

// sample is one request as the client saw it.
type sample struct {
	q       query
	latency time.Duration // open loop: from the due time; closed loop: from the send
	lag     time.Duration // open loop: how late the request was sent
	at      time.Duration // since the phase began: open loop, the due time; closed loop, the answer
	ans     answer
	err     error
}

// newHTTPClient returns a client holding at most conns connections per host,
// so requests beyond that wait for a connection inside the client.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func recommend(ctx context.Context, c *http.Client, base string, q query) (answer, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/recommend", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var a answer
	if err := json.Unmarshal(data, &a); err != nil {
		return answer{}, fmt.Errorf("decoding answer: %w", err)
	}
	return a, nil
}

// closedLoop runs conns workers that each send their next query as soon as
// their previous answer arrives, until d has elapsed; requests in flight at
// that point complete and count.
func closedLoop(ctx context.Context, c *http.Client, base string, conns int, d time.Duration, next func(worker int) query, tr *tracer) []sample {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	stopAt := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(stopAt) {
				q := next(w)
				t := time.Now()
				a, err := recommend(ctx, c, base, q)
				end := time.Now()
				tr.add("client.recommend", t, end)
				mu.Lock()
				out = append(out, sample{q: q, latency: end.Sub(t), at: end.Sub(start), ans: a, err: err})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// openLoop replays an admission.NewSchedule arrival schedule: each arrival
// is sent at its due time on its own goroutine, whatever earlier requests
// are doing, and its latency is timed from the due time, so a stall shows in
// every request it delays. keyOf maps a schedule key index onto a query.
func openLoop(ctx context.Context, c *http.Client, base string, sched []admission.Arrival, keyOf func(int) query, tr *tracer) []sample {
	var mu sync.Mutex
	out := make([]sample, 0, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	admission.Replay(ctx, sched, absolutePacer(start), func(a admission.Arrival) {
		due := start.Add(a.At)
		lag := time.Since(due)
		q := keyOf(a.Key)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := recommend(ctx, c, base, q)
			end := time.Now()
			tr.add("client.recommend", due, end)
			mu.Lock()
			out = append(out, sample{q: q, latency: end.Sub(due), lag: lag, at: a.At, ans: ans, err: err})
			mu.Unlock()
		}()
	})
	wg.Wait()
	return out
}

// absolutePacer paces Replay on the schedule's own clock. Replay passes the
// gap to the next arrival; the pacer sleeps until start plus the running sum
// of gaps, so oversleeping one gap does not delay every later arrival.
func absolutePacer(start time.Time) func(time.Duration) {
	var due time.Duration
	return func(d time.Duration) {
		due += d
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// forEach calls fn(worker, i) for every i in [0, n) on workers goroutines
// and returns when all calls have.
func forEach(n, workers int, fn func(worker, i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// inParallel answers every query with conns concurrent workers and returns
// the samples in query order.
func inParallel(ctx context.Context, c *http.Client, base string, qs []query, conns int) []sample {
	out := make([]sample, len(qs))
	forEach(len(qs), conns, func(_, i int) {
		t := time.Now()
		a, err := recommend(ctx, c, base, qs[i])
		out[i] = sample{q: qs[i], latency: time.Since(t), ans: a, err: err}
	})
	return out
}

var (
	benchMachines   = []string{"aurora", "frontier"}
	benchObjectives = []string{"stq", "bq"}
)

// paperKeys is every question about the paper's problems: its 23 problems ×
// both machines × both objectives, in a fixed order. They are serve-cold's
// strata.
func paperKeys() []query {
	var out []query
	for _, m := range benchMachines {
		for _, p := range dataset.PaperProblems() {
			for _, obj := range benchObjectives {
				out = append(out, query{Machine: m, O: p.O, V: p.V, Objective: obj})
			}
		}
	}
	return out
}

// hotKeys is the serve-hot key set: each machine's 23 paper problems, each
// asked with one objective, STQ and BQ alternating from problem to problem
// and between the machines, so each machine gets both objectives and every
// problem is asked both ways across the fleet. Set-up sweeps every hot key on
// both serves; the whole cross product would double that to about 40 s on
// two cores, for a measured phase in which no sweep runs.
func hotKeys() []query {
	var out []query
	for mi, m := range benchMachines {
		for pi, p := range dataset.PaperProblems() {
			out = append(out, query{Machine: m, O: p.O, V: p.V, Objective: benchObjectives[(pi+mi)%len(benchObjectives)]})
		}
	}
	return out
}

// coldStride orders serve-cold's strata: position i visits the stratum of
// size rank i·coldStride mod 92. 57/92 is close to the golden ratio's
// fractional part, so every prefix of the order holds small, middle and
// large problems in nearly the proportions of the whole set, and 57 ≡ 1
// mod 4 cycles the four (machine, objective) pairs of each problem.
const coldStride = 57

// coldKeys hands out unique queries. Each is a stratum — one paper key —
// moved by a small seeded offset in O and V, and is never a paper key and
// never repeats, so every request misses every cache and costs a full grid
// sweep. The strata are visited in one fixed order and the offsets are
// small, so every run sweeps nearly the same mix of problem sizes, machines
// and objectives whatever its seed, and a run that answers a few requests
// more or fewer than another does not gain or lose a block of large
// problems. Sweep cost depends strongly on problem size (it changes with the
// number of tiles along O and V), and a seed- or length-dependent mix would
// make the latency figures differ more between runs than between commits.
type coldKeys struct {
	mu     sync.Mutex
	r      *rng.Source
	strata []query
	n      int
	seen   map[query]bool
}

func newColdKeys(seed uint64) *coldKeys {
	paper := paperKeys()
	seen := make(map[query]bool, len(paper))
	for _, q := range paper {
		seen[q] = true
	}
	// Rank by O·V², which grows with the CCSD work (O²V⁴); paperKeys lists
	// each problem's four (machine, objective) pairs, and the stable sort
	// keeps them together in that order.
	bySize := append([]query(nil), paper...)
	sort.SliceStable(bySize, func(i, j int) bool {
		a, b := bySize[i], bySize[j]
		return a.O*a.V*a.V < b.O*b.V*b.V
	})
	strata := make([]query, len(bySize))
	for i := range strata {
		strata[i] = bySize[i*coldStride%len(bySize)]
	}
	return &coldKeys{r: rng.New(seed), strata: strata, seen: seen}
}

func (k *coldKeys) next() query {
	k.mu.Lock()
	defer k.mu.Unlock()
	base := k.strata[k.n%len(k.strata)]
	// Each pass over the strata widens the offsets, so a long run never
	// runs out of unused keys.
	spread := 1 + k.n/len(k.strata)
	k.n++
	for {
		q := base
		q.O += k.r.Intn(2*spread+1) - spread
		q.V += k.r.Intn(8*spread+1) - 4*spread
		if q.O > 0 && q.V > 0 && !k.seen[q] {
			k.seen[q] = true
			return q
		}
	}
}

// zipf maps a uniform draw in [0, 1) onto key indices with Zipf popularity:
// rank r has weight 1/(r+1)^s. A seeded shuffle within each machine's block
// of hotKeys decides which key holds which rank, and the machines alternate
// rank by rank, so whatever the seed each machine — and so each serve —
// receives the same share of the traffic.
type zipf struct {
	cdf  []float64
	keys []int
}

func newZipf(n int, s float64, seed uint64) zipf {
	r := rng.New(seed)
	block := n / len(benchMachines)
	perms := make([][]int, len(benchMachines))
	for m := range perms {
		perms[m] = r.Perm(block)
	}
	z := zipf{cdf: make([]float64, n), keys: make([]int, n)}
	var total float64
	for rank := range z.cdf {
		m := rank % len(benchMachines)
		z.keys[rank] = m*block + perms[m][rank/len(benchMachines)]
		total += 1 / math.Pow(float64(rank+1), s)
		z.cdf[rank] = total
	}
	for rank := range z.cdf {
		z.cdf[rank] /= total
	}
	return z
}

func (z zipf) pick(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.keys) {
		r = len(z.keys) - 1
	}
	return z.keys[r]
}
