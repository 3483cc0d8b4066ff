package tree

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"parcost/internal/rng"
)

// wideData is a synthetic surface over enough rows to cross the wide-node
// sharding threshold and enough features to admit the split-scan fan-out.
func wideData(r *rng.Source, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Uniform(-5, 5)
		}
		x[i] = row
		y[i] = row[0]*row[1] + 2*row[2%d] + 0.3*r.Normal()
	}
	return x, y
}

// fitSnapshot grows one histogram tree under the given policy and returns
// the node-array snapshot plus training-matrix predictions.
func fitSnapshot(t *testing.T, bm *BinnedMatrix, x [][]float64, y, w []float64, p Params, par *Parallel) ([]byte, []float64) {
	t.Helper()
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	tr := New(p, rng.New(99).Split())
	tr.SetParallel(par)
	if err := tr.FitBinnedWeighted(bm, y, w, rows); err != nil {
		t.Fatal(err)
	}
	snap, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return snap, tr.Predict(x)
}

// TestHistParallelBitIdentical is the tentpole contract: every parallel
// execution mode — feature fan-out, wide-node row sharding, both, auto —
// must reproduce the serial reference fit bit for bit (node
// arrays AND predictions) at GOMAXPROCS 1, 2, 4, and 8. The data is wide
// enough (rows ≥ 2×rowShardSize, features ≥ minFeatureParFeats) that every
// parallel path is genuinely live at the root.
func TestHistParallelBitIdentical(t *testing.T) {
	r := rng.New(21)
	n := 2*rowShardSize + 1200
	x, y := wideData(r, n, 10)
	bm := NewBinnedMatrix(x, 0)
	params := Params{MaxDepth: 6, Splitter: SplitterHist}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wantSnap, wantPred := fitSnapshot(t, bm, x, y, nil, params, nil)

	modes := []struct {
		name string
		par  func() *Parallel
	}{
		{"serial", func() *Parallel { return nil }},
		{"feature-w4", func() *Parallel { return NewParallelAxes(4, true, false) }},
		{"row-w4", func() *Parallel { return NewParallelAxes(4, false, true) }},
		{"both-w2", func() *Parallel { return NewParallel(2) }},
		{"both-w8", func() *Parallel { return NewParallel(8) }},
		{"auto", AutoParallel},
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, m := range modes {
			snap, pred := fitSnapshot(t, bm, x, y, nil, params, m.par())
			if !bytes.Equal(snap, wantSnap) {
				t.Fatalf("procs=%d mode=%s: node arrays differ from serial reference", procs, m.name)
			}
			for i := range pred {
				if pred[i] != wantPred[i] {
					t.Fatalf("procs=%d mode=%s: prediction %d differs: %v vs %v",
						procs, m.name, i, pred[i], wantPred[i])
				}
			}
		}
	}
}

// TestHistParallelBitIdenticalWeighted covers the weighted accumulation
// kernel (AdaBoost's path) and the MaxFeatures per-node subset mode, where
// the subtraction trick is off and every node accumulates its own sampled
// features.
func TestHistParallelBitIdenticalWeighted(t *testing.T) {
	r := rng.New(22)
	n := 2*rowShardSize + 500
	x, y := wideData(r, n, 10)
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Uniform(0.1, 2)
	}
	bm := NewBinnedMatrix(x, 0)
	for _, params := range []Params{
		{MaxDepth: 5, Splitter: SplitterHist},
		{MaxDepth: 5, MaxFeatures: 4, Splitter: SplitterHist}, // per-node subsets, no subtraction trick
	} {
		wantSnap, wantPred := fitSnapshot(t, bm, x, y, w, params, nil)
		for _, workers := range []int{2, 8} {
			snap, pred := fitSnapshot(t, bm, x, y, w, params, NewParallel(workers))
			if !bytes.Equal(snap, wantSnap) {
				t.Fatalf("maxfeat=%d workers=%d: weighted node arrays differ from serial", params.MaxFeatures, workers)
			}
			for i := range pred {
				if pred[i] != wantPred[i] {
					t.Fatalf("maxfeat=%d workers=%d: weighted prediction %d differs", params.MaxFeatures, workers, i)
				}
			}
		}
	}
}

// TestRowShardCountGeometry pins the canonical shard geometry: a pure
// function of the row count, engaging at two full shards and capped at
// maxRowShards. These values are part of the arithmetic contract — changing
// them changes fitted trees like changing the binning would.
func TestRowShardCountGeometry(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1},
		{1, 1},
		{rowShardSize, 1},
		{2*rowShardSize - 1, 1},
		{2 * rowShardSize, 2},
		{3*rowShardSize + 100, 3},
		{maxRowShards * rowShardSize, maxRowShards},
		{100 * rowShardSize, maxRowShards},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			if got := rowShardCount(c.n); got != c.want {
				t.Fatalf("procs=%d rowShardCount(%d) = %d, want %d", procs, c.n, got, c.want)
			}
		}
	}
}

// TestShardedHistPoolRace hammers the sharded pool the way the RF fit pool
// uses it: many goroutines fitting trees concurrently over one shared
// BinnedMatrix, each drawing exclusively from its own shard. Run under
// -race in CI; any cross-shard leak or shared free-list mutation trips the
// detector.
func TestShardedHistPoolRace(t *testing.T) {
	r := rng.New(23)
	x, y := wideData(r, 1500, 6)
	bm := NewBinnedMatrix(x, 0)
	const workers = 8
	pool := NewShardedHistPool(workers)
	if pool.Shards() != workers {
		t.Fatalf("Shards() = %d, want %d", pool.Shards(), workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := pool.Shard(w)
			for rep := 0; rep < 4; rep++ {
				rows := make([]int, len(x))
				for i := range rows {
					rows[i] = i
				}
				tr := New(Params{MaxDepth: 8, Splitter: SplitterHist}, nil)
				tr.ShareHistPool(shard)
				// Within-fit parallelism composes with the fan-out: the
				// shard stays owned by this goroutine (pool traffic never
				// leaves the build goroutine).
				tr.SetParallel(NewParallel(2))
				if err := tr.FitBinned(bm, y, rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardedHistPoolAllocsParity pins the zero-extra-allocs contract: a
// steady-state fit drawing from a ShardedHistPool shard allocates exactly
// what the same fit drawing from a plain HistPool does — the sharded form
// adds indirection, not allocation.
func TestShardedHistPoolAllocsParity(t *testing.T) {
	r := rng.New(24)
	x, y := wideData(r, 2000, 6)
	bm := NewBinnedMatrix(x, 0)
	rows := make([]int, len(x))
	params := Params{MaxDepth: 10, Splitter: SplitterHist}

	measure := func(pool *HistPool) float64 {
		tr := New(params, nil)
		tr.ShareHistPool(pool)
		return testing.AllocsPerRun(10, func() {
			for i := range rows {
				rows[i] = i
			}
			if err := tr.FitBinned(bm, y, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(NewHistPool())
	sharded := measure(NewShardedHistPool(4).Shard(0))
	if sharded != plain {
		t.Fatalf("sharded-pool fit allocates %v per run, plain pool %v — sharding must add zero steady-state allocs", sharded, plain)
	}
}

// TestShardWrapsSequentially pins Shard's index wrap (a sequential-reuse
// convenience, never for concurrent owners).
func TestShardWrapsSequentially(t *testing.T) {
	pool := NewShardedHistPool(3)
	if pool.Shard(0) != pool.Shard(3) || pool.Shard(1) != pool.Shard(4) {
		t.Fatal("Shard does not wrap modulo Shards")
	}
	if pool.Shard(0) == pool.Shard(1) {
		t.Fatal("distinct shards alias")
	}
	if NewShardedHistPool(0).Shards() != 1 {
		t.Fatal("zero-shard pool not clamped to 1")
	}
}

// BenchmarkHistTreeFitWide benchmarks one wide histogram fit per parallel
// mode at a forced worker count, so multicore hosts can see each axis's
// contribution in isolation (on a single-core host the modes measure
// dispatch overhead, which must be negligible).
func BenchmarkHistTreeFitWide(b *testing.B) {
	r := rng.New(25)
	x, y := wideData(r, 3*rowShardSize, 10)
	bm := NewBinnedMatrix(x, 0)
	rows := make([]int, len(x))
	params := Params{MaxDepth: 8, Splitter: SplitterHist}
	for _, m := range []struct {
		name string
		par  *Parallel
	}{
		{"serial", nil},
		{"feature-w4", NewParallelAxes(4, true, false)},
		{"row-w4", NewParallelAxes(4, false, true)},
		{"both-w4", NewParallel(4)},
	} {
		b.Run(m.name, func(b *testing.B) {
			tr := New(params, nil)
			tr.ShareHistPool(NewHistPool())
			tr.SetParallel(m.par)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rows {
					rows[j] = j
				}
				if err := tr.FitBinned(bm, y, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
