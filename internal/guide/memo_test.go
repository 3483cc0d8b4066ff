package guide

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// memoAdvisor fits a small GB advisor on spec's test dataset, with targets
// scaled by yScale.
func memoAdvisor(t *testing.T, spec machine.Spec, yScale float64) *Advisor {
	t.Helper()
	d := trainDataset(spec)
	y := d.Targets()
	for i := range y {
		y[i] *= yScale
	}
	gb := ensemble.NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 6}, 1)
	if err := gb.Fit(d.Features(), y); err != nil {
		t.Fatal(err)
	}
	return &Advisor{Model: gb, Grid: dataset.GridFromDataset(d)}
}

// thresholdKeys returns problems one below, at (when the threshold is a
// whole number) and one above each O threshold of m, with a seeded V shared
// by the three, and likewise for each V threshold with a seeded O; and how
// many thresholds have a key exactly on them.
func thresholdKeys(m *gridMemo, seed uint64) (keys []dataset.Problem, onThreshold int) {
	r := rng.New(seed)
	oLo, oHi := int(m.oThr[0])-2, int(m.oThr[len(m.oThr)-1])+2
	vLo, vHi := int(m.vThr[0])-2, int(m.vThr[len(m.vThr)-1])+2
	around := func(t float64) []int {
		x := int(math.Floor(t))
		if float64(x) == t {
			onThreshold++
		}
		return []int{x - 1, x, x + 1}
	}
	for _, t := range m.oThr {
		v := vLo + r.Intn(vHi-vLo+1)
		for _, o := range around(t) {
			keys = append(keys, dataset.Problem{O: o, V: v})
		}
	}
	for _, t := range m.vThr {
		o := oLo + r.Intn(oHi-oLo+1)
		for _, v := range around(t) {
			keys = append(keys, dataset.Problem{O: o, V: v})
		}
	}
	return keys, onThreshold
}

// TestServiceMemoMatchesAdvisor: for both machine specs and both
// objectives, a memo-backed Service answers every generated key exactly as
// Advisor.Recommend does, with the same error when it refuses one. The keys
// sit one below, exactly at and one above every O and V threshold of the
// model, so a cell that put a problem on the wrong side of one split would
// hand it a neighbour's grid.
func TestServiceMemoMatchesAdvisor(t *testing.T) {
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		t.Run(spec.Name, func(t *testing.T) {
			adv := memoAdvisor(t, spec, 1)
			oracle := NewSimOracle(spec)
			svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(0))
			if err != nil {
				t.Fatal(err)
			}
			if svc.memo == nil {
				t.Fatal("a GB shard has no grid memo")
			}
			keys, on := thresholdKeys(svc.memo, 20261019)
			if on == 0 {
				t.Fatal("no key sits exactly on a threshold")
			}
			for _, p := range keys {
				for _, obj := range []Objective{ShortestTime, Budget} {
					got, gerr := svc.Recommend(p, obj)
					want, werr := adv.Recommend(p, obj, oracle)
					sameAnswer(t, fmt.Sprintf("%v %v", p, obj), got, gerr, want, werr)
				}
			}
			st := svc.CacheStats()
			if st.MemoHits == 0 || st.MemoMisses == 0 {
				t.Fatalf("memo hits %d, misses %d: the keys must exercise both", st.MemoHits, st.MemoMisses)
			}
			if st.MemoHits+st.MemoMisses != st.SweepCount {
				t.Fatalf("memo hits %d + misses %d != %d sweeps", st.MemoHits, st.MemoMisses, st.SweepCount)
			}
		})
	}
}

// TestRouterAggregatesMemoCounts: STQ and BQ of one problem share a
// predicted grid, and the fleet view sums every shard's memo counts.
func TestRouterAggregatesMemoCounts(t *testing.T) {
	r := NewRouter()
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		if err := r.AddShard(spec.Name, memoAdvisor(t, spec, 1), WithOracle(NewSimOracle(spec))); err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{ShortestTime, Budget} {
			if _, err := r.Recommend(spec.Name, dataset.Problem{O: 146, V: 1096}, obj); err != nil {
				t.Fatal(err)
			}
		}
		if st := r.ShardStats()[spec.Name]; st.MemoHits != 1 || st.MemoMisses != 1 {
			t.Fatalf("%s: memo hits %d, misses %d, want 1 and 1", spec.Name, st.MemoHits, st.MemoMisses)
		}
	}
	if agg := r.AggregateStats(); agg.MemoHits != 2 || agg.MemoMisses != 2 {
		t.Fatalf("aggregate memo hits %d, misses %d, want 2 and 2", agg.MemoHits, agg.MemoMisses)
	}
}

// sharedCell returns the problems of the most populated lattice cell over a
// window around the paper problems, at most n of them.
func sharedCell(m *gridMemo, n int) []dataset.Problem {
	cells := map[[2]int][]dataset.Problem{}
	var best [2]int
	for o := 40; o <= 320; o++ {
		for v := 250; v <= 1400; v += 3 {
			p := dataset.Problem{O: o, V: v}
			k := m.cell(p)
			cells[k] = append(cells[k], p)
			if len(cells[k]) > len(cells[best]) {
				best = k
			}
		}
	}
	return cells[best][:min(n, len(cells[best]))]
}

// TestRouterSwapShardDropsMemo: after a retrain swap, a problem whose cell
// the old model predicted is answered from the new model's predictions.
// The new model is the old one fitted on doubled targets: it splits on the
// same thresholds, so a memo kept across the swap would hit the old grid.
func TestRouterSwapShardDropsMemo(t *testing.T) {
	spec := machine.Aurora()
	oracle := NewSimOracle(spec)
	oldAdv, newAdv := memoAdvisor(t, spec, 1), memoAdvisor(t, spec, 2)
	for _, f := range []int{featO, featV} {
		if !slices.Equal(oldAdv.Model.(thresholdLister).SplitThresholds(f), newAdv.Model.(thresholdLister).SplitThresholds(f)) {
			t.Fatalf("feature %d: the doubled fit split elsewhere, so the test cannot see a stale memo", f)
		}
	}
	r := NewRouter()
	if err := r.AddShard("aurora", oldAdv, WithOracle(oracle)); err != nil {
		t.Fatal(err)
	}
	svc, err := r.Shard("aurora")
	if err != nil {
		t.Fatal(err)
	}
	cell := sharedCell(svc.memo, 2)
	if len(cell) < 2 {
		t.Fatal("no lattice cell holds two problems")
	}
	if _, err := r.Recommend("aurora", cell[0], ShortestTime); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SwapShard("aurora", newAdv, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range cell {
		for _, obj := range []Objective{ShortestTime, Budget} {
			got, gerr := r.Recommend("aurora", p, obj)
			want, werr := newAdv.Recommend(p, obj, oracle)
			sameAnswer(t, fmt.Sprintf("after swap %v %v", p, obj), got, gerr, want, werr)
			if old, _ := oldAdv.Recommend(p, obj, oracle); old.PredTime == got.PredTime {
				t.Fatalf("%v %v: the old and new models predict the same time, so the test cannot tell them apart", p, obj)
			}
		}
	}
}

// TestServiceMemoConcurrentCell: concurrent misses of distinct problems in
// one lattice cell share its predicted grid, read it at once (the race
// detector checks that no one writes it), and each answer equals the
// advisor's. Each goroutine asks twice with the sweep cache off, so its
// second sweep finds the cell its first one stored.
func TestServiceMemoConcurrentCell(t *testing.T) {
	adv := memoAdvisor(t, machine.Aurora(), 1)
	oracle := NewSimOracle(machine.Aurora())
	svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	cell := sharedCell(svc.memo, 16)
	if len(cell) < 8 {
		t.Fatalf("the fullest lattice cell holds %d problems", len(cell))
	}
	want := map[Query]Recommendation{}
	for _, p := range cell {
		for _, obj := range []Objective{ShortestTime, Budget} {
			rec, err := adv.Recommend(p, obj, oracle)
			if err != nil {
				t.Fatal(err)
			}
			want[Query{p, obj}] = rec
		}
	}
	start := make(chan struct{})
	errs := make(chan error, 2*len(want))
	var wg sync.WaitGroup
	for q, w := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 2 {
				got, err := svc.Recommend(q.Problem, q.Objective)
				if err == nil && got != w {
					err = fmt.Errorf("%+v: got %+v, advisor %+v", q, got, w)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.CacheStats()
	n := uint64(2 * len(want))
	if st.MemoHits+st.MemoMisses != n || st.MemoMisses == 0 || st.MemoHits < n/2 {
		t.Fatalf("memo hits %d, misses %d for %d sweeps of one cell", st.MemoHits, st.MemoMisses, n)
	}
}

// BenchmarkService_Recommend times one Service query against the paper GB
// and SimOracle on Aurora, as `parcost serve` answers it:
//
//   - cache-hit: a repeat of a cached (problem, objective);
//   - memo-hit: a sweep whose lattice cell was already predicted (the sweep
//     cache is off, so every query sweeps);
//   - miss: a sweep of a cell not yet predicted, cycling through more cells
//     than the memo holds.
func BenchmarkService_Recommend(b *testing.B) {
	adv, oracle := paperAdvisor(b)
	var queries []Query
	for _, p := range dataset.PaperProblems() {
		queries = append(queries, Query{p, ShortestTime}, Query{p, Budget})
	}
	run := func(b *testing.B, svc *Service, qs []Query) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			q := qs[i%len(qs)]
			i++
			if _, err := svc.Recommend(q.Problem, q.Objective); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm := func(b *testing.B, svc *Service) {
		for _, q := range queries {
			if _, err := svc.Recommend(q.Problem, q.Objective); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache-hit", func(b *testing.B) {
		svc, err := newTestService(adv, WithOracle(oracle))
		if err != nil {
			b.Fatal(err)
		}
		warm(b, svc)
		run(b, svc, queries)
		if st := svc.CacheStats(); st.Misses != uint64(len(queries)) {
			b.Fatalf("%d cache misses, want only the %d warming ones", st.Misses, len(queries))
		}
	})
	b.Run("memo-hit", func(b *testing.B) {
		svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		warm(b, svc)
		_, warmMisses := svc.memo.counts()
		run(b, svc, queries)
		if _, misses := svc.memo.counts(); misses != warmMisses {
			b.Fatalf("%d memo misses after warming", misses-warmMisses)
		}
	})
	b.Run("miss", func(b *testing.B) {
		svc, err := newTestService(adv, WithOracle(oracle), WithCacheSize(0))
		if err != nil {
			b.Fatal(err)
		}
		// Paper problems moved by small offsets, one per cell, until the
		// cycle outgrows the memo: cyclic access to more cells than an LRU
		// holds misses every time.
		var cold []Query
		seen := map[[2]int]bool{}
		for d := 0; len(cold) <= gridMemoSize+gridMemoSize/4; d++ {
			for _, p := range dataset.PaperProblems() {
				p.O += d%9 - 4
				p.V += 3 * (d/9 - 20)
				if k := svc.memo.cell(p); !seen[k] {
					seen[k] = true
					cold = append(cold, Query{p, Objective(len(cold) % 2)})
				}
			}
		}
		run(b, svc, cold)
		if hits, _ := svc.memo.counts(); hits != 0 {
			b.Fatalf("%d memo hits in the miss benchmark", hits)
		}
	})
}
