package ensemble

import (
	"math"
	"slices"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// Feature indices of a configuration's node count and tile size
// (dataset.Config.AppendFeatures).
const (
	featNodes = 2
	featTile  = 3
)

// gridProblems returns the paper problems and, for each, a seeded O/V
// offset of it.
func gridProblems() []dataset.Problem {
	r := rng.New(20261018)
	var out []dataset.Problem
	for _, p := range dataset.PaperProblems() {
		out = append(out, p, dataset.Problem{O: p.O + r.Intn(21) - 10, V: p.V + r.Intn(41) - 20})
	}
	return out
}

// floats converts a grid axis to features.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// requireGridMatchesPredict checks PredictGrid against Predict over the
// expanded rows, bit for bit on every cell.
func requireGridMatchesPredict(t *testing.T, name string, g *GradientBoosting, base []float64, as, bs []float64) {
	t.Helper()
	rows := make([][]float64, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			row := slices.Clone(base)
			row[featNodes], row[featTile] = a, b
			rows = append(rows, row)
		}
	}
	want := g.Predict(rows)
	got := g.PredictGrid(base, featNodes, as, featTile, bs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d (row %v) = %v, Predict %v", name, i, rows[i], got[i], want[i])
		}
	}
}

// axisThresholds returns the sorted distinct thresholds any member tree
// splits feature f on.
func axisThresholds(t *testing.T, g *GradientBoosting, f int) []float64 {
	t.Helper()
	var out []float64
	for _, tr := range g.trees {
		st, err := tr.State()
		if err != nil {
			t.Fatal(err)
		}
		for i, feat := range st.Feature {
			if int(feat) == f {
				out = append(out, st.Cut[i])
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestPredictGridMatchesPredict: a GB fitted with either split engine
// predicts DefaultGrid for every paper problem and a seeded offset of each
// exactly as Predict does row by row, and so it does on axes made of the
// ensemble's own node and tile thresholds, where every cell sits on a split.
func TestPredictGridMatchesPredict(t *testing.T) {
	d := ccsd.Generate(machine.Aurora(), ccsd.GenConfig{
		Grid: dataset.Grid{
			Nodes:     []int{5, 15, 30, 50, 100, 200, 400, 800},
			TileSizes: []int{40, 60, 80, 100, 120},
		},
		Noise: true,
		Seed:  1,
	})
	grid := dataset.DefaultGrid()
	nodes, tiles := floats(grid.Nodes), floats(grid.TileSizes)
	for _, sp := range []tree.Splitter{tree.SplitterHist, tree.SplitterExact} {
		g := NewGradientBoosting(60, 0.1, tree.Params{MaxDepth: 8, Splitter: sp}, 3)
		if err := g.Fit(d.Features(), d.Targets()); err != nil {
			t.Fatal(err)
		}
		for _, p := range gridProblems() {
			requireGridMatchesPredict(t, p.String(), g, dataset.Config{O: p.O, V: p.V}.Features(), nodes, tiles)
		}
		onNodes, onTiles := axisThresholds(t, g, featNodes), axisThresholds(t, g, featTile)
		if len(onNodes) < 2 || len(onTiles) < 2 {
			t.Fatalf("splitter %d: too few node (%d) or tile (%d) thresholds", sp, len(onNodes), len(onTiles))
		}
		requireGridMatchesPredict(t, "on thresholds", g, []float64{146, 1096, 0, 0}, onNodes, onTiles)
	}
}

// TestPredictGridOneLeafTrees covers an ensemble of single-leaf trees.
func TestPredictGridOneLeafTrees(t *testing.T) {
	x := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	g := NewGradientBoosting(5, 0.1, tree.Params{MaxDepth: 4}, 1)
	if err := g.Fit(x, []float64{3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	requireGridMatchesPredict(t, "one leaf", g, []float64{1, 2, 0, 0}, []float64{1, 5, 9}, []float64{4, 8})
}

// TestPredictGridRefusesBadAxes: axes out of order, repeated or NaN, and
// axis features that coincide or fall outside the row, are caller bugs.
func TestPredictGridRefusesBadAxes(t *testing.T) {
	x := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	g := NewGradientBoosting(2, 0.1, tree.Params{MaxDepth: 2}, 1)
	if err := g.Fit(x, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	base := []float64{1, 2, 0, 0}
	for name, call := range map[string]func(){
		"unsorted": func() { g.PredictGrid(base, 2, []float64{2, 1}, 3, []float64{1}) },
		"repeated": func() { g.PredictGrid(base, 2, []float64{1}, 3, []float64{4, 4}) },
		"NaN":      func() { g.PredictGrid(base, 2, []float64{1, math.NaN()}, 3, []float64{1}) },
		"same":     func() { g.PredictGrid(base, 2, []float64{1}, 2, []float64{1}) },
		"outside":  func() { g.PredictGrid(base, 2, []float64{1}, 4, []float64{1}) },
		"unfitted": func() { (&GradientBoosting{}).PredictGrid(base, 2, []float64{1}, 3, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PredictGrid did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkGBPredictGrid times the paper GB (750 trees, depth 10, fitted on
// a 2300-row simulated Aurora dataset as `parcost train` fits it) over one
// problem's DefaultGrid: the box walk, and Predict over the 495 expanded
// rows it replaces.
func BenchmarkGBPredictGrid(b *testing.B) {
	d := ccsd.Generate(machine.Aurora(), ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
	g := NewGradientBoostingPaper(1)
	if err := g.Fit(d.Features(), d.Targets()); err != nil {
		b.Fatal(err)
	}
	p := dataset.Problem{O: 146, V: 1096}
	grid := dataset.DefaultGrid()
	nodes, tiles := floats(grid.Nodes), floats(grid.TileSizes)
	base := dataset.Config{O: p.O, V: p.V}.Features()
	cfgs := grid.Configs(p)
	rows := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		rows[i] = c.Features()
	}
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			g.PredictGrid(base, featNodes, nodes, featTile, tiles)
		}
	})
	b.Run("rows-495", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			g.Predict(rows)
		}
	})
}

// TestGBSplitThresholdsLattice: SplitThresholds lists every tree's
// thresholds on a feature once, in increasing order, and two rows that
// differ only in that feature, with as many listed thresholds below each
// value, predict the same bits.
func TestGBSplitThresholdsLattice(t *testing.T) {
	r := rng.New(9)
	x, y := nonlinearData(r, 400, 0.1)
	gb := NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 5}, 9)
	if err := gb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for f := range 3 {
		thr := gb.SplitThresholds(f)
		if len(thr) == 0 || !strictlyIncreasing(thr) {
			t.Fatalf("feature %d: thresholds %v are not strictly increasing", f, thr)
		}
		for _, tr := range gb.trees {
			for _, th := range tr.AppendThresholds(nil, f) {
				if _, ok := slices.BinarySearch(thr, th); !ok {
					t.Fatalf("feature %d: threshold %v of a tree is not listed", f, th)
				}
			}
		}
		// Each row is moved to the bottom and the top of its own cell (a
		// threshold itself, or just above the one below) and must not move.
		for _, row := range x[:50] {
			k, _ := slices.BinarySearch(thr, row[f])
			lo := math.Inf(-1)
			if k > 0 {
				lo = math.Nextafter(thr[k-1], math.Inf(1))
			}
			hi := math.Inf(1)
			if k < len(thr) {
				hi = thr[k]
			}
			want := gb.Predict([][]float64{row})[0]
			for _, v := range []float64{lo, hi} {
				moved := slices.Clone(row)
				moved[f] = v
				if got := gb.Predict([][]float64{moved})[0]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("feature %d: %v → %v moved the prediction %v → %v within one cell", f, row[f], v, want, got)
				}
			}
		}
	}
}
