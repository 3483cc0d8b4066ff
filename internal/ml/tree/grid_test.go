package tree

import (
	"math"
	"slices"
	"testing"

	"parcost/internal/rng"
)

// gridRows expands a product grid into the rows AddGrid stands for.
func gridRows(base []float64, fa int, as []float64, fb int, bs []float64) [][]float64 {
	rows := make([][]float64, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			row := slices.Clone(base)
			row[fa], row[fb] = a, b
			rows = append(rows, row)
		}
	}
	return rows
}

// requireGridMatchesRows checks AddGrid against predictRow on every cell,
// bit for bit, starting both sums from the same offset.
func requireGridMatchesRows(t *testing.T, name string, tr *Tree, base []float64, fa int, as []float64, fb int, bs []float64) {
	t.Helper()
	const offset, scale = 0.25, 0.1
	got := make([]float64, len(as)*len(bs))
	for i := range got {
		got[i] = offset
	}
	var s GridScratch
	tr.AddGrid(got, base, fa, as, fb, bs, scale, &s)
	for i, row := range gridRows(base, fa, as, fb, bs) {
		want := offset + float64(scale*tr.predictRow(row))
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: cell %d (row %v) = %v, row-wise %v", name, i, row, got[i], want)
		}
	}
}

// splitThresholds returns the sorted distinct thresholds the tree splits
// feature f on.
func splitThresholds(tr *Tree, f int) []float64 {
	var out []float64
	for i, feat := range tr.nodes.Feature {
		if int(feat) == f {
			out = append(out, tr.nodes.Cut[i])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestAddGridMatchesPredict: one box walk gives every cell the leaf value
// its row reaches, for trees of both split engines, on axes strictly
// between thresholds and on axes made of the thresholds themselves, with
// the axes in either feature order.
func TestAddGridMatchesPredict(t *testing.T) {
	r := rng.New(7)
	n := 700
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b, c := float64(r.Intn(5)), r.Uniform(0, 10), float64(10*r.Intn(30))
		x[i] = []float64{a, b, c}
		y[i] = a*a + math.Sin(b)*c + r.Normal()
	}
	axisB := make([]float64, 0, 41)
	for v := -0.5; v <= 10.5; v += 0.275 {
		axisB = append(axisB, v)
	}
	axisC := []float64{-10, 0, 5, 10, 45, 100, 150, 155, 290, 300}
	for _, sp := range []Splitter{SplitterExact, SplitterHist} {
		tr := New(Params{MaxDepth: 9, Splitter: sp}, nil)
		if err := tr.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		for _, a := range []float64{0, 2, 4, 7} {
			base := []float64{a, 0, 0}
			requireGridMatchesRows(t, "between", tr, base, 1, axisB, 2, axisC)
			requireGridMatchesRows(t, "swapped", tr, base, 2, axisC, 1, axisB)
			requireGridMatchesRows(t, "on thresholds", tr, base, 1, splitThresholds(tr, 1), 2, splitThresholds(tr, 2))
		}
		// The fixed feature as an axis too: every split then cuts a box.
		requireGridMatchesRows(t, "axis 0", tr, []float64{0, 3.3, 0}, 0, splitThresholds(tr, 0), 2, axisC)
		requireGridMatchesRows(t, "one cell", tr, []float64{1, 0, 0}, 1, []float64{5}, 2, []float64{120})
	}
}

// TestAddGridOneLeafAndNaNThreshold covers a tree that is a single leaf and
// a split whose threshold is NaN, which sends every row right. FromState
// refuses a NaN threshold, so that tree is built from its arrays directly.
func TestAddGridOneLeafAndNaNThreshold(t *testing.T) {
	leaf := New(DefaultParams(), nil)
	if err := leaf.Fit([][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if leaf.NodeCount() != 1 {
		t.Fatalf("constant target grew %d nodes, want one leaf", leaf.NodeCount())
	}
	requireGridMatchesRows(t, "one leaf", leaf, []float64{0, 0}, 0, []float64{1, 2, 3}, 1, []float64{-1, 4})

	st := State{
		Dim:   2,
		Gains: []float64{0, 0},
		nodeArrays: nodeArrays{
			Feature: []int32{0, -1, 1, -1, -1},
			Cut:     []float64{math.NaN(), 1, 2.5, 2, 3},
			Left:    []int32{1, -1, 3, -1, -1},
			Right:   []int32{2, -1, 4, -1, -1},
		},
	}
	if _, err := FromState(&st); err == nil {
		t.Fatal("FromState accepted a NaN threshold")
	}
	nan := &Tree{nodes: st.nodeArrays, dim: st.Dim, gains: st.Gains}
	requireGridMatchesRows(t, "NaN threshold", nan, []float64{0, 0}, 0, []float64{-1, 0, 1}, 1, []float64{1, 2.5, 4})
}

// TestAddGridEmptyAxis leaves dst alone when the grid has no cells.
func TestAddGridEmptyAxis(t *testing.T) {
	tr := New(DefaultParams(), nil)
	if err := tr.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var s GridScratch
	tr.AddGrid(nil, []float64{0, 0}, 0, nil, 1, []float64{1}, 1, &s)
}
