package guide

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// offsetProblems returns the paper problems, each followed by a seeded O/V
// offset of it.
func offsetProblems() []dataset.Problem {
	r := rng.New(20261018)
	var out []dataset.Problem
	for _, p := range dataset.PaperProblems() {
		out = append(out, p, dataset.Problem{O: p.O + r.Intn(21) - 10, V: p.V + r.Intn(41) - 20})
	}
	return out
}

// eagerOnly hides a model's PredictGrid, so Recommend sweeps eagerly.
type eagerOnly struct{ ml.Regressor }

// sameAnswer fails t unless two Recommend results agree on the
// configuration, the PredTime and PredValue bits, and the error.
func sameAnswer(t *testing.T, what string, got Recommendation, gerr error, want Recommendation, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, eager sweep %v", what, gerr, werr)
	}
	if got.Problem != want.Problem || got.Objective != want.Objective || got.Config != want.Config ||
		math.Float64bits(got.PredTime) != math.Float64bits(want.PredTime) ||
		math.Float64bits(got.PredValue) != math.Float64bits(want.PredValue) {
		t.Fatalf("%s: %+v, eager sweep %+v", what, got, want)
	}
}

// TestRecommendGridMatchesEager: a GB advisor, which predicts the grid first
// and asks the oracle only about contenders, answers every paper problem
// and seeded offset, both objectives, under a simulator, a dataset and no
// oracle, exactly as the eager sweep does — including the error when the
// oracle keeps nothing.
func TestRecommendGridMatchesEager(t *testing.T) {
	spec := machine.Aurora()
	d := trainDataset(spec)
	gb := ensemble.NewGradientBoosting(100, 0.1, tree.Params{MaxDepth: 8}, 1)
	adv, err := NewAdvisor(gb, d)
	if err != nil {
		t.Fatal(err)
	}
	adv.Grid = dataset.DefaultGrid()
	eager := &Advisor{Model: eagerOnly{gb}, Grid: adv.Grid}
	if _, ok := eager.Model.(gridPredictor); ok {
		t.Fatal("eagerOnly does not hide PredictGrid")
	}
	oracles := []struct {
		name   string
		oracle Oracle
	}{
		{"sim", NewSimOracle(spec)},
		{"dataset", NewDatasetOracle(d)},
		{"none", nil},
		{"empty band", NewSimOracleBand(spec, 1e6, 2e6)},
	}
	answered, refused := 0, 0
	for _, o := range oracles {
		for _, p := range offsetProblems() {
			for _, obj := range []Objective{ShortestTime, Budget} {
				got, gerr := adv.Recommend(p, obj, o.oracle)
				want, werr := eager.Recommend(p, obj, o.oracle)
				sameAnswer(t, fmt.Sprintf("%s %v %v", o.name, p, obj), got, gerr, want, werr)
				if gerr == nil {
					answered++
				} else {
					refused++
				}
			}
		}
	}
	if answered == 0 || refused == 0 {
		t.Fatalf("%d answers and %d refusals; the cases must cover both", answered, refused)
	}
}

// rowModel predicts f(row) for each row, and its grid by expanding the
// rows, so it can stand for any gridPredictor.
type rowModel struct{ f func(row []float64) float64 }

func (m rowModel) Fit([][]float64, []float64) error { return nil }
func (m rowModel) Name() string                     { return "row" }

func (m rowModel) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.f(row)
	}
	return out
}

func (m rowModel) PredictGrid(base []float64, fa int, as []float64, fb int, bs []float64) []float64 {
	var out []float64
	for _, a := range as {
		for _, b := range bs {
			row := slices.Clone(base)
			row[fa], row[fb] = a, b
			out = append(out, m.f(row))
		}
	}
	return out
}

// TestRecommendGridTiesAndNaN: ties — including +0 against −0 — go to the
// first configuration in grid order on both paths, a NaN prediction sends
// the sweep down the eager path, and so does a grid out of order.
func TestRecommendGridTiesAndNaN(t *testing.T) {
	models := map[string]func(row []float64) float64{
		"constant": func([]float64) float64 { return 7 },
		"signed zeros": func(row []float64) float64 {
			if int(row[featNodes]+row[featTile])%20 == 0 {
				return 0
			}
			return math.Copysign(0, -1)
		},
		"plateau": func(row []float64) float64 { return math.Max(row[featTile], 100) },
		"NaN": func(row []float64) float64 {
			if row[featTile] == 60 {
				return math.NaN()
			}
			return row[featNodes]
		},
	}
	grids := map[string]dataset.Grid{
		"default":  dataset.DefaultGrid(),
		"unsorted": {Nodes: []int{50, 5, 200}, TileSizes: []int{80, 40, 60}},
	}
	oracle := NewSimOracle(machine.Frontier())
	for mname, f := range models {
		for gname, grid := range grids {
			adv := &Advisor{Model: rowModel{f}, Grid: grid}
			eager := &Advisor{Model: eagerOnly{rowModel{f}}, Grid: grid}
			for _, p := range dataset.PaperProblems()[:6] {
				for _, obj := range []Objective{ShortestTime, Budget} {
					for _, o := range []Oracle{oracle, nil} {
						got, gerr := adv.Recommend(p, obj, o)
						want, werr := eager.Recommend(p, obj, o)
						sameAnswer(t, fmt.Sprintf("%s on %s grid, %v %v oracle %v", mname, gname, p, obj, o != nil), got, gerr, want, werr)
					}
				}
			}
		}
	}
}

// BenchmarkAdvisor_Recommend times cold STQ and BQ queries for the 23 paper
// problems against the paper GB (750 trees, depth 10, fitted on a 2300-row
// simulated Aurora dataset as `parcost train` fits it), pruned by
// SimOracle: the grid-first sweep, and the eager sweep it replaces. One op
// is all 46 queries.
func BenchmarkAdvisor_Recommend(b *testing.B) {
	spec := machine.Aurora()
	d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
	gb := ensemble.NewGradientBoostingPaper(1)
	adv, err := NewAdvisor(gb, d)
	if err != nil {
		b.Fatal(err)
	}
	oracle := NewSimOracle(spec)
	problems := dataset.PaperProblems()
	for _, bc := range []struct {
		name string
		adv  *Advisor
	}{
		{"grid", adv},
		{"eager", &Advisor{Model: eagerOnly{gb}, Grid: adv.Grid}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range problems {
					for _, obj := range []Objective{ShortestTime, Budget} {
						if _, err := bc.adv.Recommend(p, obj, oracle); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
