package guide

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/machine"
	"parcost/internal/ml"
	"parcost/internal/ml/ensemble"
	"parcost/internal/modelsel"
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

// eagerRecommend is the reference Recommend is checked against: the eager
// sweep, which asks the oracle about every configuration, predicts the kept
// ones with Predict and returns the first minimum in grid order (strict
// `<`). A NaN objective value is skipped like a configuration the oracle
// refuses, so it is never the answer.
func eagerRecommend(a *Advisor, p dataset.Problem, obj Objective, oracle Oracle) (Recommendation, error) {
	keep := keepFunc(oracle)
	var kept []dataset.Config
	var rows [][]float64
	for _, c := range a.Grid.Configs(p) {
		if keep == nil || keep(c) {
			kept = append(kept, c)
			rows = append(rows, c.Features())
		}
	}
	var preds []float64
	if len(rows) > 0 {
		preds = a.Model.Predict(rows)
	}
	best, bestVal := -1, 0.0
	for i, c := range kept {
		v := obj.value(c, preds[i])
		if !math.IsNaN(v) && (best < 0 || v < bestVal) {
			best, bestVal = i, v
		}
	}
	if best < 0 {
		return Recommendation{}, fmt.Errorf("guide: no feasible configurations for %v", p)
	}
	return Recommendation{Problem: p, Objective: obj, Config: kept[best], PredTime: preds[best], PredValue: bestVal}, nil
}

// rowsOnly hides a model's PredictGrid, so Recommend predicts the grid's
// rows with Predict.
type rowsOnly struct{ ml.Regressor }

// sameAnswer fails t unless a Recommend result agrees with its reference
// on the configuration, the PredTime and PredValue bits, and the error.
func sameAnswer(t *testing.T, what string, got Recommendation, gerr error, want Recommendation, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if got.Problem != want.Problem || got.Objective != want.Objective || got.Config != want.Config ||
		math.Float64bits(got.PredTime) != math.Float64bits(want.PredTime) ||
		math.Float64bits(got.PredValue) != math.Float64bits(want.PredValue) {
		t.Fatalf("%s: %+v, reference %+v", what, got, want)
	}
}

// TestRecommendGridMatchesEager: an advisor of every registry family but
// SVR (whose SMO fit is too slow for a unit test), fitted with the
// family's default parameters, answers every paper problem and seeded
// offset, both objectives, under a simulator, a dataset, no oracle and an
// oracle that keeps nothing, exactly as the eager sweep does — including the error when the oracle
// keeps nothing. GB predicts the grid in one PredictGrid call; the others
// through Predict over the grid's rows.
func TestRecommendGridMatchesEager(t *testing.T) {
	spec := machine.Aurora()
	d := trainDataset(spec)
	oracles := []struct {
		name   string
		oracle Oracle
	}{
		{"sim", NewSimOracle(spec)},
		{"dataset", NewDatasetOracle(d)},
		{"none", nil},
		{"empty band", NewSimOracleBand(spec, 1e6, 2e6)},
	}
	reg := modelsel.Registry(1)
	for _, code := range modelsel.RegistryCodes() {
		if code == "SVR" {
			continue
		}
		t.Run(code, func(t *testing.T) {
			t.Parallel()
			model, err := reg[code].Factory(modelsel.Params{})
			if err != nil {
				t.Fatal(err)
			}
			adv, err := NewAdvisor(model, d)
			if err != nil {
				t.Fatal(err)
			}
			adv.Grid = dataset.DefaultGrid()
			_, isGrid := model.(gridPredictor)
			if isGrid != (code == "GB") {
				t.Fatalf("%s implements PredictGrid: %v", code, isGrid)
			}
			answered, refused := 0, 0
			for _, o := range oracles {
				for _, p := range offsetProblems() {
					for _, obj := range []Objective{ShortestTime, Budget} {
						got, gerr := adv.Recommend(p, obj, o.oracle)
						want, werr := eagerRecommend(adv, p, obj, o.oracle)
						sameAnswer(t, fmt.Sprintf("%s %s %v %v", code, o.name, p, obj), got, gerr, want, werr)
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
		})
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
// first configuration in grid order, whether the grid is predicted whole
// or row by row; a NaN prediction is never recommended; and a grid out of
// order, repeated, empty or ≤ 0 is refused with checkGrid's error.
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
			if row[featTile] == 60 || row[featNodes] == 5 {
				return math.NaN()
			}
			return row[featNodes]
		},
		"all NaN": func([]float64) float64 { return math.NaN() },
	}
	oracle := NewSimOracle(machine.Frontier())
	grid := dataset.DefaultGrid()
	nanAnswers := 0
	for mname, f := range models {
		for _, m := range []ml.Regressor{rowModel{f}, rowsOnly{rowModel{f}}} {
			adv := &Advisor{Model: m, Grid: grid}
			_, isGrid := m.(gridPredictor)
			for _, p := range dataset.PaperProblems()[:6] {
				for _, obj := range []Objective{ShortestTime, Budget} {
					for _, o := range []Oracle{oracle, nil} {
						what := fmt.Sprintf("%s (grid %v), %v %v oracle %v", mname, isGrid, p, obj, o != nil)
						got, gerr := adv.Recommend(p, obj, o)
						want, werr := eagerRecommend(adv, p, obj, o)
						sameAnswer(t, what, got, gerr, want, werr)
						if gerr == nil && (math.IsNaN(got.PredTime) || math.IsNaN(got.PredValue)) {
							t.Fatalf("%s: recommended a NaN prediction %+v", what, got)
						}
						if mname == "NaN" && gerr == nil {
							nanAnswers++
						}
					}
				}
			}
		}
	}
	if nanAnswers == 0 {
		t.Fatal("the NaN model answered nothing; its cases must reach a non-NaN answer")
	}

	for gname, bad := range map[string]dataset.Grid{
		"unsorted":     {Nodes: []int{50, 5, 200}, TileSizes: []int{80, 40, 60}},
		"repeated":     {Nodes: []int{5, 50}, TileSizes: []int{40, 40}},
		"empty":        {Nodes: []int{5, 50}},
		"non-positive": {Nodes: []int{0, 50}, TileSizes: []int{40}},
	} {
		want := checkGrid(bad)
		if want == nil {
			t.Fatalf("%s grid passes checkGrid", gname)
		}
		for _, m := range []ml.Regressor{rowModel{models["constant"]}, rowsOnly{rowModel{models["constant"]}}} {
			adv := &Advisor{Model: m, Grid: bad}
			if _, err := adv.Recommend(dataset.PaperProblems()[0], ShortestTime, oracle); err == nil || err.Error() != "guide: "+want.Error() {
				t.Fatalf("%s grid: error %v, want checkGrid's %v", gname, err, want)
			}
		}
	}
}

// BenchmarkAdvisor_Recommend times cold STQ and BQ queries for the 23 paper
// problems against the paper GB (750 trees, depth 10, fitted on a 2300-row
// simulated Aurora dataset as `parcost train` fits it), pruned by
// SimOracle: "grid" predicts each query's grid in one PredictGrid call,
// "rows" the same grid through Predict over its 495 rows, as Recommend
// does for a model without PredictGrid. One op is all 46 queries.
func BenchmarkAdvisor_Recommend(b *testing.B) {
	adv, oracle := paperAdvisor(b)
	gb := adv.Model
	problems := dataset.PaperProblems()
	for _, bc := range []struct {
		name string
		adv  *Advisor
	}{
		{"grid", adv},
		{"rows", &Advisor{Model: rowsOnly{gb}, Grid: adv.Grid}},
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

var paperFit struct {
	once   sync.Once
	adv    *Advisor
	oracle *SimOracle
	err    error
}

// paperAdvisor returns the paper GB (750 trees, depth 10) fitted on a
// 2300-row simulated Aurora dataset, as `parcost train` fits it, and the
// Aurora SimOracle. The fit runs once per test binary.
func paperAdvisor(b *testing.B) (*Advisor, *SimOracle) {
	paperFit.once.Do(func() {
		spec := machine.Aurora()
		d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
		paperFit.adv, paperFit.err = NewAdvisor(ensemble.NewGradientBoostingPaper(1), d)
		paperFit.oracle = NewSimOracle(spec)
	})
	if paperFit.err != nil {
		b.Fatal(paperFit.err)
	}
	return paperFit.adv, paperFit.oracle
}
