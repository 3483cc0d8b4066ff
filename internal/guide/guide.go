// Package guide implements the user-facing core of the paper: an Advisor
// that trains a runtime-prediction model and uses it to answer the two
// questions of interest — the Shortest-Time Question (STQ) and the Budget
// Question (BQ).
//
// Following Section 3.3–3.4 of the paper, the Advisor first fits a
// regression model predicting single-iteration wall time from
// ⟨O, V, NumNodes, TileSize⟩, then, for a user's fixed ⟨O, V⟩, sweeps a grid
// of candidate ⟨NumNodes, TileSize⟩ and selects the configuration optimizing
// the chosen objective:
//
//   - STQ: minimize predicted execution time.
//   - BQ:  minimize predicted node-hours (NumNodes × time / 3600).
//
// An optional Oracle keeps only feasible, in-band configurations. Every
// model is swept in one order, predict first: the whole grid is predicted
// (in one call for a model that predicts whole grids, such as the gradient
// boosting every served bundle holds), and the oracle is then asked about
// configurations in order of predicted objective until it keeps one (see
// Advisor.Recommend).
//
// The package also implements the paper's careful true-loss evaluation: the
// loss of a prediction is measured not by the predicted time at the
// predicted optimum, but by the *true* time of the predicted configuration
// (Section 3.4). This is what makes the STQ/BQ accuracy numbers meaningful.
//
// # Serving
//
// Around the Advisor sits a serving stack sized for a fleet:
//
//   - Service wraps one fitted Advisor for concurrent serving. Its cache
//     engine (the unexported sweepCache) is a bounded LRU of sweep results
//     keyed by (problem, objective) with coalesced concurrent misses, an
//     entry-count bound, and an optional per-entry TTL so models retrained
//     in place age out stale sweeps.
//     Behind that cache, a shard whose model lists its split thresholds
//     (gradient boosting) shares one predicted grid among every problem in
//     the same cell of the threshold lattice (see gridMemo).
//   - Router registers one Service shard per machine behind a single
//     Recommend(machine, problem, objective) API. All shards share one
//     sweep semaphore, so the fleet's total CPU-bound grid sweeps stay
//     bounded; shards hot-add/remove for retrain-in-place; per-shard and
//     aggregate CacheStats feed observability; SaveWarmSet/LoadWarmSet
//     persist the hottest cache keys across restarts and pre-sweep them at
//     startup.
//   - Artifacts: the fleet bundle (version 4) is the one file format.
//     SaveBundle writes N named advisors and shared metadata: a one-line
//     header (format, version, one sha256 over the rest), a JSON index of
//     each entry's machine, candidate grid and model kind, then each
//     entry's ml.ModelState bytes, length-delimited. Tree models store
//     their node arrays there as binary tree blocks. LoadFleet reads it
//     back, handing each state slice to ml.DecodeModel in place, and
//     LoadAdvisor reads a one-entry fleet. Other formats and versions,
//     versions 1–3 included, are refused with a FormatError.
package guide

import (
	"fmt"
	"math"

	"parcost/internal/dataset"
	"parcost/internal/ml"
	"parcost/internal/stats"
)

// Objective selects what the Advisor optimizes.
type Objective int

const (
	// ShortestTime minimizes predicted execution time (STQ).
	ShortestTime Objective = iota
	// Budget minimizes predicted node-hours (BQ).
	Budget
)

// String names the objective.
func (o Objective) String() string {
	if o == Budget {
		return "BQ"
	}
	return "STQ"
}

// value returns the objective value for a configuration running in secs.
func (o Objective) value(c dataset.Config, secs float64) float64 {
	if o == Budget {
		return float64(c.Nodes) * secs / 3600
	}
	return secs
}

// Oracle returns the ground-truth iteration time of a configuration. It
// stands in for actually running CCSD. Two implementations are provided:
// a simulator-backed oracle and a dataset-backed lookup oracle.
type Oracle interface {
	// TrueTime returns the true seconds for a configuration and whether it
	// is known/feasible.
	TrueTime(c dataset.Config) (float64, bool)
}

// bandOracle is an Oracle that can answer TrueTime's ok on its own, without
// the seconds. BandWalk returns a decision function for one walk over a
// grid; its result for c must equal TrueTime(c)'s ok for every c, in any
// order of asking. Advisor.Recommend prunes with one BandWalk per query when
// its oracle implements it.
type bandOracle interface {
	BandWalk() func(dataset.Config) bool
}

// Advisor wraps a fitted runtime-prediction model and answers STQ/BQ.
type Advisor struct {
	Model ml.Regressor
	Grid  dataset.Grid
}

// NewAdvisor trains model on the dataset (features → seconds) and returns an
// Advisor over the default candidate grid.
func NewAdvisor(model ml.Regressor, d *dataset.Dataset) (*Advisor, error) {
	if err := model.Fit(d.Features(), d.Targets()); err != nil {
		return nil, fmt.Errorf("guide: training advisor model: %w", err)
	}
	// Recommend only within the explored configuration space so the model
	// is queried in-distribution rather than extrapolating.
	return &Advisor{Model: model, Grid: dataset.GridFromDataset(d)}, nil
}

// Recommendation is an answer to an STQ/BQ query.
type Recommendation struct {
	Problem   dataset.Problem
	Objective Objective
	Config    dataset.Config // the chosen ⟨nodes, tile⟩ for this problem
	PredTime  float64        // predicted iteration seconds at Config
	PredValue float64        // predicted objective value (secs or node-hours)
}

// gridPredictor is a model that predicts a whole product grid of rows at
// once (ensemble.GradientBoosting does). Cell i*len(bs)+j of
// PredictGrid(base, fa, as, fb, bs) is the row base with base[fa] = as[i]
// and base[fb] = bs[j], and it must equal Predict([][]float64{row})[0] for
// that row bit for bit, whatever other cells the grid holds. as and bs are
// strictly increasing.
type gridPredictor interface {
	PredictGrid(base []float64, fa int, as []float64, fb int, bs []float64) []float64
}

// Feature indices of a configuration's node count and tile size, as laid
// out by dataset.Config.AppendFeatures.
const (
	featNodes = 2
	featTile  = 3
)

// Recommend answers a query for one problem size and objective by sweeping
// the candidate grid and returning the configuration minimizing the
// predicted objective. An optional Oracle prunes infeasible configurations.
// Pruning needs only each configuration's ok, so an oracle with a BandWalk
// method (SimOracle) is asked through one walk per query, which gives
// TrueTime's decisions but computes seconds only near a band edge; any
// other Oracle is asked TrueTime.
//
// The sweep predicts first. The grid must pass the bundle's checkGrid rule
// (both axes non-empty, positive and strictly increasing); a grid that does
// not is refused with that error. Every configuration is predicted (in one
// PredictGrid call when the model has it, otherwise one Predict over the
// grid's rows), the configurations are walked in (objective, grid index)
// order, and the oracle is asked only until it keeps one, which is the
// answer. A NaN objective value is never recommended: it is skipped like a
// configuration the oracle refuses.
//
// Tie-breaking is deterministic: the grid is enumerated in its stable order
// (Grid.Configs enumerates sorted nodes × sorted tiles) and the walk
// orders equal values by grid index, so among equal values the FIRST
// configuration in grid order wins. Two processes holding the same fitted model — e.g. one that trained
// it and one that loaded its artifact — therefore return identical
// recommendations.
func (a *Advisor) Recommend(p dataset.Problem, obj Objective, oracle Oracle) (Recommendation, error) {
	cfgs, err := a.configs(p)
	if err != nil {
		return Recommendation{}, err
	}
	return choose(p, obj, cfgs, a.predictGrid(p, cfgs), oracle)
}

// configs checks a.Grid and enumerates it for p.
func (a *Advisor) configs(p dataset.Problem) ([]dataset.Config, error) {
	if err := checkGrid(a.Grid); err != nil {
		return nil, fmt.Errorf("guide: %w", err)
	}
	return a.Grid.Configs(p), nil
}

// choose is Recommend's walk over a predicted grid: preds[i] is the
// predicted seconds of cfgs[i]. It only reads preds, so one predicted grid
// may serve several queries at once.
func choose(p dataset.Problem, obj Objective, cfgs []dataset.Config, preds []float64, oracle Oracle) (Recommendation, error) {
	vals := make([]float64, len(cfgs))
	order := make([]int, 0, len(cfgs))
	for i, c := range cfgs {
		vals[i] = obj.value(c, preds[i])
		if !math.IsNaN(vals[i]) {
			order = append(order, i)
		}
	}
	// The walk visits configurations in (value, grid index) order, the
	// order a stable sort by value gives, so the first minimum in grid
	// order wins. It usually stops after a few dozen, so it pops them from
	// a heap instead of sorting them all.
	h := walkOrder{vals: vals, idx: order}
	h.init()
	keep := keepFunc(oracle)
	for len(h.idx) > 0 {
		i := h.pop()
		if keep == nil || keep(cfgs[i]) {
			return Recommendation{Problem: p, Objective: obj, Config: cfgs[i], PredTime: preds[i], PredValue: vals[i]}, nil
		}
	}
	return Recommendation{}, fmt.Errorf("guide: no feasible configurations for %v", p)
}

// walkOrder is a binary min-heap of grid indices keyed by (vals[i], i).
// The keys are distinct and vals holds no NaN, so popping it gives a stable
// sort's order by value.
type walkOrder struct {
	vals []float64
	idx  []int
}

func (h *walkOrder) less(a, b int) bool {
	return h.vals[a] < h.vals[b] || (h.vals[a] == h.vals[b] && a < b)
}

func (h *walkOrder) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the least index.
func (h *walkOrder) pop() int {
	top, n := h.idx[0], len(h.idx)-1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	h.down(0)
	return top
}

func (h *walkOrder) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h.idx) {
			return
		}
		if r := m + 1; r < len(h.idx) && h.less(h.idx[r], h.idx[m]) {
			m = r
		}
		if !h.less(h.idx[m], h.idx[i]) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		i = m
	}
}

// predictGrid predicts every configuration of cfgs, which is a.Grid's
// enumeration for p: in one PredictGrid call when the model has it,
// otherwise in one Predict over rows that share a flat backing array,
// dataset.NumFeatures floats per configuration.
func (a *Advisor) predictGrid(p dataset.Problem, cfgs []dataset.Config) []float64 {
	if gp, ok := a.Model.(gridPredictor); ok {
		return gp.PredictGrid(dataset.Config{O: p.O, V: p.V}.Features(), featNodes, floatAxis(a.Grid.Nodes), featTile, floatAxis(a.Grid.TileSizes))
	}
	flat := make([]float64, 0, dataset.NumFeatures*len(cfgs))
	for _, c := range cfgs {
		flat = c.AppendFeatures(flat)
	}
	rows := make([][]float64, len(cfgs))
	for i := range rows {
		rows[i] = flat[i*dataset.NumFeatures : (i+1)*dataset.NumFeatures : (i+1)*dataset.NumFeatures]
	}
	return a.Model.Predict(rows)
}

// floatAxis converts a grid axis to the features the model sees.
func floatAxis(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// keepFunc returns the oracle's pruning decision for one walk: a BandWalk
// when the oracle has it, TrueTime's ok otherwise, nil for no oracle.
func keepFunc(oracle Oracle) func(dataset.Config) bool {
	switch o := oracle.(type) {
	case nil:
		return nil
	case bandOracle:
		return o.BandWalk()
	default:
		return func(c dataset.Config) bool {
			_, ok := o.TrueTime(c)
			return ok
		}
	}
}

// OptimalConfig returns the ground-truth optimal configuration for a
// problem and objective by sweeping the grid against the oracle. It is used
// both to build the reference answers and to compute the true loss of a
// prediction.
func OptimalConfig(oracle Oracle, grid dataset.Grid, p dataset.Problem, obj Objective) (dataset.Config, float64, float64, bool) {
	var bestCfg dataset.Config
	var bestVal, bestTime float64
	found := false
	for _, c := range grid.Configs(p) {
		secs, ok := oracle.TrueTime(c)
		if !ok {
			continue
		}
		v := obj.value(c, secs)
		if !found || v < bestVal {
			found = true
			bestCfg, bestVal, bestTime = c, v, secs
		}
	}
	return bestCfg, bestVal, bestTime, found
}

// QueryResult records the truth-vs-prediction comparison for one problem,
// following the paper's true-loss methodology.
type QueryResult struct {
	Problem       dataset.Problem
	Objective     Objective
	TrueConfig    dataset.Config // ground-truth optimum
	PredConfig    dataset.Config // model's recommended config
	TrueValue     float64        // objective value of the true optimum
	PredTrueValue float64        // TRUE objective value of the predicted config
	PredValue     float64        // model's *predicted* objective value (optimistic)
	Correct       bool           // whether the model picked the true optimum
}

// Loss returns the true regret: PredTrueValue − TrueValue (≥ 0 by
// construction since TrueValue is the minimum).
func (q QueryResult) Loss() float64 { return q.PredTrueValue - q.TrueValue }

// Evaluate answers a query for one problem and computes its true loss
// against the oracle. It implements the paper's prescription: locate the
// predicted configuration, then score it by its TRUE objective value, not
// by the model's (optimistic) predicted value.
func (a *Advisor) Evaluate(oracle Oracle, p dataset.Problem, obj Objective) (QueryResult, error) {
	rec, err := a.Recommend(p, obj, oracle)
	if err != nil {
		return QueryResult{}, err
	}
	trueCfg, trueVal, _, ok := OptimalConfig(oracle, a.Grid, p, obj)
	if !ok {
		return QueryResult{}, fmt.Errorf("guide: no true optimum for %v", p)
	}
	predTrueSecs, ok := oracle.TrueTime(rec.Config)
	if !ok {
		return QueryResult{}, fmt.Errorf("guide: predicted config %v has no true time", rec.Config)
	}
	return QueryResult{
		Problem:       p,
		Objective:     obj,
		TrueConfig:    trueCfg,
		PredConfig:    rec.Config,
		TrueValue:     trueVal,
		PredTrueValue: obj.value(rec.Config, predTrueSecs),
		PredValue:     rec.PredValue,
		Correct:       trueCfg == rec.Config,
	}, nil
}

// EvaluateAll runs Evaluate over a set of problems and aggregates the
// true-loss metrics (Section 4.3/4.4 reporting).
func (a *Advisor) EvaluateAll(oracle Oracle, problems []dataset.Problem, obj Objective) ([]QueryResult, stats.Scores, int, error) {
	var results []QueryResult
	var trueVals, predVals []float64
	correct := 0
	for _, p := range problems {
		q, err := a.Evaluate(oracle, p, obj)
		if err != nil {
			continue // infeasible problem on this grid; skip
		}
		results = append(results, q)
		trueVals = append(trueVals, q.TrueValue)
		predVals = append(predVals, q.PredTrueValue)
		if q.Correct {
			correct++
		}
	}
	if len(results) == 0 {
		return nil, stats.Scores{}, 0, fmt.Errorf("guide: no evaluable problems")
	}
	return results, stats.Evaluate(trueVals, predVals), correct, nil
}
