package ensemble

// Staged cross-validation support: all three ensembles expose FitStaged so a
// hyper-parameter sweep over the tree-count axis costs one fit at the
// largest count instead of one per candidate. Each implementation trains
// normally (the prefix property makes the full fit identical to every
// smaller fit's prefix) and then replays predictions member-by-member in
// index order, snapshotting at each requested stage — the exact accumulation
// order Predict uses, so staged results are bit-identical to direct fits.

import (
	"fmt"

	"parcost/internal/ml"
	"parcost/internal/ml/tree"
)

// checkStages validates the stage list against the configured ensemble size.
func checkStages(stages []int, size int) error {
	if len(stages) == 0 {
		return fmt.Errorf("ensemble: FitStaged with no stages")
	}
	for i := 1; i < len(stages); i++ {
		if stages[i] <= stages[i-1] {
			return fmt.Errorf("ensemble: FitStaged stages not ascending: %v", stages)
		}
	}
	if last := stages[len(stages)-1]; last != size {
		return fmt.Errorf("ensemble: FitStaged last stage %d != configured size %d", last, size)
	}
	return nil
}

// FitStaged trains the booster at NumTrees (the last stage) and emits eval
// predictions for each prefix stage. Prediction accumulation follows
// Predict's exact order — init plus lr-scaled tree steps in index order —
// but streams: each round's tree is scored against eval and then discarded
// instead of retained. The model is therefore NOT usable for further
// prediction after FitStaged; it exists to score the stages (the CV engine
// refits the chosen candidate from scratch).
func (g *GradientBoosting) FitStaged(x [][]float64, y []float64, eval [][]float64, stages []int, emit func(stageIdx int, pred []float64)) error {
	if err := checkStages(stages, g.NumTrees); err != nil {
		return err
	}
	acc := make([]float64, len(eval))
	step := make([]float64, len(eval))
	si := 0
	g.discard = true
	g.afterRound = func(m int, tr *tree.Tree) {
		if m == 0 {
			for i := range acc {
				acc[i] = g.init
			}
		}
		tr.PredictInto(eval, step)
		for i := range acc {
			// Rounded on its own as in Predict, so the last stage equals
			// Predict bit for bit on platforms that fuse multiply-add.
			acc[i] += float64(g.LearningRate * step[i])
		}
		for si < len(stages) && m+1 == stages[si] {
			emit(si, acc)
			si++
		}
	}
	err := g.Fit(x, y)
	g.discard = false
	g.afterRound = nil
	return err
}

// FitStaged trains the forest at NumTrees (the last stage) and emits eval
// predictions for each prefix stage. Averaging follows Predict's exact
// order — per-tree sums in index order, scaled once per stage.
func (f *RandomForest) FitStaged(x [][]float64, y []float64, eval [][]float64, stages []int, emit func(stageIdx int, pred []float64)) error {
	if err := checkStages(stages, f.NumTrees); err != nil {
		return err
	}
	if err := f.Fit(x, y); err != nil {
		return err
	}
	sum := make([]float64, len(eval))
	out := make([]float64, len(eval))
	p := make([]float64, len(eval))
	si := 0
	for m, tr := range f.trees {
		tr.PredictInto(eval, p)
		for i := range sum {
			sum[i] += p[i]
		}
		for si < len(stages) && m+1 == stages[si] {
			inv := 1.0 / float64(m+1)
			for i := range out {
				out[i] = sum[i] * inv
			}
			emit(si, out)
			si++
		}
	}
	return nil
}

// FitStaged trains AdaBoost.R2 at NumTrees (the last stage) and emits eval
// predictions for each prefix stage via the weighted median over the first
// min(stage, fitted) learners. AdaBoost may stop early; every stage at or
// past the stopping point sees the same final ensemble, exactly as a direct
// fit with that stage's size would.
func (a *AdaBoost) FitStaged(x [][]float64, y []float64, eval [][]float64, stages []int, emit func(stageIdx int, pred []float64)) error {
	if err := checkStages(stages, a.NumTrees); err != nil {
		return err
	}
	if err := a.Fit(x, y); err != nil {
		return err
	}
	cols := make([][]float64, len(a.trees))
	for m, tr := range a.trees {
		cols[m] = tr.Predict(eval)
	}
	out := make([]float64, len(eval))
	preds := make([]float64, len(a.trees))
	for si, stage := range stages {
		m := stage
		if m > len(a.trees) {
			m = len(a.trees)
		}
		for i := range out {
			for t := 0; t < m; t++ {
				preds[t] = cols[t][i]
			}
			out[i] = weightedMedian(preds[:m], a.betas[:m])
		}
		emit(si, out)
	}
	return nil
}

var (
	_ ml.StagedFitter = (*GradientBoosting)(nil)
	_ ml.StagedFitter = (*RandomForest)(nil)
	_ ml.StagedFitter = (*AdaBoost)(nil)
)
