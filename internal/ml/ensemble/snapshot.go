package ensemble

import (
	"encoding/json"
	"fmt"

	"parcost/internal/ml"
	"parcost/internal/ml/tree"
)

// Artifact kinds of the tree-ensemble family.
const (
	GradientBoostingSnapshotKind = "ensemble.gb"
	RandomForestSnapshotKind     = "ensemble.rf"
	AdaBoostSnapshotKind         = "ensemble.ab"
)

func init() {
	ml.RegisterSnapshot(GradientBoostingSnapshotKind, func() ml.Snapshotter { return &GradientBoosting{} })
	ml.RegisterSnapshot(RandomForestSnapshotKind, func() ml.Snapshotter { return &RandomForest{} })
	ml.RegisterSnapshot(AdaBoostSnapshotKind, func() ml.Snapshotter { return &AdaBoost{} })
}

// memberStates returns each fitted member tree's state.
func memberStates(trees []*tree.Tree) ([]tree.State, error) {
	out := make([]tree.State, len(trees))
	for i, tr := range trees {
		if tr == nil {
			return nil, fmt.Errorf("member tree %d is not fitted", i)
		}
		st, err := tr.State()
		if err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// memberTrees validates member states — each on its own, and all over the
// same features — and rebuilds the trees.
func memberTrees(states []tree.State) ([]*tree.Tree, error) {
	out := make([]*tree.Tree, len(states))
	for i := range states {
		if states[i].Dim != states[0].Dim {
			return nil, fmt.Errorf("member tree %d has dim %d, member 0 has %d", i, states[i].Dim, states[0].Dim)
		}
		tr, err := tree.FromState(&states[i])
		if err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
		out[i] = tr
	}
	return out, nil
}

// gbState is the serialized fitted state of a GradientBoosting ensemble.
type gbState struct {
	NumTrees     int          `json:"num_trees"`
	LearningRate float64      `json:"learning_rate"`
	Params       tree.Params  `json:"params"`
	Subsample    float64      `json:"subsample"`
	Seed         uint64       `json:"seed"`
	Init         float64      `json:"init"`
	Trees        []tree.State `json:"trees"`
}

// SnapshotKind returns the artifact kind identifier.
func (g *GradientBoosting) SnapshotKind() string { return GradientBoostingSnapshotKind }

// SnapshotState serializes the initial prediction and every boosting stage.
func (g *GradientBoosting) SnapshotState() ([]byte, error) {
	if g.trees == nil {
		return nil, fmt.Errorf("ensemble: GradientBoosting snapshot before Fit")
	}
	trees, err := memberStates(g.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: GB snapshot: %w", err)
	}
	return json.Marshal(gbState{
		NumTrees: g.NumTrees, LearningRate: g.LearningRate, Params: g.Params,
		Subsample: g.Subsample, Seed: g.Seed, Init: g.init, Trees: trees,
	})
}

// RestoreState rebuilds the fitted ensemble.
func (g *GradientBoosting) RestoreState(data []byte) error {
	var st gbState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Trees) == 0 {
		return fmt.Errorf("ensemble: GB state has no trees")
	}
	trees, err := memberTrees(st.Trees)
	if err != nil {
		return fmt.Errorf("ensemble: GB restore: %w", err)
	}
	g.NumTrees, g.LearningRate, g.Params = st.NumTrees, st.LearningRate, st.Params
	g.Subsample, g.Seed, g.init = st.Subsample, st.Seed, st.Init
	g.trees = trees
	g.afterRound, g.discard = nil, false
	return nil
}

// rfState is the serialized fitted state of a RandomForest.
type rfState struct {
	NumTrees      int          `json:"num_trees"`
	Params        tree.Params  `json:"params"`
	Seed          uint64       `json:"seed"`
	BootstrapFrac float64      `json:"bootstrap_frac"`
	Name          string       `json:"name"`
	Trees         []tree.State `json:"trees"`
}

// SnapshotKind returns the artifact kind identifier.
func (f *RandomForest) SnapshotKind() string { return RandomForestSnapshotKind }

// SnapshotState serializes every member tree.
func (f *RandomForest) SnapshotState() ([]byte, error) {
	if f.trees == nil {
		return nil, fmt.Errorf("ensemble: RandomForest snapshot before Fit")
	}
	trees, err := memberStates(f.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: RF snapshot: %w", err)
	}
	return json.Marshal(rfState{
		NumTrees: f.NumTrees, Params: f.Params, Seed: f.Seed,
		BootstrapFrac: f.BootstrapFrac, Name: f.name, Trees: trees,
	})
}

// RestoreState rebuilds the fitted forest.
func (f *RandomForest) RestoreState(data []byte) error {
	var st rfState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Trees) == 0 {
		return fmt.Errorf("ensemble: RF state has no trees")
	}
	trees, err := memberTrees(st.Trees)
	if err != nil {
		return fmt.Errorf("ensemble: RF restore: %w", err)
	}
	f.NumTrees, f.Params, f.Seed = st.NumTrees, st.Params, st.Seed
	f.BootstrapFrac, f.name = st.BootstrapFrac, st.Name
	if f.name == "" {
		f.name = "randomforest"
	}
	f.trees = trees
	return nil
}

// abState is the serialized fitted state of an AdaBoost.R2 ensemble.
type abState struct {
	NumTrees int          `json:"num_trees"`
	Params   tree.Params  `json:"params"`
	Seed     uint64       `json:"seed"`
	Loss     LossKind     `json:"loss"`
	Betas    []float64    `json:"betas"`
	Trees    []tree.State `json:"trees"`
}

// SnapshotKind returns the artifact kind identifier.
func (a *AdaBoost) SnapshotKind() string { return AdaBoostSnapshotKind }

// SnapshotState serializes the surviving learners and their vote weights.
func (a *AdaBoost) SnapshotState() ([]byte, error) {
	if !a.fitted {
		return nil, fmt.Errorf("ensemble: AdaBoost snapshot before Fit")
	}
	trees, err := memberStates(a.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: AB snapshot: %w", err)
	}
	return json.Marshal(abState{
		NumTrees: a.NumTrees, Params: a.Params, Seed: a.Seed, Loss: a.Loss,
		Betas: a.betas, Trees: trees,
	})
}

// RestoreState rebuilds the fitted ensemble.
func (a *AdaBoost) RestoreState(data []byte) error {
	var st abState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Trees) == 0 || len(st.Betas) != len(st.Trees) {
		return fmt.Errorf("ensemble: AB state has %d trees but %d vote weights", len(st.Trees), len(st.Betas))
	}
	trees, err := memberTrees(st.Trees)
	if err != nil {
		return fmt.Errorf("ensemble: AB restore: %w", err)
	}
	a.NumTrees, a.Params, a.Seed, a.Loss = st.NumTrees, st.Params, st.Seed, st.Loss
	a.trees, a.betas, a.fitted = trees, st.Betas, true
	return nil
}

var (
	_ ml.Snapshotter = (*GradientBoosting)(nil)
	_ ml.Snapshotter = (*RandomForest)(nil)
	_ ml.Snapshotter = (*AdaBoost)(nil)
)
