package ensemble

import (
	"encoding/binary"
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

// An ensemble state is its scalar header as JSON, prefixed by the header's
// length as a uvarint, followed by one tree block per member (see
// tree.AppendState) up to the end of the state. No JSON pass touches the
// members' node arrays.

// memberStates encodes header and then each fitted member tree's block.
func memberStates(header any, trees []*tree.Tree) ([]byte, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	b := binary.AppendUvarint(nil, uint64(len(h)))
	b = append(b, h...)
	for i, tr := range trees {
		if tr == nil {
			return nil, fmt.Errorf("member tree %d is not fitted", i)
		}
		st, err := tr.State()
		if err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
		if b, err = tree.AppendState(b, &st); err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
	}
	return b, nil
}

// memberTrees decodes a state's header into header and rebuilds its member
// trees, validating each on its own and all over the same features. A
// state with no members is refused.
func memberTrees(data []byte, header any) ([]*tree.Tree, error) {
	hlen, k := binary.Uvarint(data)
	if k <= 0 || hlen > uint64(len(data)-k) {
		return nil, fmt.Errorf("state header length overruns the %d bytes of the state", len(data))
	}
	if err := json.Unmarshal(data[k:k+int(hlen)], header); err != nil {
		return nil, err
	}
	var out []*tree.Tree
	dim := 0
	for rest := data[k+int(hlen):]; len(rest) > 0; {
		i := len(out)
		st, next, err := tree.ReadState(rest)
		if err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
		if i == 0 {
			dim = st.Dim
		} else if st.Dim != dim {
			return nil, fmt.Errorf("member tree %d has dim %d, member 0 has %d", i, st.Dim, dim)
		}
		tr, err := tree.FromState(&st)
		if err != nil {
			return nil, fmt.Errorf("member tree %d: %w", i, err)
		}
		out, rest = append(out, tr), next
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("state has no trees")
	}
	return out, nil
}

// gbState is the scalar header of a GradientBoosting state.
type gbState struct {
	NumTrees     int         `json:"num_trees"`
	LearningRate float64     `json:"learning_rate"`
	Params       tree.Params `json:"params"`
	Subsample    float64     `json:"subsample"`
	Seed         uint64      `json:"seed"`
	Init         float64     `json:"init"`
}

// SnapshotKind returns the artifact kind identifier.
func (g *GradientBoosting) SnapshotKind() string { return GradientBoostingSnapshotKind }

// SnapshotState serializes the initial prediction and every boosting stage.
func (g *GradientBoosting) SnapshotState() ([]byte, error) {
	if g.trees == nil {
		return nil, fmt.Errorf("ensemble: GradientBoosting snapshot before Fit")
	}
	b, err := memberStates(gbState{
		NumTrees: g.NumTrees, LearningRate: g.LearningRate, Params: g.Params,
		Subsample: g.Subsample, Seed: g.Seed, Init: g.init,
	}, g.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: GB snapshot: %w", err)
	}
	return b, nil
}

// RestoreState rebuilds the fitted ensemble.
func (g *GradientBoosting) RestoreState(data []byte) error {
	var st gbState
	trees, err := memberTrees(data, &st)
	if err != nil {
		return fmt.Errorf("ensemble: GB restore: %w", err)
	}
	g.NumTrees, g.LearningRate, g.Params = st.NumTrees, st.LearningRate, st.Params
	g.Subsample, g.Seed, g.init = st.Subsample, st.Seed, st.Init
	g.trees = trees
	g.afterRound, g.discard = nil, false
	return nil
}

// rfState is the scalar header of a RandomForest state.
type rfState struct {
	NumTrees      int         `json:"num_trees"`
	Params        tree.Params `json:"params"`
	Seed          uint64      `json:"seed"`
	BootstrapFrac float64     `json:"bootstrap_frac"`
	Name          string      `json:"name"`
}

// SnapshotKind returns the artifact kind identifier.
func (f *RandomForest) SnapshotKind() string { return RandomForestSnapshotKind }

// SnapshotState serializes every member tree.
func (f *RandomForest) SnapshotState() ([]byte, error) {
	if f.trees == nil {
		return nil, fmt.Errorf("ensemble: RandomForest snapshot before Fit")
	}
	b, err := memberStates(rfState{
		NumTrees: f.NumTrees, Params: f.Params, Seed: f.Seed,
		BootstrapFrac: f.BootstrapFrac, Name: f.name,
	}, f.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: RF snapshot: %w", err)
	}
	return b, nil
}

// RestoreState rebuilds the fitted forest.
func (f *RandomForest) RestoreState(data []byte) error {
	var st rfState
	trees, err := memberTrees(data, &st)
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

// abState is the scalar header of an AdaBoost.R2 state: one vote weight
// per member tree.
type abState struct {
	NumTrees int         `json:"num_trees"`
	Params   tree.Params `json:"params"`
	Seed     uint64      `json:"seed"`
	Loss     LossKind    `json:"loss"`
	Betas    []float64   `json:"betas"`
}

// SnapshotKind returns the artifact kind identifier.
func (a *AdaBoost) SnapshotKind() string { return AdaBoostSnapshotKind }

// SnapshotState serializes the surviving learners and their vote weights.
func (a *AdaBoost) SnapshotState() ([]byte, error) {
	if !a.fitted {
		return nil, fmt.Errorf("ensemble: AdaBoost snapshot before Fit")
	}
	b, err := memberStates(abState{
		NumTrees: a.NumTrees, Params: a.Params, Seed: a.Seed, Loss: a.Loss, Betas: a.betas,
	}, a.trees)
	if err != nil {
		return nil, fmt.Errorf("ensemble: AB snapshot: %w", err)
	}
	return b, nil
}

// RestoreState rebuilds the fitted ensemble.
func (a *AdaBoost) RestoreState(data []byte) error {
	var st abState
	trees, err := memberTrees(data, &st)
	if err != nil {
		return fmt.Errorf("ensemble: AB restore: %w", err)
	}
	if len(st.Betas) != len(trees) {
		return fmt.Errorf("ensemble: AB state has %d trees but %d vote weights", len(trees), len(st.Betas))
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
