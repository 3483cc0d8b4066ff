package tree

import (
	"encoding/json"
	"fmt"

	"parcost/internal/ml"
)

// TreeSnapshotKind is the artifact kind of a fitted regression tree.
const TreeSnapshotKind = "tree.cart"

func init() {
	ml.RegisterSnapshot(TreeSnapshotKind, func() ml.Snapshotter { return &Tree{} })
}

// State is a fitted tree's artifact form. Its node arrays are the tree's
// in-memory form too: entry 0 is the root, Left/Right hold child indices
// (-1 for leaves), and every child comes after its parent. Exact-engine
// trees lay their nodes out in left-first preorder, histogram-engine trees
// in build order (smaller child first). The layout is engine-agnostic —
// both predict from plain float thresholds, so that is all a state stores.
// Ensembles nest member states directly in their own.
type State struct {
	Params Params    `json:"params"`
	Dim    int       `json:"dim"`
	Depth  int       `json:"depth"`
	Gains  []float64 `json:"gains"`
	nodeArrays
}

// State returns the fitted tree's state. It shares the tree's arrays.
func (t *Tree) State() (State, error) {
	if len(t.nodes.Leaf) == 0 {
		return State{}, fmt.Errorf("tree: snapshot before Fit")
	}
	return State{Params: t.Params, Dim: t.dim, Depth: t.depth, Gains: t.gains, nodeArrays: t.nodes}, nil
}

// FromState validates st and returns the fitted tree it describes. The
// tree takes ownership of st's arrays.
func FromState(st *State) (*Tree, error) {
	n := len(st.Leaf)
	if n == 0 {
		return nil, fmt.Errorf("tree: state has no nodes")
	}
	if len(st.Value) != n || len(st.Feature) != n || len(st.Threshold) != n ||
		len(st.Left) != n || len(st.Right) != n || len(st.Samples) != n {
		return nil, fmt.Errorf("tree: inconsistent node-array lengths in state")
	}
	if st.Dim < 1 || len(st.Gains) != st.Dim {
		return nil, fmt.Errorf("tree: state has dim %d and %d feature gains", st.Dim, len(st.Gains))
	}
	for i := 0; i < n; i++ {
		if st.Leaf[i] {
			continue
		}
		l, r := st.Left[i], st.Right[i]
		if l <= i || l >= n || r <= i || r >= n {
			return nil, fmt.Errorf("tree: node %d has out-of-range children (%d, %d)", i, l, r)
		}
		if st.Feature[i] < 0 || st.Feature[i] >= st.Dim {
			return nil, fmt.Errorf("tree: node %d splits on feature %d of %d", i, st.Feature[i], st.Dim)
		}
	}
	return &Tree{Params: st.Params, nodes: st.nodeArrays, dim: st.Dim, depth: st.Depth, gains: st.Gains}, nil
}

// SnapshotKind returns the artifact kind identifier.
func (t *Tree) SnapshotKind() string { return TreeSnapshotKind }

// SnapshotState serializes the fitted tree's state.
func (t *Tree) SnapshotState() ([]byte, error) {
	st, err := t.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(&st)
}

// RestoreState rebuilds the fitted tree from SnapshotState bytes.
func (t *Tree) RestoreState(data []byte) error {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	restored, err := FromState(&st)
	if err != nil {
		return err
	}
	*t = *restored
	return nil
}

var _ ml.Snapshotter = (*Tree)(nil)
