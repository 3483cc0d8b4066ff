package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// Artifacts store a state as one tree block (see AppendState).
type State struct {
	Params Params
	Dim    int
	Depth  int
	Gains  []float64
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
	if !st.sameLengths() {
		return nil, fmt.Errorf("tree: inconsistent node-array lengths in state")
	}
	if st.Dim < 1 || len(st.Gains) != st.Dim {
		return nil, fmt.Errorf("tree: state has dim %d and %d feature gains", st.Dim, len(st.Gains))
	}
	if err := checkFinite(st); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if st.Samples[i] < 0 {
			return nil, fmt.Errorf("tree: node %d has %d samples", i, st.Samples[i])
		}
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

// checkFinite rejects a state holding NaN or ±Inf in MinImpurityDec, a
// feature gain, a node value or a threshold. Fits never produce one, and
// both AppendState and FromState refuse them, so what one writes the other
// reads.
func checkFinite(st *State) error {
	if !finite(st.Params.MinImpurityDec) {
		return fmt.Errorf("tree: state has MinImpurityDec %v", st.Params.MinImpurityDec)
	}
	for _, col := range []struct {
		name string
		xs   []float64
	}{{"feature gain", st.Gains}, {"node value", st.Value}, {"threshold", st.Threshold}} {
		for i, x := range col.xs {
			if !finite(x) {
				return fmt.Errorf("tree: state has %s %v at %d", col.name, x, i)
			}
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// sameLengths reports whether every node array has one entry per node.
func (a *nodeArrays) sameLengths() bool {
	n := len(a.Leaf)
	return len(a.Value) == n && len(a.Feature) == n && len(a.Threshold) == n &&
		len(a.Left) == n && len(a.Right) == n && len(a.Samples) == n
}

// A tree block is a State in little-endian binary, so artifacts neither
// write nor parse a tree's node arrays as text:
//
//	params   MaxDepth, MinSamplesSplit, MinSamplesLeaf, MaxFeatures as int64,
//	         MinImpurityDec as float64 bits, Splitter, MaxBins as int64
//	dim      int64
//	depth    int64
//	gains    int64 count, then count float64s
//	nodes    int64 count n, then Leaf (n bytes, 0 or 1), Value (n float64s),
//	         Feature (n int32s), Threshold (n float64s), Left, Right and
//	         Samples (n int32s each)
//
// A float64 is stored as its IEEE 754 bits, so a decoded tree predicts bit
// for bit as the encoded one.
const (
	blockHeaderBytes = 7*8 + 2*8
	nodeBytes        = 1 + 8 + 4 + 8 + 4 + 4 + 4
)

// AppendState appends st to b as one tree block. It refuses a non-finite
// float (as FromState does) and an int that int32 cannot hold; it does not
// otherwise validate st.
func AppendState(b []byte, st *State) ([]byte, error) {
	if err := checkFinite(st); err != nil {
		return nil, err
	}
	if !st.sameLengths() {
		return nil, fmt.Errorf("tree: inconsistent node-array lengths in state")
	}
	n := len(st.Leaf)
	b = slices.Grow(b, blockHeaderBytes+8+8*len(st.Gains)+8+nodeBytes*n)
	p := st.Params
	for _, v := range []int{p.MaxDepth, p.MinSamplesSplit, p.MinSamplesLeaf, p.MaxFeatures} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.MinImpurityDec))
	for _, v := range []int{int(p.Splitter), p.MaxBins, st.Dim, st.Depth, len(st.Gains)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = appendFloats(b, st.Gains)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for _, leaf := range st.Leaf {
		if leaf {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendFloats(b, st.Value)
	var err error
	if b, err = appendInt32s(b, "feature", st.Feature); err != nil {
		return nil, err
	}
	b = appendFloats(b, st.Threshold)
	for _, col := range []struct {
		name string
		xs   []int
	}{{"left child", st.Left}, {"right child", st.Right}, {"samples", st.Samples}} {
		if b, err = appendInt32s(b, col.name, col.xs); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendFloats(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendInt32s(b []byte, name string, xs []int) ([]byte, error) {
	for i, x := range xs {
		if x != int(int32(x)) {
			return nil, fmt.Errorf("tree: node %d %s %d does not fit a tree block", i, name, x)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(x)))
	}
	return b, nil
}

// ReadState decodes the tree block at the front of b and returns its state
// and the bytes after it. The state's arrays are freshly allocated, and
// every count is checked against the bytes left before anything is
// allocated. It does not validate the state; FromState does.
func ReadState(b []byte) (State, []byte, error) {
	if len(b) < blockHeaderBytes {
		return State{}, nil, fmt.Errorf("tree: block header truncated (%d bytes)", len(b))
	}
	word := func(i int) int { return int(int64(binary.LittleEndian.Uint64(b[8*i:]))) }
	st := State{
		Params: Params{
			MaxDepth: word(0), MinSamplesSplit: word(1), MinSamplesLeaf: word(2), MaxFeatures: word(3),
			MinImpurityDec: math.Float64frombits(binary.LittleEndian.Uint64(b[8*4:])),
			Splitter:       Splitter(word(5)), MaxBins: word(6),
		},
		Dim:   word(7),
		Depth: word(8),
	}
	b = b[blockHeaderBytes:]
	gains, b, err := readCount(b, 8)
	if err != nil {
		return State{}, nil, fmt.Errorf("tree: block gains: %w", err)
	}
	st.Gains, b = readFloats(b, gains)
	n, b, err := readCount(b, nodeBytes)
	if err != nil {
		return State{}, nil, fmt.Errorf("tree: block nodes: %w", err)
	}
	st.Leaf = make([]bool, n)
	for i, c := range b[:n] {
		if c > 1 {
			return State{}, nil, fmt.Errorf("tree: node %d has leaf flag %d", i, c)
		}
		st.Leaf[i] = c == 1
	}
	b = b[n:]
	st.Value, b = readFloats(b, n)
	st.Feature, b = readInt32s(b, n)
	st.Threshold, b = readFloats(b, n)
	st.Left, b = readInt32s(b, n)
	st.Right, b = readInt32s(b, n)
	st.Samples, b = readInt32s(b, n)
	return st, b, nil
}

// readCount reads an int64 count of items of size bytes each and checks
// that that many items fit in the bytes after it.
func readCount(b []byte, size int) (int, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("count truncated")
	}
	c := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if c > uint64(len(b)/size) {
		return 0, nil, fmt.Errorf("count %d overruns the %d bytes left", c, len(b))
	}
	return int(c), b, nil
}

func readFloats(b []byte, n int) ([]float64, []byte) {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:]
}

func readInt32s(b []byte, n int) ([]int, []byte) {
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out, b[4*n:]
}

// SnapshotKind returns the artifact kind identifier.
func (t *Tree) SnapshotKind() string { return TreeSnapshotKind }

// SnapshotState serializes the fitted tree's state as one tree block.
func (t *Tree) SnapshotState() ([]byte, error) {
	st, err := t.State()
	if err != nil {
		return nil, err
	}
	return AppendState(nil, &st)
}

// RestoreState rebuilds the fitted tree from SnapshotState bytes.
func (t *Tree) RestoreState(data []byte) error {
	st, rest, err := ReadState(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("tree: %d bytes after the tree block", len(rest))
	}
	restored, err := FromState(&st)
	if err != nil {
		return err
	}
	*t = *restored
	return nil
}

var _ ml.Snapshotter = (*Tree)(nil)
