// Model snapshots: a fitted model's state round-trips through opaque bytes
// so training and query time can be split across processes (train once,
// serve many). Every model family in the library implements Snapshotter
// and registers a kind string; a ModelState pairs that kind with the state
// bytes so DecodeModel can rebuild the right concrete type. ModelState is
// not a file format: guide's fleet bundle stores one per machine,
// length-delimited, under the bundle's single versioned, checksummed
// header.
//
// Each family picks its own state encoding, and every one keeps float64
// bits exact, so a restored model's predictions are bit-identical to the
// fitted model's. The kernel, linear, KNN and stacking families write JSON
// (Go marshals a float64 with the shortest representation that parses back
// to the identical bits). Trees and the tree ensembles write their node
// arrays as little-endian binary blocks (see tree.AppendState), which load
// without a text parse.

package ml

import (
	"fmt"
	"sort"
)

// Snapshotter is a Regressor whose fitted state can be captured into a
// byte slice and restored later, in another process, with bit-identical
// predictions. State bytes are opaque to everything but the family's own
// RestoreState.
type Snapshotter interface {
	Regressor
	// SnapshotKind returns the stable artifact kind identifier this model
	// registers under (e.g. "ensemble.gb"). It never changes across
	// versions of the library.
	SnapshotKind() string
	// SnapshotState serializes the fitted state. It errors if the model has
	// not been fitted.
	SnapshotState() ([]byte, error)
	// RestoreState rebuilds the fitted state from SnapshotState bytes; the
	// receiver is typically a zero value from the snapshot registry.
	RestoreState(data []byte) error
}

// ModelState is a fitted model as an artifact stores it: the kind its
// family registered under and its SnapshotState bytes. It carries no
// envelope of its own; the file holding it (a guide fleet bundle) has the
// one format tag, version and checksum. The JSON tags serve stacking, which
// nests its bases' ModelStates in its own JSON state (State as base64).
type ModelState struct {
	Kind  string `json:"kind"`
	State []byte `json:"state"`
}

// snapRegistry maps artifact kinds to zero-value model constructors. It is
// written only from package init functions, so reads need no locking.
var snapRegistry = map[string]func() Snapshotter{}

// RegisterSnapshot binds an artifact kind to a constructor returning an
// empty model ready for RestoreState. Model packages call it from init;
// duplicate kinds are a programming error.
func RegisterSnapshot(kind string, fn func() Snapshotter) {
	if kind == "" || fn == nil {
		panic("ml: RegisterSnapshot with empty kind or nil constructor")
	}
	if _, dup := snapRegistry[kind]; dup {
		panic(fmt.Sprintf("ml: duplicate snapshot kind %q", kind))
	}
	snapRegistry[kind] = fn
}

// SnapshotKinds returns the registered artifact kinds, sorted. Useful for
// diagnostics ("unknown kind X, have [...]").
func SnapshotKinds() []string {
	out := make([]string, 0, len(snapRegistry))
	for k := range snapRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EncodeModel captures a fitted model's kind and state. It errors if the
// model's family does not implement Snapshotter or the model is unfitted.
func EncodeModel(m Regressor) (ModelState, error) {
	s, ok := m.(Snapshotter)
	if !ok {
		return ModelState{}, fmt.Errorf("ml: model %q does not support snapshots", m.Name())
	}
	state, err := s.SnapshotState()
	if err != nil {
		return ModelState{}, fmt.Errorf("ml: snapshot %q: %w", s.SnapshotKind(), err)
	}
	return ModelState{Kind: s.SnapshotKind(), State: state}, nil
}

// DecodeModel rebuilds the fitted model a ModelState describes. The model's
// package must be linked into the binary (imported, possibly blank) so its
// kind is registered.
func DecodeModel(ms ModelState) (Snapshotter, error) {
	fn, ok := snapRegistry[ms.Kind]
	if !ok {
		return nil, fmt.Errorf("ml: unknown model kind %q (registered: %v)", ms.Kind, SnapshotKinds())
	}
	m := fn()
	if err := m.RestoreState(ms.State); err != nil {
		return nil, fmt.Errorf("ml: restoring %q: %w", ms.Kind, err)
	}
	return m, nil
}
