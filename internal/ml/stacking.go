package ml

import (
	"encoding/json"
	"fmt"

	"parcost/internal/rng"
	"parcost/internal/stats"
)

// Stacking is a stacked-generalization ensemble: several base regressors are
// trained, their out-of-fold predictions form a meta-feature matrix, and a
// meta-regressor learns to combine them. This is a standard way to squeeze a
// little more accuracy out of a heterogeneous model set and rounds out the
// library as a production-grade tool.
type Stacking struct {
	Bases []Regressor
	Meta  Regressor
	Folds int
	Seed  uint64

	fittedBases []Regressor
	nBase       int
}

// NewStacking returns a stacking ensemble over the given base models with a
// meta-regressor. Folds controls the out-of-fold prediction scheme.
func NewStacking(bases []Regressor, meta Regressor, folds int, seed uint64) *Stacking {
	if folds < 2 {
		folds = 5
	}
	return &Stacking{Bases: bases, Meta: meta, Folds: folds, Seed: seed}
}

// Name returns the model identifier.
func (s *Stacking) Name() string { return "stacking" }

// Fit trains base models with out-of-fold prediction to build meta-features,
// fits the meta-model on them, then refits each base on the full data.
func (s *Stacking) Fit(x [][]float64, y []float64) error {
	if _, err := CheckXY(x, y); err != nil {
		return err
	}
	if len(s.Bases) == 0 {
		return fmt.Errorf("ml: stacking needs at least one base model")
	}
	if s.Meta == nil {
		return fmt.Errorf("ml: stacking needs a meta model")
	}
	s.nBase = len(s.Bases)
	n := len(x)
	folds := stats.KFold(n, s.Folds, rng.New(s.Seed))

	// Out-of-fold meta-features: meta[i][b] = base b's prediction for sample
	// i when i was held out.
	meta := make([][]float64, n)
	for i := range meta {
		meta[i] = make([]float64, s.nBase)
	}
	for b, base := range s.Bases {
		for _, f := range folds {
			trX, trY := Subset(x, y, f.Train)
			clone, err := cloneFit(base, trX, trY)
			if err != nil {
				return fmt.Errorf("ml: stacking base %d fold fit: %w", b, err)
			}
			teX, _ := Subset(x, y, f.Test)
			pred := clone.Predict(teX)
			for k, idx := range f.Test {
				meta[idx][b] = pred[k]
			}
		}
	}

	// Fit the meta-model on the out-of-fold predictions.
	if err := s.Meta.Fit(meta, y); err != nil {
		return fmt.Errorf("ml: stacking meta fit: %w", err)
	}
	// Refit each base on all data for inference.
	s.fittedBases = make([]Regressor, s.nBase)
	for b, base := range s.Bases {
		fitted, err := cloneFit(base, x, y)
		if err != nil {
			return fmt.Errorf("ml: stacking base %d refit: %w", b, err)
		}
		s.fittedBases[b] = fitted
	}
	return nil
}

// Predict runs each base model and combines via the meta-model.
func (s *Stacking) Predict(x [][]float64) []float64 {
	if s.fittedBases == nil {
		panic("ml: Stacking.Predict before Fit")
	}
	meta := make([][]float64, len(x))
	for i := range meta {
		meta[i] = make([]float64, s.nBase)
	}
	for b, base := range s.fittedBases {
		pred := base.Predict(x)
		for i := range x {
			meta[i][b] = pred[i]
		}
	}
	return s.Meta.Predict(meta)
}

// cloneFit is a placeholder hook: since Regressor has no Clone, stacking
// relies on base models being re-fittable in place. Fit resets their trained
// state, so we simply re-Fit the provided instance and return it. Base models
// must therefore be distinct instances (the common case, since the caller
// constructs them once).
func cloneFit(r Regressor, x [][]float64, y []float64) (Regressor, error) {
	if err := r.Fit(x, y); err != nil {
		return nil, err
	}
	return r, nil
}

// StackingSnapshotKind is the artifact kind of a fitted stacking ensemble.
const StackingSnapshotKind = "ml.stacking"

func init() {
	RegisterSnapshot(StackingSnapshotKind, func() Snapshotter { return &Stacking{} })
}

// stackingState holds one ModelState per fitted base plus the meta model,
// so heterogeneous bases restore through the snapshot registry.
type stackingState struct {
	Folds int          `json:"folds"`
	Seed  uint64       `json:"seed"`
	Bases []ModelState `json:"bases"`
	Meta  ModelState   `json:"meta"`
}

// SnapshotKind returns the artifact kind identifier.
func (s *Stacking) SnapshotKind() string { return StackingSnapshotKind }

// SnapshotState serializes the fitted bases and meta model. Every base and
// the meta model must themselves support snapshots.
func (s *Stacking) SnapshotState() ([]byte, error) {
	if s.fittedBases == nil {
		return nil, fmt.Errorf("ml: stacking snapshot before Fit")
	}
	st := stackingState{Folds: s.Folds, Seed: s.Seed, Bases: make([]ModelState, len(s.fittedBases))}
	for i, base := range s.fittedBases {
		data, err := EncodeModel(base)
		if err != nil {
			return nil, fmt.Errorf("stacking base %d: %w", i, err)
		}
		st.Bases[i] = data
	}
	meta, err := EncodeModel(s.Meta)
	if err != nil {
		return nil, fmt.Errorf("stacking meta: %w", err)
	}
	st.Meta = meta
	return json.Marshal(st)
}

// RestoreState rebuilds the fitted ensemble; the base models' packages must
// be linked so their kinds are registered.
func (s *Stacking) RestoreState(data []byte) error {
	var st stackingState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Bases) == 0 || st.Meta.Kind == "" {
		return fmt.Errorf("ml: stacking state missing bases or meta model")
	}
	bases := make([]Regressor, len(st.Bases))
	for i, ms := range st.Bases {
		m, err := DecodeModel(ms)
		if err != nil {
			return fmt.Errorf("stacking base %d: %w", i, err)
		}
		bases[i] = m
	}
	meta, err := DecodeModel(st.Meta)
	if err != nil {
		return fmt.Errorf("stacking meta: %w", err)
	}
	s.Folds, s.Seed = st.Folds, st.Seed
	s.fittedBases, s.nBase = bases, len(bases)
	s.Bases, s.Meta = bases, meta
	return nil
}

var (
	_ Regressor   = (*Stacking)(nil)
	_ Snapshotter = (*Stacking)(nil)
)
