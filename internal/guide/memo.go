package guide

import (
	"sort"
	"sync"

	"parcost/internal/dataset"
	"parcost/internal/lru"
	"parcost/internal/ml"
)

// thresholdLister is a model that sees a feature only through the
// thresholds of its splits (ensemble.GradientBoosting is one).
// SplitThresholds(f) returns those thresholds on feature f, sorted and
// distinct; two rows that differ only in feature f, with as many listed
// thresholds below each value, must predict the same bits.
type thresholdLister interface {
	SplitThresholds(feature int) []float64
}

// Feature indices of a problem's O and V, as laid out by
// dataset.Config.AppendFeatures.
const (
	featO = 0
	featV = 1
)

// gridMemoSize bounds a shard's grid memo. An entry is one predicted grid,
// 8 bytes per configuration: ~4 KiB for the default 495-configuration grid,
// so ~4 MiB per shard when full.
const gridMemoSize = 1024

// gridMemo shares one predicted grid among every problem of a lattice
// cell. A row goes left at a split when x ≤ threshold, so two problems
// with as many O thresholds below O, and as many V thresholds below V, take
// the same branch at every split of every tree for every configuration of
// the grid: their predicted grids are the same bits. The cell of a problem
// is that pair of counts over the model's sorted, distinct thresholds.
//
// A memo belongs to one Service, so it holds one model's and one grid's
// predictions; SwapShard builds a new Service, and the old memo goes with
// the old model. It is safe for concurrent use. Two misses on one cell may
// both predict; the later Put replaces an identical grid.
type gridMemo struct {
	oThr, vThr []float64

	mu     sync.Mutex
	grids  *lru.Cache[[2]int, []float64]
	hits   uint64
	misses uint64
}

// newGridMemo builds an empty memo for model, or returns nil when the model
// cannot list its split thresholds.
func newGridMemo(model ml.Regressor) *gridMemo {
	tl, ok := model.(thresholdLister)
	if !ok {
		return nil
	}
	return &gridMemo{
		oThr:  tl.SplitThresholds(featO),
		vThr:  tl.SplitThresholds(featV),
		grids: lru.New[[2]int, []float64](gridMemoSize),
	}
}

// cell returns p's lattice cell: the number of O thresholds below O and the
// number of V thresholds below V, for the same float64 features
// dataset.Config.Features builds.
func (m *gridMemo) cell(p dataset.Problem) [2]int {
	return [2]int{sort.SearchFloat64s(m.oThr, float64(p.O)), sort.SearchFloat64s(m.vThr, float64(p.V))}
}

// predict returns the predicted grid of p's cell, calling predict on a
// miss. The grid is shared with every other caller of the cell and must
// never be written.
func (m *gridMemo) predict(p dataset.Problem, predict func() []float64) []float64 {
	k := m.cell(p)
	m.mu.Lock()
	if preds, ok := m.grids.Get(k); ok {
		m.hits++
		m.mu.Unlock()
		return preds
	}
	m.misses++
	m.mu.Unlock()
	preds := predict()
	m.mu.Lock()
	m.grids.Put(k, preds)
	m.mu.Unlock()
	return preds
}

// counts returns the memo's hit and miss counts; a nil memo has none.
func (m *gridMemo) counts() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
