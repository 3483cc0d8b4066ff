// Package tensor models the tiled index spaces of TAMM-style distributed
// tensors. A CCSD tensor dimension (an occupied or virtual orbital range)
// is partitioned into tiles of a user-chosen tile size; a contraction is
// lowered to one task per block of the combined (output × contraction)
// index space.
//
// The package computes, exactly and in closed form, the statistics the
// simulator needs about a block space: the number of blocks, the total
// element count, and the mean/variance/maximum of per-block size products.
// The latter drive both the exact discrete-event schedule (small spaces)
// and the aggregate makespan model (large spaces).
package tensor

import "fmt"

// Axis is one tiled tensor dimension.
type Axis struct {
	Extent int // total index range (O or V)
	Tile   int // requested tile size
}

// NumTiles returns the number of tiles along the axis.
func (a Axis) NumTiles() int {
	if a.Extent <= 0 || a.Tile <= 0 {
		panic(fmt.Sprintf("tensor: invalid axis %+v", a))
	}
	return (a.Extent + a.Tile - 1) / a.Tile
}

// TileSizes returns the sizes of all tiles along the axis: full tiles of
// size Tile followed by one remainder tile if Extent is not divisible.
func (a Axis) TileSizes() []int {
	n := a.NumTiles()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = a.Tile
	}
	if rem := a.Extent % a.Tile; rem != 0 {
		out[n-1] = rem
	}
	return out
}

// MeanSize returns the mean tile size, E[s] = Extent / NumTiles.
func (a Axis) MeanSize() float64 {
	return float64(a.Extent) / float64(a.NumTiles())
}

// MeanSquare returns E[s²] over the axis tiles.
func (a Axis) MeanSquare() float64 {
	n := a.NumTiles()
	full := n
	rem := a.Extent % a.Tile
	var s float64
	if rem != 0 {
		full--
		s += float64(rem) * float64(rem)
	}
	s += float64(full) * float64(a.Tile) * float64(a.Tile)
	return s / float64(n)
}

// MaxSize returns the largest tile size on the axis.
func (a Axis) MaxSize() int {
	if a.Extent < a.Tile {
		return a.Extent
	}
	return a.Tile
}

// Space is the Cartesian product of tiled axes; each combination of tiles
// (one per axis) is a block, and one block is one runtime task.
type Space []Axis

// Blocks returns the total number of blocks (tasks) in the space.
func (s Space) Blocks() float64 {
	n := 1.0
	for _, a := range s {
		n *= float64(a.NumTiles())
	}
	return n
}

// Elements returns the total number of index tuples, ∏ extents.
func (s Space) Elements() float64 {
	e := 1.0
	for _, a := range s {
		e *= float64(a.Extent)
	}
	return e
}

// SizeMoments returns the mean and variance of the per-block size product
// ∏ᵢ sᵢ where sᵢ is the tile size drawn along axis i. Because the block
// space is the full Cartesian product, axis sizes are independent and the
// moments factor exactly:
//
//	E[∏ sᵢ]   = ∏ E[sᵢ]
//	E[(∏sᵢ)²] = ∏ E[sᵢ²]
func (s Space) SizeMoments() (mean, variance float64) {
	mean = 1.0
	meanSq := 1.0
	for _, a := range s {
		mean *= a.MeanSize()
		meanSq *= a.MeanSquare()
	}
	variance = meanSq - mean*mean
	if variance < 0 {
		variance = 0 // guard against roundoff
	}
	return mean, variance
}

// MaxBlockSize returns the size product of the largest block (all axes at
// their maximum tile size).
func (s Space) MaxBlockSize() float64 {
	m := 1.0
	for _, a := range s {
		m *= float64(a.MaxSize())
	}
	return m
}

// ForEachBlock enumerates every block in odometer order (last axis
// fastest) and calls fn with the per-axis tile sizes (the slice is reused
// across calls). It returns an error instead of enumerating if the space
// holds more than maxBlocks blocks, protecting the exact-simulation path
// from accidental combinatorial explosions.
func (s Space) ForEachBlock(maxBlocks int, fn func(sizes []int)) error {
	sizes := make([]int, len(s))
	return s.ForEachBlockClass(maxBlocks, func(class int) {
		s.ClassSizes(class, sizes)
		fn(sizes)
	})
}

// ForEachBlockClass enumerates every block in ForEachBlock's order and calls
// fn with the block's class: bit i is set when axis i sits on its remainder
// tile. An axis has at most two tile sizes (Tile and the remainder), so the
// class fixes the block's size tuple (see ClassSizes) and a space holds at
// most 2^len(s) classes. A cost that depends only on block sizes can then be
// computed once per class rather than once per block.
func (s Space) ForEachBlockClass(maxBlocks int, fn func(class int)) error {
	if b := s.Blocks(); b > float64(maxBlocks) {
		return fmt.Errorf("tensor: space has %.0f blocks, exceeds cap %d", b, maxBlocks)
	}
	// remBit[i] is axis i's class bit when its last tile is a remainder.
	last := make([]int, len(s))
	remBit := make([]int, len(s))
	idx := make([]int, len(s))
	class := 0
	for i, a := range s {
		last[i] = a.NumTiles() - 1
		if a.Extent%a.Tile != 0 {
			remBit[i] = 1 << i
		}
		if last[i] == 0 {
			class |= remBit[i]
		}
	}
	for {
		fn(class)
		// Odometer increment, keeping the class bits in step.
		k := len(s) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] <= last[k] {
				if idx[k] == last[k] {
					class |= remBit[k]
				}
				break
			}
			idx[k] = 0
			if last[k] > 0 {
				class &^= remBit[k]
			}
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// ClassSizes writes the per-axis tile sizes of blocks of the given class
// (see ForEachBlockClass) into sizes, which must hold len(s) entries.
func (s Space) ClassSizes(class int, sizes []int) {
	for i, a := range s {
		sizes[i] = a.Tile
		if class&(1<<i) != 0 {
			sizes[i] = a.Extent % a.Tile
		}
	}
}

// ClassBlocks returns the number of blocks in each class (see
// ForEachBlockClass), indexed by class: over the axes, the product of the
// remainder-tile count (zero or one) where the class sets the axis's bit
// and of the full-tile count where it does not. A class no block falls in
// has zero.
func (s Space) ClassBlocks() []float64 {
	counts := make([]float64, 1<<len(s))
	counts[0] = 1
	for i, a := range s {
		full, rem := float64(a.NumTiles()), 0.0
		if a.Extent%a.Tile != 0 {
			full, rem = full-1, 1
		}
		bit := 1 << i
		for c := 0; c < bit; c++ {
			counts[c|bit] = counts[c] * rem
			counts[c] *= full
		}
	}
	return counts
}

// Product is a convenience helper multiplying a size slice.
func Product(sizes []int) float64 {
	p := 1.0
	for _, v := range sizes {
		p *= float64(v)
	}
	return p
}
