package tree

// A grid of rows is the product of two feature axes over one base row, laid
// out row-major: cell i*len(bs)+j is base with base[fa] = as[i] and
// base[fb] = bs[j]. Both axes are strictly increasing, so every split on an
// axis feature cuts a contiguous index range in two, and a tree can be
// walked once over the whole grid instead of once per cell.

// gridBox is a pending subtree walk: node covers cells [a0,a1) × [b0,b1).
type gridBox struct {
	node           int32
	a0, a1, b0, b1 int
}

// GridScratch is reusable walk state for AddGrid. It holds the explicit
// stack of boxes waiting to be walked; one scratch serves any number of
// sequential AddGrid calls, but not concurrent ones.
type GridScratch struct {
	stack []gridBox
}

// AddGrid adds float64(scale·Predict(row)) to dst[i*len(bs)+j] for every
// cell row of the grid (base, fa, as, fb, bs): base with base[fa] = as[i]
// and base[fb] = bs[j]. as and bs must be strictly increasing and fa != fb;
// len(dst) must be len(as)*len(bs). Each cell receives exactly the leaf
// value predictRow would return for its row, rounded through the same
// product, so a sum of AddGrid calls over trees in a fixed order equals the
// row-wise sum bit for bit.
//
// The walk starts from the whole index box. A split on a fixed feature
// sends the box to one child; a split on an axis cuts the box at the first
// axis value above the threshold and stacks the right part; a leaf adds its
// scaled value to every cell of its box.
func (t *Tree) AddGrid(dst, base []float64, fa int, as []float64, fb int, bs []float64, scale float64, s *GridScratch) {
	a := &t.nodes
	feat := a.Feature
	n := len(feat)
	if n == 0 {
		panic("tree: Predict before Fit")
	}
	if len(as) == 0 || len(bs) == 0 {
		return
	}
	cut, left, right := a.Cut[:n], a.Left[:n], a.Right[:n]
	fa32, fb32 := int32(fa), int32(fb)
	nb := len(bs)
	stack := append(s.stack[:0], gridBox{node: 0, a0: 0, a1: len(as), b0: 0, b1: nb})
	for len(stack) > 0 {
		bx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := bx.node
		for f := feat[i]; f >= 0; f = feat[i] {
			th := cut[i]
			switch f {
			case fa32:
				k := upperBound(as, bx.a0, bx.a1, th)
				switch k {
				case bx.a0:
					i = right[i]
				case bx.a1:
					i = left[i]
				default:
					stack = append(stack, gridBox{node: right[i], a0: k, a1: bx.a1, b0: bx.b0, b1: bx.b1})
					bx.a1 = k
					i = left[i]
				}
			case fb32:
				k := upperBound(bs, bx.b0, bx.b1, th)
				switch k {
				case bx.b0:
					i = right[i]
				case bx.b1:
					i = left[i]
				default:
					stack = append(stack, gridBox{node: right[i], a0: bx.a0, a1: bx.a1, b0: k, b1: bx.b1})
					bx.b1 = k
					i = left[i]
				}
			default:
				if base[f] <= th {
					i = left[i]
				} else {
					i = right[i]
				}
			}
		}
		// The explicit conversion rounds the product on its own, as the
		// row-wise ensemble sum does, so no platform fuses it into the add.
		d := float64(scale * cut[i])
		for r := bx.a0; r < bx.a1; r++ {
			cells := dst[r*nb+bx.b0 : r*nb+bx.b1]
			for c := range cells {
				cells[c] += d
			}
		}
	}
	s.stack = stack
}

// upperBound returns the first k in [lo, hi) with !(xs[k] <= thr), or hi
// when there is none: the cells below k go left at a split on thr, the rest
// go right. xs must be strictly increasing on [lo, hi). A NaN threshold
// sends every cell right, as predictRow does.
func upperBound(xs []float64, lo, hi int, thr float64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= thr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
