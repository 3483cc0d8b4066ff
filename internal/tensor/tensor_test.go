package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parcost/internal/rng"
)

func TestAxisNumTiles(t *testing.T) {
	cases := []struct {
		extent, tile, want int
	}{
		{100, 10, 10}, {100, 30, 4}, {99, 100, 1}, {1, 1, 1}, {44, 40, 2},
	}
	for _, c := range cases {
		if got := (Axis{c.extent, c.tile}).NumTiles(); got != c.want {
			t.Fatalf("NumTiles(%d,%d) = %d, want %d", c.extent, c.tile, got, c.want)
		}
	}
}

func TestAxisPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid axis did not panic")
		}
	}()
	_ = (Axis{0, 10}).NumTiles()
}

func TestTileSizesSumToExtent(t *testing.T) {
	for _, a := range []Axis{{100, 30}, {44, 40}, {835, 80}, {7, 10}, {64, 8}} {
		sum := 0
		for _, s := range a.TileSizes() {
			sum += s
		}
		if sum != a.Extent {
			t.Fatalf("axis %+v: tile sizes sum %d != extent", a, sum)
		}
	}
}

func TestTileSizesRemainderLast(t *testing.T) {
	ts := Axis{44, 40}.TileSizes()
	if len(ts) != 2 || ts[0] != 40 || ts[1] != 4 {
		t.Fatalf("TileSizes = %v", ts)
	}
}

func TestAxisMoments(t *testing.T) {
	a := Axis{44, 40} // tiles 40, 4
	if m := a.MeanSize(); m != 22 {
		t.Fatalf("MeanSize = %v", m)
	}
	if ms := a.MeanSquare(); ms != (1600+16)/2.0 {
		t.Fatalf("MeanSquare = %v", ms)
	}
	if a.MaxSize() != 40 {
		t.Fatal("MaxSize wrong")
	}
	small := Axis{30, 40}
	if small.MaxSize() != 30 {
		t.Fatal("MaxSize of single small tile wrong")
	}
}

func TestSpaceBlocksAndElements(t *testing.T) {
	s := Space{{100, 10}, {44, 40}} // 10 * 2 = 20 blocks
	if b := s.Blocks(); b != 20 {
		t.Fatalf("Blocks = %v", b)
	}
	if e := s.Elements(); e != 4400 {
		t.Fatalf("Elements = %v", e)
	}
}

func TestSizeMomentsAgainstEnumeration(t *testing.T) {
	s := Space{{44, 40}, {100, 30}, {17, 5}}
	var sum, sumSq, count float64
	err := s.ForEachBlock(1000000, func(sizes []int) {
		p := Product(sizes)
		sum += p
		sumSq += p * p
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := sum / count
	wantVar := sumSq/count - wantMean*wantMean
	mean, variance := s.SizeMoments()
	if math.Abs(mean-wantMean) > 1e-9*wantMean {
		t.Fatalf("mean %v, enumeration %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 1e-6*(1+wantVar) {
		t.Fatalf("variance %v, enumeration %v", variance, wantVar)
	}
}

func TestSizeMomentsUniformTiles(t *testing.T) {
	// Exactly divisible axes: every block identical, variance zero.
	s := Space{{100, 10}, {60, 20}}
	mean, variance := s.SizeMoments()
	if mean != 200 {
		t.Fatalf("mean %v", mean)
	}
	if variance != 0 {
		t.Fatalf("variance %v, want 0", variance)
	}
}

func TestMaxBlockSize(t *testing.T) {
	s := Space{{44, 40}, {100, 30}}
	if m := s.MaxBlockSize(); m != 40*30 {
		t.Fatalf("MaxBlockSize = %v", m)
	}
}

func TestForEachBlockCount(t *testing.T) {
	s := Space{{100, 30}, {44, 40}, {10, 3}}
	count := 0
	if err := s.ForEachBlock(10000, func([]int) { count++ }); err != nil {
		t.Fatal(err)
	}
	if float64(count) != s.Blocks() {
		t.Fatalf("enumerated %d blocks, want %v", count, s.Blocks())
	}
}

func TestForEachBlockCap(t *testing.T) {
	s := Space{{1000, 1}, {1000, 1}} // 1e6 blocks
	if err := s.ForEachBlock(100, func([]int) {}); err == nil {
		t.Fatal("cap not enforced")
	}
}

func TestForEachBlockElementsSum(t *testing.T) {
	s := Space{{835, 80}, {99, 60}}
	var total float64
	if err := s.ForEachBlock(10000, func(sizes []int) { total += Product(sizes) }); err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-s.Elements()) > 1e-9 {
		t.Fatalf("blocks sum to %v elements, want %v", total, s.Elements())
	}
}

func TestForEachBlockEmptySpace(t *testing.T) {
	called := 0
	empty := Space{}
	if err := empty.ForEachBlock(10, func([]int) { called++ }); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Fatalf("empty space called fn %d times, want 1", called)
	}
}

// refBlocks lists every block's tile sizes in odometer order (last axis
// fastest), built directly from TileSizes.
func refBlocks(s Space) [][]int {
	out := [][]int{{}}
	for _, a := range s {
		var next [][]int
		for _, prefix := range out {
			for _, t := range a.TileSizes() {
				next = append(next, append(append([]int(nil), prefix...), t))
			}
		}
		out = next
	}
	return out
}

// Property: ForEachBlock (and so ForEachBlockClass with ClassSizes) visits
// every block exactly once, in odometer order, with its tile sizes.
func TestQuickForEachBlockOrder(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := make(Space, r.Intn(5))
		for i := range s {
			s[i] = Axis{Extent: 1 + r.Intn(120), Tile: 1 + r.Intn(50)}
		}
		if s.Blocks() > 20000 {
			return true // skip huge spaces
		}
		want := refBlocks(s)
		i, ok := 0, true
		if err := s.ForEachBlock(20000, func(sz []int) {
			if i >= len(want) || !slices.Equal(sz, want[i]) {
				ok = false
			}
			i++
		}); err != nil {
			return false
		}
		return ok && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClassBlocks counts the blocks ForEachBlockClass visits in each
// class, and is zero for every class it never visits.
func TestQuickClassBlocksCountsEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := make(Space, r.Intn(5))
		for i := range s {
			s[i] = Axis{Extent: 1 + r.Intn(120), Tile: 1 + r.Intn(50)}
		}
		if s.Blocks() > 20000 {
			return true // skip huge spaces
		}
		seen := make([]float64, 1<<len(s))
		if err := s.ForEachBlockClass(20000, func(c int) { seen[c]++ }); err != nil {
			return false
		}
		return slices.Equal(s.ClassBlocks(), seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProduct(t *testing.T) {
	if Product([]int{2, 3, 4}) != 24 {
		t.Fatal("Product wrong")
	}
	if Product(nil) != 1 {
		t.Fatal("empty Product should be 1")
	}
}

// Property: for any axis, tile sizes sum to extent and count matches.
func TestQuickAxisInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := Axis{Extent: 1 + r.Intn(2000), Tile: 1 + r.Intn(250)}
		ts := a.TileSizes()
		if len(ts) != a.NumTiles() {
			return false
		}
		sum := 0
		for _, s := range ts {
			if s <= 0 || s > a.Tile {
				return false
			}
			sum += s
		}
		return sum == a.Extent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: closed-form moments match enumeration for random small spaces.
func TestQuickMomentsMatchEnumeration(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dims := 1 + r.Intn(3)
		s := make(Space, dims)
		for i := range s {
			s[i] = Axis{Extent: 1 + r.Intn(200), Tile: 1 + r.Intn(60)}
		}
		if s.Blocks() > 20000 {
			return true // skip huge spaces
		}
		var sum, count float64
		if err := s.ForEachBlock(20000, func(sz []int) {
			sum += Product(sz)
			count++
		}); err != nil {
			return false
		}
		mean, _ := s.SizeMoments()
		return math.Abs(mean-sum/count) <= 1e-9*(1+mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
