package lru

import (
	"slices"
	"testing"

	"parcost/internal/rng"
)

// keys lists c's keys most recently used first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a is now most recent, b least
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used b survived eviction")
	}
	if got := keys(c); !slices.Equal(got, []string{"c", "a"}) {
		t.Fatalf("order %v, want [c a]", got)
	}
}

func TestPutReplacesAndMovesToFront(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Put("a", 10)
	if got := keys(c); !slices.Equal(got, []string{"a", "c", "b"}) {
		t.Fatalf("order %v, want [a c b]", got)
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v; want 10, true", v, ok)
	}
	if c.Len() != 3 {
		t.Fatalf("Len %d after a replace, want 3", c.Len())
	}
	c.Put("d", 4) // b is least recent
	if got := keys(c); !slices.Equal(got, []string{"d", "a", "c"}) {
		t.Fatalf("order %v, want [d a c]", got)
	}
}

func TestRemove(t *testing.T) {
	c := New[int, string](3)
	c.Put(1, "x")
	c.Put(2, "y")
	c.Remove(1)
	c.Remove(99) // absent: no effect
	if _, ok := c.Get(1); ok || c.Len() != 1 {
		t.Fatalf("removed key still resident (Len %d)", c.Len())
	}
	c.Put(3, "z")
	c.Put(4, "w")
	if got := keys(c); !slices.Equal(got, []int{4, 3, 2}) {
		t.Fatalf("order %v, want [4 3 2]: a removed key frees its slot", got)
	}
}

func TestAllIteratesMostRecentFirstAndStopsEarly(t *testing.T) {
	c := New[int, int](4)
	for i := 1; i <= 4; i++ {
		c.Put(i, i*i)
	}
	c.Get(2)
	var ks, vs []int
	for k, v := range c.All() {
		ks = append(ks, k)
		vs = append(vs, v)
	}
	if !slices.Equal(ks, []int{2, 4, 3, 1}) || !slices.Equal(vs, []int{4, 16, 9, 1}) {
		t.Fatalf("All = %v / %v, want [2 4 3 1] / [4 16 9 1]", ks, vs)
	}
	for k := range c.All() {
		if k != 2 {
			t.Fatalf("first key %d, want 2", k)
		}
		break
	}
	if got := keys(c); !slices.Equal(got, []int{2, 4, 3, 1}) {
		t.Fatalf("iteration changed the order: %v", got)
	}
}

func TestNonPositiveCapacityHoldsNothing(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	if _, ok := c.Get(1); ok || c.Len() != 0 {
		t.Fatal("zero-capacity cache kept an entry")
	}
}

// TestMatchesSliceModel drives random operations against a plain slice kept
// most recent first and checks every result and the full order after each.
func TestMatchesSliceModel(t *testing.T) {
	type kv struct{ k, v int }
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		capacity := 1 + r.Intn(6)
		c := New[int, int](capacity)
		var model []kv
		find := func(k int) int {
			return slices.IndexFunc(model, func(e kv) bool { return e.k == k })
		}
		for step := 0; step < 500; step++ {
			k := r.Intn(10)
			switch op := r.Intn(4); op {
			case 0, 1: // Put
				v := r.Intn(1000)
				c.Put(k, v)
				if i := find(k); i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
				model = slices.Insert(model, 0, kv{k, v})
				if len(model) > capacity {
					model = model[:capacity]
				}
			case 2: // Get
				v, ok := c.Get(k)
				i := find(k)
				if ok != (i >= 0) || (ok && v != model[i].v) {
					t.Fatalf("seed %d step %d: Get(%d) = %d, %v; model %v", seed, step, k, v, ok, model)
				}
				if ok {
					e := model[i]
					model = slices.Insert(slices.Delete(model, i, i+1), 0, e)
				}
			case 3: // Remove
				c.Remove(k)
				if i := find(k); i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			}
			var got []kv
			for k, v := range c.All() {
				got = append(got, kv{k, v})
			}
			if !slices.Equal(got, model) || c.Len() != len(model) {
				t.Fatalf("seed %d step %d: cache %v (Len %d), model %v", seed, step, got, c.Len(), model)
			}
		}
	}
}
