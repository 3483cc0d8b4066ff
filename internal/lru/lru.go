// Package lru is the one bounded least-recently-used map behind parcost's
// caches: guide's sweep cache, the fleet proxy's stale-response cache and
// admission's per-client rate-limit buckets. It holds only the map and
// recency-list bookkeeping; expiry, counters and locking stay with callers.
package lru

import (
	"container/list"
	"iter"
)

// Cache maps keys to values and holds at most its capacity, evicting the
// least recently used entry past it. It is not safe for concurrent use:
// callers guard it with their own mutex.
type Cache[K comparable, V any] struct {
	limit int
	order *list.List // of *entry[K, V], front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds an empty cache holding at most limit entries; a limit below
// one holds nothing (every Put is evicted at once).
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns key's value and marks key most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put sets key's value and marks key most recently used, evicting least
// recently used entries while the cache holds more than its capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.limit {
		c.Remove(c.order.Back().Value.(*entry[K, V]).key)
	}
}

// Remove drops key if it is present.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len is the number of resident entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// All yields the resident entries most recently used first, without
// changing their order. The cache must not be modified during the loop.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for el := c.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[K, V])
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}
