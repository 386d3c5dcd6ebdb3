// Package lru is the tree's one bounded least-recently-used map: the
// feature extractor's two cache levels and the gateway's routing-key memo
// are instances of it.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded, concurrency-safe map that evicts the least recently
// used entry once it holds more than its capacity. Values are stored and
// returned by value, so a V without pointers (a fixed-size array, a
// struct of numbers) is never shared with a caller.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; Value is *entry[K, V]
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries (at least
// one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1), order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, evicting the
// least recently used one beyond capacity. A key already present keeps
// its resident value: two callers that computed the same value
// concurrently both succeed, and the first one's copy stays.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Reset removes every entry.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}
