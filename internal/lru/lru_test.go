package lru

import (
	"sync"
	"testing"
)

// TestCacheEvictsLeastRecentlyUsed: a Get refreshes an entry, and the
// entry evicted at capacity is the one used longest ago.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a")
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("kept the least recently used entry")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v; want 1, true", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v; want 3, true", v, ok)
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Errorf("len %d cap %d, want 2 and 2", c.Len(), c.Cap())
	}
	c.Reset()
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Error("Reset left entries behind")
	}
	if New[int, int](0).Cap() != 1 {
		t.Error("capacity below one not raised to one")
	}
}

// TestCacheAddKeepsResident: adding a key that is present keeps the
// first value and refreshes it.
func TestCacheAddKeepsResident(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 9)
	c.Add("c", 3) // evicts b: the second Add of a refreshed it
	if v, _ := c.Get("a"); v != 1 {
		t.Errorf("a = %d, want the resident 1", v)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

// TestCacheValuesAreCopies: an array value handed out by Get is the
// caller's own.
func TestCacheValuesAreCopies(t *testing.T) {
	c := New[int, [3]float64](1)
	c.Add(1, [3]float64{1, 2, 3})
	v, _ := c.Get(1)
	v[0] = -1
	if w, _ := c.Get(1); w[0] != 1 {
		t.Error("mutating a returned value changed the cache")
	}
}

// TestCacheConcurrent hammers one small cache from several goroutines
// (run it under -race): every hit returns the value stored for its key,
// and the cache never exceeds capacity.
func TestCacheConcurrent(t *testing.T) {
	const capacity = 4
	c := New[int, [2]int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*7 + i) % 16
				if v, ok := c.Get(k); ok && v != [2]int{k, -k} {
					t.Errorf("key %d: got %v", k, v)
					return
				}
				c.Add(k, [2]int{k, -k})
				if n := c.Len(); n > capacity {
					t.Errorf("len %d > capacity %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
