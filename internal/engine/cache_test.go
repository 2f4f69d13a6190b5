package engine

import (
	"sync"
	"testing"

	"ssync/internal/core"
	"ssync/internal/store"
)

// The engine's in-memory caches — the result cache's front tier and
// RaceOptions.Metrics — are store.LRUs reporting CacheStats; these tests
// pin the LRU contract they rely on.

func keyOf(b byte) store.Key {
	var k store.Key
	k[0] = b
	return k
}

func TestCacheLRUEvictionBounds(t *testing.T) {
	const max = 4
	c := store.NewLRU[*core.Result](max)
	for i := 0; i < 3*max; i++ {
		c.Put(keyOf(byte(i)), &core.Result{})
		if c.Len() > max {
			t.Fatalf("cache grew to %d entries, bound is %d", c.Len(), max)
		}
	}
	st := c.Stats()
	if st.Entries != max || st.Capacity != max {
		t.Errorf("entries=%d capacity=%d, want %d/%d", st.Entries, st.Capacity, max, max)
	}
	if st.Evictions != 2*max {
		t.Errorf("evictions=%d, want %d", st.Evictions, 2*max)
	}
	// Only the newest max keys survive.
	for i := 0; i < 3*max; i++ {
		_, ok := c.Get(keyOf(byte(i)))
		if want := i >= 2*max; ok != want {
			t.Errorf("key %d cached=%v, want %v", i, ok, want)
		}
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	c := store.NewLRU[*core.Result](2)
	c.Put(keyOf(1), &core.Result{})
	c.Put(keyOf(2), &core.Result{})
	// Touch 1 so 2 becomes the eviction victim.
	if _, ok := c.Get(keyOf(1)); !ok {
		t.Fatal("key 1 missing")
	}
	c.Put(keyOf(3), &core.Result{})
	if _, ok := c.Get(keyOf(1)); !ok {
		t.Error("recently used key 1 was evicted")
	}
	if _, ok := c.Get(keyOf(2)); ok {
		t.Error("least recently used key 2 survived")
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := store.NewLRU[*core.Result](2)
	first, second := &core.Result{}, &core.Result{Iterations: 1}
	c.Put(keyOf(1), first)
	c.Put(keyOf(1), second)
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache to %d entries", c.Len())
	}
	got, ok := c.Get(keyOf(1))
	if !ok || got != second {
		t.Error("duplicate Put did not replace the value")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := store.NewLRU[*core.Result](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(byte((w + i) % 32))
				if _, ok := c.Get(k); !ok {
					c.Put(k, &core.Result{})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("cache exceeded bound under concurrency: %d", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses=%d, want %d", st.Hits+st.Misses, 8*200)
	}
}
