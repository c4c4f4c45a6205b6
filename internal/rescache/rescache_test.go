package rescache

import (
	"fmt"
	"sync"
	"testing"
)

func TestHitRequiresMatchingWatermarks(t *testing.T) {
	c := New(8)
	c.Put("k", []uint64{1, 2}, "v")
	if v, ok, stale := c.Get("k", []uint64{1, 2}); !ok || stale || v != "v" {
		t.Fatalf("Get = %v, %v, %v; want v, true, false", v, ok, stale)
	}
	// Any element moving invalidates; the entry must be gone afterwards,
	// not resurrectable by presenting the old snapshot again.
	if _, ok, stale := c.Get("k", []uint64{1, 3}); ok || !stale {
		t.Fatalf("stale validator: hit %v, stale %v", ok, stale)
	}
	if _, ok, stale := c.Get("k", []uint64{1, 2}); ok || stale {
		t.Fatalf("invalidated entry: hit %v, stale %v", ok, stale)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Invalidated != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWatermarkLengthMismatchIsStale(t *testing.T) {
	c := New(8)
	c.Put("k", []uint64{1}, "v")
	if _, ok, _ := c.Get("k", []uint64{1, 0}); ok {
		t.Fatal("snapshot with different shard count served")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	wm := []uint64{0}
	c.Put("a", wm, 1)
	c.Put("b", wm, 2)
	if _, ok, _ := c.Get("a", wm); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", wm, 3)
	if _, ok, _ := c.Get("b", wm); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, ok, _ := c.Get("a", wm); !ok {
		t.Fatal("recently used a evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(4)
	c.Put("k", []uint64{1}, "old")
	c.Put("k", []uint64{2}, "new")
	if v, ok, _ := c.Get("k", []uint64{2}); !ok || v != "new" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache{New(0), New(-1), {}} {
		c.Put("k", []uint64{1}, "v")
		if _, ok, _ := c.Get("k", []uint64{1}); ok {
			t.Fatal("disabled cache served a value")
		}
		if c.Enabled() {
			t.Fatal("Enabled = true")
		}
		if c.Len() != 0 {
			t.Fatal("Len != 0")
		}
	}
	var nilCache *Cache
	if nilCache.Enabled() {
		t.Fatal("nil cache Enabled")
	}
	if s := nilCache.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v", s)
	}
}

// TestConcurrentStress races hits, misses, puts and invalidating gets; run under -race this is the package-level half of the cache
// stress coverage (the facade has an end-to-end twin).
func TestConcurrentStress(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%24)
				wm := []uint64{uint64(i % 3)}
				switch (g + i) % 3 {
				case 0:
					c.Put(key, wm, i)
				case 1:
					if v, ok, _ := c.Get(key, wm); ok {
						if _, isInt := v.(int); !isInt {
							t.Errorf("corrupt value %v", v)
							return
						}
					}
				default:
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}
