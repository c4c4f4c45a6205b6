// Package rescache is the bounded LRU behind the facade's result caches.
// Each entry is stored together with a validator — a []uint64 snapshot of
// whatever the value was computed from — and a lookup is a hit only when
// the caller's current validator equals the stored one; a mismatch evicts
// the entry. The facade's ranking cache validates by the family-registry
// generation (one element: rankings read only the registry), and its SQL
// scan cache by the store's per-shard ingest watermarks (tsdb.DB.Watermarks:
// scans read the store). Either way the cache can serve an identical value
// or no value, never an outdated one.
//
// Values are opaque to the package; the facade stores immutable snapshots.
package rescache

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// Cache is a bounded, validator-checked LRU. A Cache with capacity <= 0
// is disabled: every Get misses, every Put is dropped — the knob
// benchmarks use to measure the uncached engine. The zero value is
// disabled; construct with New. Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *entry
	m   map[string]*list.Element

	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidated atomic.Uint64
}

type entry struct {
	key   string
	valid []uint64
	val   any
}

// Stats is a point-in-time counter snapshot. Hits + Misses is the total
// lookup count; Invalidated counts entries evicted by a validator mismatch
// (each such lookup also counts as a miss).
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
	Entries     int    `json:"entries"`
}

// New returns a cache bounded to cap entries; cap <= 0 returns a disabled
// cache.
func New(cap int) *Cache {
	c := &Cache{cap: cap}
	if cap > 0 {
		c.ll = list.New()
		c.m = make(map[string]*list.Element, cap)
	}
	return c
}

// Enabled reports whether the cache stores anything at all.
func (c *Cache) Enabled() bool { return c != nil && c.cap > 0 }

// Get returns the value stored under key, provided it was stored with the
// validator valid. An entry whose stored validator differs was computed
// from inputs that have since changed: it is removed (counted as
// invalidated, reported by stale) and the lookup misses. A disabled cache
// counts nothing.
func (c *Cache) Get(key string, valid []uint64) (v any, hit, stale bool) {
	if !c.Enabled() {
		return nil, false, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false, false
	}
	e := el.Value.(*entry)
	if !slices.Equal(e.valid, valid) {
		c.ll.Remove(el)
		delete(c.m, key)
		c.mu.Unlock()
		c.invalidated.Add(1)
		c.misses.Add(1)
		return nil, false, true
	}
	c.ll.MoveToFront(el)
	v = e.val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true, false
}

// Put stores val under key with validator valid, replacing any existing
// entry. The caller must not mutate val (or valid) afterwards — the facade
// stores defensive snapshots.
func (c *Cache) Put(key string, valid []uint64, val any) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		e.valid, e.val = valid, val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry{key: key, valid: valid, val: val})
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*entry).key)
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if !c.Enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     c.Len(),
	}
}
