// Package rescache memoizes completed ranking results. A conditioned query
// — target, conditioning set, candidate space, scorer, time range — is a
// first-class, reusable object: dashboards re-issue the same
// `EXPLAIN ... GIVEN ...` every refresh, and over unchanged data the answer
// cannot change. The cache stores each completed result together with the
// store's per-shard ingest watermarks at compute time (tsdb.DB.Watermarks);
// a lookup is a hit only when every shard's watermark still matches, so a
// single Put, PutBatch partition, or pruning Retain anywhere in the store
// invalidates every result computed before it. That makes staleness
// structurally impossible: the cache can serve an identical ranking or no
// ranking, never an outdated one.
//
// Entries are kept in a bounded LRU. Values are opaque to the package; the facade stores immutable
// *Ranking snapshots.
package rescache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"explainit/internal/obs"
)

// Process-wide obs counters, aggregated across every Cache instance (the
// facade owns one per client; the self-scraped hit-ratio series is about
// the process). Unlike the per-cache Stats atomics, a probe against a
// disabled cache counts as an obs miss: the request did probe and did not
// get a ranking, which is exactly the signal a mid-run cache outage must
// leave in explainit_cache_hit_ratio.
var (
	metHits        = obs.Default().Counter("explainit_ranking_cache_hits_total")
	metMisses      = obs.Default().Counter("explainit_ranking_cache_misses_total")
	metInvalidated = obs.Default().Counter("explainit_ranking_cache_invalidated_total")
)

// Cache is a bounded, watermark-validated LRU. A Cache with capacity <= 0
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
	key string
	wm  []uint64
	val any
}

// Stats is a point-in-time counter snapshot. Hits + Misses is the total
// lookup count; Invalidated counts entries evicted by a watermark mismatch
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

// Get returns the value stored under key, provided it was computed at the
// given watermark snapshot. An entry whose stored watermarks differ from wm
// was computed before some shard mutated: it is removed (counted as
// invalidated) and the lookup misses.
func (c *Cache) Get(key string, wm []uint64) (any, bool) {
	if !c.Enabled() {
		metMisses.Inc()
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		metMisses.Inc()
		return nil, false
	}
	e := el.Value.(*entry)
	if !watermarksEqual(e.wm, wm) {
		c.ll.Remove(el)
		delete(c.m, key)
		c.mu.Unlock()
		c.invalidated.Add(1)
		c.misses.Add(1)
		metInvalidated.Inc()
		metMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	v := e.val
	c.mu.Unlock()
	c.hits.Add(1)
	metHits.Inc()
	return v, true
}

// Put stores val under key as computed at watermark snapshot wm, replacing
// any existing entry. The caller must not mutate val (or wm) afterwards —
// the facade stores defensive snapshots.
func (c *Cache) Put(key string, wm []uint64, val any) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		e.wm, e.val = wm, val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry{key: key, wm: wm, val: val})
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

// Purge drops every entry (counters are kept).
func (c *Cache) Purge() {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	for k := range c.m {
		delete(c.m, k)
	}
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

func watermarksEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
