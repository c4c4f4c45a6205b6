package explainit

import (
	"fmt"
	"strings"

	"explainit/internal/obs"
	"explainit/internal/rescache"
)

// Ranking result cache. A completed ranking is a pure function of the
// family registry it resolved from and of (target, conditioning sequence,
// search space, scorer, seed, TopK, explain range): family matrices are
// materialized at build time, so between rebuilds no ranking reads the
// store. The facade therefore memoizes completed rankings in an LRU
// (internal/rescache) keyed by the latter and validated by the registry
// generation alone — a Put, PutBatch or Retain leaves every entry valid,
// and a rebuild makes every entry stale on its next probe. The one ranking
// path, Client.rank, builds the one key (rankSpec.key), probes and stores;
// every Explain, ExplainStream, Investigation step, SQL EXPLAIN and watch
// tick runs through it, so a repeat EXPLAIN between rebuilds returns the
// identical Ranking without touching the engine whichever surface asked.
// Worker count is deliberately not part of the key — rankings are bitwise
// identical at any worker count, so results are shared across parallelism
// settings.

// Process-wide ranking-cache counters, bumped only where Client.rank
// probes (the SQL plan and scan caches have their own). Every ranking
// counts as a hit or a miss — a probe of a disabled cache, or a stale
// session ranking uncached, is a miss: the request wanted a ranking and
// did not get a cached one, which is exactly the signal a mid-run cache
// outage must leave in the self-scraped explainit_cache_hit_ratio.
var (
	metRankHits        = obs.Default().Counter("explainit_ranking_cache_hits_total")
	metRankMisses      = obs.Default().Counter("explainit_ranking_cache_misses_total")
	metRankInvalidated = obs.Default().Counter("explainit_ranking_cache_invalidated_total")
)

// defaultRankingCacheCap bounds the ranking LRU. Each entry is one TopK
// result table (a few KB), so the default is generous for dashboard-style
// workloads while staying far from memory pressure.
const defaultRankingCacheCap = 128

// rankingCache returns the current cache (nil-safe: a zero Client has no
// cache and every probe misses).
func (c *Client) rankingCache() *rescache.Cache {
	return c.rcache.Load()
}

// SetRankingCacheCapacity replaces the ranking result cache with a fresh
// one bounded to n entries; n <= 0 disables result caching entirely (every
// Explain recomputes — the setting benchmarks use to measure the engine).
// Existing cached results are dropped; counters restart from zero.
func (c *Client) SetRankingCacheCapacity(n int) {
	c.rcache.Store(rescache.New(n))
}

// RankingCacheStats reports the ranking cache counters: served results
// (Hits), computed results (Misses), entries dropped because a family
// rebuild made them stale (Invalidated), and live Entries.
type RankingCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
	Entries     int    `json:"entries"`
}

// RankingCacheStats snapshots the ranking cache counters.
func (c *Client) RankingCacheStats() RankingCacheStats {
	s := c.rankingCache().Stats()
	return RankingCacheStats{Hits: s.Hits, Misses: s.Misses, Invalidated: s.Invalidated, Entries: s.Entries}
}

// key renders the identity of the computation spec declares at resolved
// TopK; the registry generation validates the entry instead of naming it.
// The conditioning sequence is keyed in engine order — the named families,
// and the pseudocause first (a session's) or last (Explain's) — because
// column order affects float rounding and the cache must only ever serve
// bitwise replays. The scorer is keyed by what it builds, so "" and L2
// share entries.
func (s *rankSpec) key(topK int) string {
	pseudo := "none"
	if s.Pseudocause {
		pseudo = "last"
		if s.pin != nil {
			pseudo = "first"
		}
	}
	scorer := s.Scorer
	if scorer == "" {
		scorer = L2
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\x1e%s\x1e%d\x1e", s.Target, pseudo, s.PseudocausePeriod)
	b.WriteString(strings.Join(s.Condition, "\x1f"))
	b.WriteByte('\x1e')
	b.WriteString(strings.Join(s.SearchSpace, "\x1f"))
	fmt.Fprintf(&b, "\x1e%s\x1e%d\x1e%d\x1e%d\x1e%d", scorer, s.Seed, topK, s.ExplainFrom.UnixNano(), s.ExplainTo.UnixNano())
	return b.String()
}

// clone returns an independent copy of the ranking, so cached snapshots and
// the values handed to callers never alias (a caller mutating its result
// must not poison the cache).
func (r *Ranking) clone() *Ranking {
	cp := &Ranking{}
	if r.Rows != nil {
		cp.Rows = append([]RankedFamily(nil), r.Rows...)
	}
	if r.Skipped != nil {
		cp.Skipped = append([]string(nil), r.Skipped...)
	}
	return cp
}
