package tsdb

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"explainit/internal/obs"
	ts "explainit/internal/timeseries"
)

// Query planning and execution. A Run call compiles its globs once (a
// Glob is just the checked pattern), then fans the compiled plan out to
// every shard in parallel. Each shard picks the narrowest inverted index
// available to it, filters and copies its matches in series-ID order, and
// the per-shard results are merged by ID — so the output is bitwise
// identical at any shard count.

// compiledQuery is the executable plan for one Run call: globs compiled,
// the effective time range resolved.
type compiledQuery struct {
	q        Query
	nameGlob *Glob
	tagGlobs map[string]Glob
	rng      ts.TimeRange
}

func compileQuery(q Query) (*compiledQuery, error) {
	cq := &compiledQuery{q: q, rng: q.Range}
	if q.NamePattern != "" {
		g, err := compileQueryGlob(q.NamePattern)
		if err != nil {
			return nil, err
		}
		cq.nameGlob = &g
	}
	if len(q.TagPatterns) > 0 {
		cq.tagGlobs = make(map[string]Glob, len(q.TagPatterns))
		for k, pat := range q.TagPatterns {
			g, err := compileQueryGlob(pat)
			if err != nil {
				return nil, err
			}
			cq.tagGlobs[k] = g
		}
	}
	if cq.rng.IsZero() {
		cq.rng = ts.TimeRange{From: time.Unix(0, 0).UTC(), To: time.Unix(1<<62-1, 0).UTC()}
	}
	return cq, nil
}

func compileQueryGlob(pattern string) (Glob, error) {
	g, err := CompileGlob(pattern)
	if err != nil {
		return Glob{}, fmt.Errorf("tsdb: bad glob %q: %w", pattern, err)
	}
	return g, nil
}

// matches reports whether a series passes every filter of the plan.
func (cq *compiledQuery) matches(s *ts.Series) bool {
	if cq.q.Metric != "" && s.Name != cq.q.Metric {
		return false
	}
	if cq.nameGlob != nil && !cq.nameGlob.Match(s.Name) {
		return false
	}
	if !s.Tags.Matches(cq.q.Tags) {
		return false
	}
	for k, g := range cq.tagGlobs {
		if !g.Match(s.Tags[k]) {
			return false
		}
	}
	return true
}

// Run executes the query and returns matching series, each restricted to
// the query range (samples are copied; the store is not aliased). Results
// are ordered by series ID for determinism, independent of shard count.
func (db *DB) Run(q Query) ([]*ts.Series, error) {
	return db.RunContext(context.Background(), q)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before the shard fan-out and again by every shard goroutine before it
// scans, so a cancelled query skips the per-shard index walks and copies
// still pending and returns ctx.Err() instead of a partial result. A shard
// scan already in flight runs to completion (scans never block), so
// cancellation is prompt but not preemptive.
func (db *DB) RunContext(ctx context.Context, q Query) ([]*ts.Series, error) {
	cq, err := compileQuery(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	metQueries.Inc()
	if len(db.shards) == 1 {
		_, end := obs.StartSpan(ctx, "shard_scan")
		_, out := db.shards[0].run(cq)
		end()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		metSeriesOut.Add(uint64(len(out)))
		return out, nil
	}
	scanCtx, endScan := obs.StartSpan(ctx, "shard_scan")
	parts := make([]shardResult, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if ctx.Err() != nil {
				return // abort the fan-out: leave this shard's part empty
			}
			_, endOne := obs.StartSpanName(scanCtx, "shard ", strconv.Itoa(i))
			parts[i].ids, parts[i].series = sh.run(cq)
			endOne()
		}(i, sh)
	}
	wg.Wait()
	endScan()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, endMerge := obs.StartSpan(ctx, "merge")
	out := mergeByID(parts)
	endMerge()
	metSeriesOut.Add(uint64(len(out)))
	return out, nil
}

type shardResult struct {
	ids    []string
	series []*ts.Series
}

// run executes the compiled plan on one shard, returning matched series
// (copied, range-restricted) and their IDs, both ordered by ID. The
// sorted flag is only trustworthy under a lock (a concurrent out-of-order
// Put can clear it), so the flag is checked under the read lock the query
// runs under; the rare unsorted shard is queried under the write lock,
// with the sort and the scan in one critical section.
func (sh *shard) run(cq *compiledQuery) ([]string, []*ts.Series) {
	sh.scans.Inc()
	sh.mu.RLock()
	if sh.sorted {
		defer sh.mu.RUnlock()
		return sh.runLocked(cq)
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sortLocked()
	return sh.runLocked(cq)
}

// runLocked does the index selection, filtering and copying; caller holds
// at least the read lock and guarantees the shard is sorted.
func (sh *shard) runLocked(cq *compiledQuery) (ids []string, out []*ts.Series) {
	// Pick the narrowest index covering the query: the name index for an
	// exact metric, the smallest tag postings set for exact tags —
	// whichever is smallest. The filter below re-checks every predicate,
	// so index choice affects only the candidate count, never the result.
	var candidates map[string]struct{}
	useIndex := false
	consider := func(set map[string]struct{}) {
		if !useIndex || len(set) < len(candidates) {
			candidates = set
		}
		useIndex = true
	}
	if cq.q.Metric != "" {
		consider(sh.byName[cq.q.Metric])
	}
	for k, v := range cq.q.Tags {
		consider(sh.byTag[k+"="+v])
	}
	if useIndex && len(candidates) == 0 {
		return nil, nil
	}

	if useIndex {
		ids = make([]string, 0, len(candidates))
		for id := range candidates {
			ids = append(ids, id)
		}
	} else {
		ids = make([]string, 0, len(sh.series))
		for id := range sh.series {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	n := 0
	for _, id := range ids {
		s := sh.series[id]
		if !cq.matches(s) {
			continue
		}
		samples := s.Slice(cq.rng)
		if len(samples) == 0 {
			continue
		}
		ids[n] = id
		n++
		out = append(out, &ts.Series{Name: s.Name, Tags: s.Tags.Clone(), Samples: append([]ts.Sample(nil), samples...)})
	}
	return ids[:n], out
}

// mergeByID merges per-shard results (each sorted by series ID) into one
// globally ID-ordered slice. Series IDs are unique across shards, so the
// merge never ties.
func mergeByID(parts []shardResult) []*ts.Series {
	total := 0
	for _, p := range parts {
		total += len(p.series)
	}
	if total == 0 {
		return nil
	}
	out := make([]*ts.Series, 0, total)
	pos := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i := range parts {
			if pos[i] >= len(parts[i].ids) {
				continue
			}
			if best == -1 || parts[i].ids[pos[i]] < parts[best].ids[pos[best]] {
				best = i
			}
		}
		out = append(out, parts[best].series[pos[best]])
		pos[best]++
	}
	return out
}

// EstimateQuery returns the number of candidate series a query would
// consider, from index postings alone: per shard, the narrowest posting
// set covering the query's exact metric and tags (the same selection
// runLocked makes), or the full shard when nothing is exact. Patterns and
// the time range are not consulted, so this is an upper bound on the
// result cardinality — cheap enough for a planner to call per scan.
func (db *DB) EstimateQuery(q Query) int {
	total := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		var candidates map[string]struct{}
		useIndex := false
		consider := func(set map[string]struct{}) {
			if !useIndex || len(set) < len(candidates) {
				candidates = set
			}
			useIndex = true
		}
		if q.Metric != "" {
			consider(sh.byName[q.Metric])
		}
		for k, v := range q.Tags {
			consider(sh.byTag[k+"="+v])
		}
		if useIndex {
			total += len(candidates)
		} else {
			total += len(sh.series)
		}
		sh.mu.RUnlock()
	}
	return total
}
