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
	cq := &compiledQuery{q: q}
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
	cq.rng = resolveRange(q.Range)
	return cq, nil
}

// resolveRange is a query's effective range: a zero range is every sample.
func resolveRange(r ts.TimeRange) ts.TimeRange {
	if r.IsZero() {
		return ts.TimeRange{From: time.Unix(0, 0).UTC(), To: time.Unix(1<<62-1, 0).UTC()}
	}
	return r
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
		matches := db.shards[0].run(cq)
		end()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return seriesOf(matches), nil
	}
	scanCtx, endScan := obs.StartSpan(ctx, "shard_scan")
	parts := make([][]match, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			if ctx.Err() != nil {
				return // abort the fan-out: leave this shard's part empty
			}
			_, endOne := obs.StartSpanName(scanCtx, "shard ", strconv.Itoa(i))
			parts[i] = sh.run(cq)
			endOne()
		}(i, sh)
	}
	wg.Wait()
	endScan()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, endMerge := obs.StartSpan(ctx, "merge")
	out := seriesOf(MergeByID(parts, func(m match) string { return m.id }))
	endMerge()
	return out, nil
}

// match is one series a shard's scan returns: a copy restricted to the
// query range, and the stored series' ID.
type match struct {
	id string
	s  *ts.Series
}

// seriesOf returns the matches' series, in order, and counts them as
// returned on /metrics.
func seriesOf(matches []match) []*ts.Series {
	if len(matches) == 0 {
		return nil
	}
	out := make([]*ts.Series, len(matches))
	for i, m := range matches {
		out[i] = m.s
	}
	metSeriesOut.Add(uint64(len(out)))
	return out
}

// run executes the compiled plan on one shard, returning the matched series
// (copied, range-restricted) ordered by ID.
func (sh *shard) run(cq *compiledQuery) (out []match) {
	sh.readSorted(func() { out = sh.runLocked(cq) })
	return out
}

// readSorted counts one scan of the shard and runs fn with the shard
// sorted and locked against writers. The sorted flag is only trustworthy
// under a lock (a concurrent out-of-order Put can clear it), so it is
// checked under the read lock fn then runs under; the rare unsorted shard
// is sorted and read under the write lock, in one critical section.
func (sh *shard) readSorted(fn func()) {
	sh.scans.Inc()
	sh.mu.RLock()
	if sh.sorted {
		defer sh.mu.RUnlock()
		fn()
		return
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sortLocked()
	fn()
}

// runLocked does the index selection, filtering and copying; caller holds
// at least the read lock and guarantees the shard is sorted.
func (sh *shard) runLocked(cq *compiledQuery) (out []match) {
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
		return nil
	}

	var ids []string
	if useIndex {
		ids = sortedKeys(candidates)
	} else {
		ids = sortedKeys(sh.series)
	}

	for _, id := range ids {
		s := sh.series[id]
		if !cq.matches(s) {
			continue
		}
		samples := s.Slice(cq.rng)
		if len(samples) == 0 {
			continue
		}
		out = append(out, match{id, &ts.Series{Name: s.Name, Tags: s.Tags.Clone(), Samples: append([]ts.Sample(nil), samples...)}})
	}
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Visit hands every stored series with a sample in r (a zero r is every
// sample) to fn in place: its canonical ID, the stored series and its
// samples in r, all the store's own memory — no sample is copied and no
// tag map cloned. One goroutine per shard walks that shard's series in ID
// order, as Run's scan does, holding the shard's read lock throughout (an
// unsorted shard is sorted under its write lock first and walked under
// it), so fn runs concurrently for different shards and serially within
// one; shard is the shard's index, 0 <= shard < NumShards(). fn must not
// retain or modify s or in, and must not call into the DB or take a lock
// another shard's visit may hold. A visit counts as one query, and one
// scan per shard, on /metrics. It returns the number of series visited.
func (db *DB) Visit(r ts.TimeRange, fn func(shard int, id string, s *ts.Series, in []ts.Sample)) int {
	r = resolveRange(r)
	metQueries.Inc()
	visited := make([]int, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.readSorted(func() {
				for _, id := range sortedKeys(sh.series) {
					s := sh.series[id]
					if in := s.Slice(r); len(in) > 0 {
						fn(i, id, s, in)
						visited[i]++
					}
				}
			})
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range visited {
		total += n
	}
	metSeriesOut.Add(uint64(total))
	return total
}

// MergeByID merges per-shard lists, each ordered by series ID, into one
// ID-ordered list: the order a single-shard store produces, so results do
// not depend on the shard count. id gives an element's series ID. Series
// IDs are unique across shards, so the merge never ties. A single list is
// returned as it is, in whatever order it has.
func MergeByID[T any](parts [][]T, id func(T) string) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	pos := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if pos[i] < len(p) && (best < 0 || id(p[pos[i]]) < id(parts[best][pos[best]])) {
				best = i
			}
		}
		out = append(out, parts[best][pos[best]])
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
