package explainit

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"explainit/internal/obs"
	"explainit/internal/rescache"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
	"explainit/internal/tsdb"
)

// SQL-layer caches. Two distinct keyings, deliberately separate from the
// ranking cache (cache.go):
//
//   - The plan cache maps SQL text to its compiled physical plan. Plans
//     are derived from the statement text and the (fixed) tsdb catalog
//     shape alone, so entries never need invalidation — a stale est_rows
//     can at worst flip a hash-join build side, never change results.
//   - The scan cache maps a pushed-down scan's canonical ScanSpec key to
//     the materialized relation, validated against the store's ingest
//     watermarks — it is the one cache that reads the store, so any Put or
//     Retain on any shard invalidates on next probe. This is what lets twenty
//     near-identical dashboard queries arriving over time (not just within
//     one statement batch — that case is handled by the executor's CSE
//     sharing) touch the store once.
var (
	metSQLPlanHits   = obs.Default().Counter("explainit_sql_plan_cache_hits_total")
	metSQLPlanMisses = obs.Default().Counter("explainit_sql_plan_cache_misses_total")
	metSQLScanHits   = obs.Default().Counter("explainit_sql_scan_cache_hits_total")
	metSQLScanMisses = obs.Default().Counter("explainit_sql_scan_cache_misses_total")
)

// defaultSQLPlanCacheCap bounds the plan LRU; plans are a few KB of AST
// references, so the bound is about distinct statement texts, not memory.
const defaultSQLPlanCacheCap = 256

// defaultSQLScanCacheCap bounds the pushed-scan LRU. Entries hold real row
// data, so the cap is small; pushdown keeps individual entries narrow.
const defaultSQLScanCacheCap = 32

// planFor returns the cached physical plan for a statement text, planning
// the already-parsed statement and caching on miss. The catalog must be
// the client's own tsdb catalog: the cache key is the SQL text, which is
// sound only because every caller plans against the same catalog shape.
func (c *Client) planFor(query string, stmt sqlparse.Statement, cat sqlexec.Catalog) (*sqlexec.Plan, error) {
	cache := c.sqlPlans.Load()
	if v, ok, _ := cache.Get(query, nil); ok {
		metSQLPlanHits.Inc()
		return v.(*sqlexec.Plan), nil
	}
	metSQLPlanMisses.Inc()
	plan, err := sqlexec.PlanStatement(stmt, cat)
	if err != nil {
		return nil, err
	}
	cache.Put(query, nil, plan)
	return plan, nil
}

// tsdbCatalog resolves the "tsdb" table (timestamp, metric_name, tag,
// value). It implements sqlexec.PushdownCatalog: the planner pushes
// metric/tag equalities and patterns plus the time range into ScanTable,
// which materialises only matching series through the shard inverted
// indexes — a full-table materialisation happens only for scans with no
// pushable predicate. Pushed scans are served through the client's
// watermark-validated scan cache.
type tsdbCatalog struct {
	client *Client
	ctx    context.Context // request context; traces the backing shard scan
	once   sync.Once
	rel    *sqlexec.Relation
	err    error
}

// Table implements sqlexec.Catalog: the lazy full materialisation, shared
// across a statement via once (a pure EXPLAIN never pays it).
func (t *tsdbCatalog) Table(name string) (*sqlexec.Relation, error) {
	if !strings.EqualFold(name, "tsdb") {
		return nil, fmt.Errorf("sqlexec: unknown table %q", name)
	}
	t.once.Do(func() {
		ctx := t.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		t.rel, t.err = sqlexec.TSDBRelationContext(ctx, t.client.db, tsdb.Query{})
	})
	return t.rel, t.err
}

// TableSchema implements sqlexec.SchemaCatalog without materialising rows.
func (t *tsdbCatalog) TableSchema(name string) (*sqlexec.Relation, error) {
	if !strings.EqualFold(name, "tsdb") {
		return nil, fmt.Errorf("sqlexec: unknown table %q", name)
	}
	return sqlexec.NewRelation("timestamp", "metric_name", "tag", "value"), nil
}

// CanPushdown implements sqlexec.PushdownCatalog.
func (t *tsdbCatalog) CanPushdown(name string) bool {
	return strings.EqualFold(name, "tsdb")
}

// ScanTable implements sqlexec.PushdownCatalog: materialise the rows the
// spec selects, through the watermark-validated scan cache.
func (t *tsdbCatalog) ScanTable(ctx context.Context, name string, spec sqlexec.ScanSpec) (*sqlexec.Relation, error) {
	if !strings.EqualFold(name, "tsdb") {
		return nil, fmt.Errorf("sqlexec: unknown table %q", name)
	}
	if t.ctx != nil {
		ctx = t.ctx
	}
	cache := t.client.sqlScans.Load()
	if !cache.Enabled() {
		return sqlexec.TSDBRelationContext(ctx, t.client.db, spec.Query())
	}
	key := "tsdb|" + spec.Key()
	marks := t.client.db.Watermarks()
	if v, ok, _ := cache.Get(key, marks); ok {
		metSQLScanHits.Inc()
		return v.(*sqlexec.Relation), nil
	}
	metSQLScanMisses.Inc()
	rel, err := sqlexec.TSDBRelationContext(ctx, t.client.db, spec.Query())
	if err != nil {
		return nil, err
	}
	// Re-snapshot after the scan: ingest racing the scan must not pin a
	// pre-ingest result under post-ingest watermarks, so only store when
	// the store was quiescent across the scan.
	if after := t.client.db.Watermarks(); slices.Equal(marks, after) {
		cache.Put(key, marks, rel)
	}
	return rel, nil
}

// EstimateScan implements sqlexec.PushdownCatalog via the store's index
// postings.
func (t *tsdbCatalog) EstimateScan(name string, spec sqlexec.ScanSpec) int {
	if !strings.EqualFold(name, "tsdb") {
		return -1
	}
	return t.client.db.EstimateQuery(spec.Query())
}

// SQLCacheStats reports this client's SQL-layer cache counters: compiled
// plans served/planned, and pushed-scan relations served/materialised or
// dropped because an ingest watermark moved.
type SQLCacheStats struct {
	PlanHits        uint64 `json:"plan_hits"`
	PlanMisses      uint64 `json:"plan_misses"`
	ScanHits        uint64 `json:"scan_hits"`
	ScanMisses      uint64 `json:"scan_misses"`
	ScanInvalidated uint64 `json:"scan_invalidated"`
}

// SQLCacheStats snapshots the SQL plan and scan cache counters.
func (c *Client) SQLCacheStats() SQLCacheStats {
	p := c.sqlPlans.Load().Stats()
	s := c.sqlScans.Load().Stats()
	return SQLCacheStats{
		PlanHits:        p.Hits,
		PlanMisses:      p.Misses,
		ScanHits:        s.Hits,
		ScanMisses:      s.Misses,
		ScanInvalidated: s.Invalidated,
	}
}

// SetSQLCacheCapacity replaces the SQL plan and scan caches with fresh
// ones bounded to nPlans and nScans entries; <= 0 disables the respective
// cache (benchmarks disable both to measure the planner and scan paths).
func (c *Client) SetSQLCacheCapacity(nPlans, nScans int) {
	c.sqlPlans.Store(rescache.New(nPlans))
	c.sqlScans.Store(rescache.New(nScans))
}
