package sqlexec

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	sp "explainit/internal/sqlparse"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// planCatalog builds a pushdown-capable catalog: a tsdb store with five
// web hosts on two metrics plus one rare single-series metric, and a small
// plain hosts table.
func planCatalog(t *testing.T) *TSDBCatalog {
	t.Helper()
	db := tsdb.New()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		host := fmt.Sprintf("web-%d", i%5)
		at := base.Add(time.Duration(i) * time.Minute)
		db.Put("cpu_usage", ts.Tags{"host": host}, at, float64(i))
		db.Put("mem_usage", ts.Tags{"host": host}, at, float64(2*i))
	}
	db.Put("rare_metric", ts.Tags{"host": "web-0"}, base, 1)
	cat := NewTSDBCatalog(db)
	hosts := NewRelation("hostname", "os")
	_ = hosts.AddRow(Str("host=web-1"), Str("v1"))
	cat.Register("hosts", hosts)
	return cat
}

func planJSON(t *testing.T, cat Catalog, q string) string {
	t.Helper()
	stmt, err := sp.ParseStatement(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	plan, err := PlanStatement(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	b, err := plan.JSON()
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	return string(b)
}

// TestPlanPushdownJSON pins the physical plan of a dashboard-style scan:
// the metric equality and the RFC3339 time bounds compile into the scan
// spec (bounds widened by the pushdown pad), and the full predicate stays
// as the residual filter.
func TestPlanPushdownJSON(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu_usage' AND timestamp >= '2026-01-01T00:10:00Z' AND timestamp < '2026-01-01T00:20:00Z'`)
	want := `{
  "op": "project",
  "mode": "streaming",
  "columns": [
    "timestamp",
    "value"
  ],
  "children": [
    {
      "op": "filter",
      "mode": "streaming",
      "predicate": "(((metric_name = 'cpu_usage') AND (timestamp >= '2026-01-01T00:10:00Z')) AND (timestamp < '2026-01-01T00:20:00Z'))",
      "children": [
        {
          "op": "scan",
          "table": "tsdb",
          "pushdown": {
            "metric": "cpu_usage",
            "from": "2026-01-01T00:09:58Z",
            "to": "2026-01-01T00:20:02Z"
          },
          "est_rows": 5
        }
      ]
    }
  ]
}`
	if got != want {
		t.Errorf("plan mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanGlobPushdown pins that metric_name GLOB patterns push as a name
// pattern and LIKE translates % wildcards to globs.
func TestPlanGlobPushdown(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name GLOB 'cpu_*'`)
	if !strings.Contains(got, `"name_pattern": "cpu_*"`) {
		t.Errorf("GLOB did not push a name pattern:\n%s", got)
	}
	got = planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name LIKE 'cpu%'`)
	if !strings.Contains(got, `"name_pattern": "cpu*"`) {
		t.Errorf("LIKE did not translate to a glob pattern:\n%s", got)
	}
}

// TestPlanJoinOrder pins build-side selection: the estimated-smaller input
// of an INNER hash join becomes the build side, while outer joins keep the
// legacy build-right regardless of estimates.
func TestPlanJoinOrder(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT a.value, b.value FROM tsdb a JOIN tsdb b ON a.timestamp = b.timestamp WHERE a.metric_name = 'rare_metric' AND b.metric_name = 'cpu_usage'`)
	if !strings.Contains(got, `"build_side": "left"`) {
		t.Errorf("expected build_side left for smaller left input:\n%s", got)
	}
	got = planJSON(t, cat, `SELECT a.value, b.value FROM tsdb a LEFT JOIN tsdb b ON a.timestamp = b.timestamp WHERE a.metric_name = 'rare_metric' AND b.metric_name = 'cpu_usage'`)
	if !strings.Contains(got, `"build_side": "right"`) {
		t.Errorf("outer join must keep build-right:\n%s", got)
	}
}

// TestPlanCSE pins the shared-scan marking: identical scans in one
// statement carry the same cse key.
func TestPlanCSE(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' UNION ALL SELECT value FROM tsdb WHERE metric_name = 'cpu_usage'`)
	key := `"cse": "scan|tsdb|m=cpu_usage|np=|t=|tp=|from=|to="`
	if strings.Count(got, key) != 2 {
		t.Errorf("expected both scans marked with the same cse key:\n%s", got)
	}
	// Different specs must not share.
	got = planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' UNION ALL SELECT value FROM tsdb WHERE metric_name = 'mem_usage'`)
	if strings.Contains(got, `"cse"`) {
		t.Errorf("distinct scans must not be CSE-marked:\n%s", got)
	}
}

// TestPlanTopK pins that ORDER BY + LIMIT fuses into a streaming topk
// operator, and that a window function in the query degrades the pipeline
// to buffered mode with a plain sort.
func TestPlanTopK(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT tag, AVG(value) AS v FROM tsdb WHERE metric_name = 'cpu_usage' GROUP BY tag ORDER BY v DESC LIMIT 3`)
	if !strings.Contains(got, `"op": "topk"`) {
		t.Errorf("expected a topk operator:\n%s", got)
	}
	if strings.Contains(got, `"op": "limit"`) {
		t.Errorf("limit must be absorbed into topk:\n%s", got)
	}
	got = planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' ORDER BY DELTA(value) LIMIT 2`)
	if strings.Contains(got, `"op": "topk"`) {
		t.Errorf("window functions in ORDER BY must not use topk:\n%s", got)
	}
	if !strings.Contains(got, `"op": "sort"`) {
		t.Errorf("expected sort fallback:\n%s", got)
	}
}

// TestPlanWindowDisablesPushdown pins that a window function in WHERE
// disables pushdown entirely (the function reads pre-filter row indexes,
// so the scan must materialize every row).
func TestPlanWindowDisablesPushdown(t *testing.T) {
	cat := planCatalog(t)
	got := planJSON(t, cat, `SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' AND DELTA(value) > 0`)
	if strings.Contains(got, `"pushdown"`) {
		t.Errorf("window function in WHERE must disable pushdown:\n%s", got)
	}
}

// TestPushdownSupersetExecution verifies the pushdown contract end to end:
// a pushed scan plus residual filter returns exactly what the legacy
// full-materialize path returns, including when the pushed pattern over-
// selects (the residual must re-filter). It covers a COUNT(*) over a glob
// that selects ~1% of the store and a hash join of two pushed scans on
// (timestamp, tag). Every query must select rows. The tag column renders
// as "{host=web-1}", so that is the literal a tag equality compares with.
func TestPushdownSupersetExecution(t *testing.T) {
	cat := planCatalog(t)
	queries := []string{
		`SELECT timestamp, tag, value FROM tsdb WHERE metric_name = 'cpu_usage' ORDER BY timestamp, tag`,
		`SELECT timestamp, value FROM tsdb WHERE metric_name GLOB '*_usage' AND timestamp >= '2026-01-01T00:10:00Z' ORDER BY timestamp, value`,
		`SELECT tag, AVG(value) AS v FROM tsdb WHERE metric_name = 'mem_usage' AND tag = '{host=web-1}' GROUP BY tag`,
		`SELECT value FROM tsdb WHERE metric_name LIKE 'rare%'`,
		`SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb WHERE metric_name GLOB 'rare*'`,
		`SELECT a.tag, a.value, b.value FROM tsdb a JOIN tsdb b ON a.timestamp = b.timestamp AND a.tag = b.tag ` +
			`WHERE a.metric_name = 'cpu_usage' AND b.metric_name = 'mem_usage'`,
	}
	for _, q := range queries {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		want, err := ExecuteStatementLegacy(context.Background(), stmt, cat, nil)
		if err != nil {
			t.Fatalf("legacy %q: %v", q, err)
		}
		got, err := ExecuteStatement(context.Background(), stmt, cat, nil)
		if err != nil {
			t.Fatalf("planner %q: %v", q, err)
		}
		if got.NumRows() == 0 {
			t.Errorf("%q selects no rows: comparing two empty relations proves nothing", q)
		}
		assertSameRelation(t, q, want, got)
	}
}

// TestScanSpecKeyCanonical pins spec-key canonicalization: tag maps render
// sorted, so specs built from differently ordered conjuncts share one key.
func TestScanSpecKeyCanonical(t *testing.T) {
	a := ScanSpec{Metric: "m", Tags: map[string]string{"b": "2", "a": "1"}}
	b := ScanSpec{Metric: "m", Tags: map[string]string{"a": "1", "b": "2"}}
	if a.Key() != b.Key() {
		t.Errorf("spec keys differ: %q vs %q", a.Key(), b.Key())
	}
}

// TestEstimateQueryPostings pins the tsdb cardinality estimator: exact
// metric and tag predicates narrow through the inverted indexes, unknown
// names estimate zero, and no predicate means the full store.
func TestEstimateQueryPostings(t *testing.T) {
	db := tsdb.New()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		db.Put("cpu", ts.Tags{"host": fmt.Sprintf("h%d", i)}, base, 1)
	}
	db.Put("mem", ts.Tags{"host": "h0"}, base, 1)
	if got := db.EstimateQuery(tsdb.Query{Metric: "cpu"}); got != 10 {
		t.Errorf("metric estimate = %d, want 10", got)
	}
	if got := db.EstimateQuery(tsdb.Query{Metric: "cpu", Tags: ts.Tags{"host": "h3"}}); got != 1 {
		t.Errorf("metric+tag estimate = %d, want 1", got)
	}
	if got := db.EstimateQuery(tsdb.Query{Metric: "nope"}); got != 0 {
		t.Errorf("unknown metric estimate = %d, want 0", got)
	}
	if got := db.EstimateQuery(tsdb.Query{}); got != 11 {
		t.Errorf("full estimate = %d, want 11", got)
	}
}

func assertSameRelation(t *testing.T, q string, want, got *Relation) {
	t.Helper()
	if want.String() != got.String() {
		t.Errorf("%q: relation mismatch\nlegacy:\n%s\nplanner:\n%s", q, want.String(), got.String())
	}
}
