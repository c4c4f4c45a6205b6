package explainit

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the SQL planner surface at the facade: EXPLAIN PLAN through
// Query, the plan cache, and the watermark-validated scan cache that lets
// a dashboard of near-identical statements touch the store once.

func planTestClient(t *testing.T) *Client {
	t.Helper()
	c := New()
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		host := fmt.Sprintf("web-%d", i%6)
		at := base.Add(time.Duration(i) * time.Minute)
		c.Put("cpu_usage", Tags{"host": host}, at, float64(i%17))
		c.Put("mem_usage", Tags{"host": host}, at, float64(i%23))
	}
	return c
}

// TestQueryExplainPlan pins the EXPLAIN PLAN surface through Client.Query:
// one row, one "plan" column, JSON showing the pushed-down scan.
func TestQueryExplainPlan(t *testing.T) {
	c := planTestClient(t)
	res, err := c.Query(context.Background(), `EXPLAIN PLAN SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu_usage' AND tag GLOB 'host=web-*' ORDER BY timestamp LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	text, ok := res.Rows[0][0].(string)
	if !ok {
		t.Fatalf("plan cell is %T", res.Rows[0][0])
	}
	for _, want := range []string{`"op": "topk"`, `"op": "scan"`, `"metric": "cpu_usage"`, `"est_rows"`} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %s:\n%s", want, text)
		}
	}
}

// TestSQLDashboardSharesScans is the dashboard scale test: twenty
// near-identical statements (same WHERE clause, varying LIMIT) must
// materialize the pushed scan once — nineteen scan-cache hits — and a
// repeat of the whole dashboard must serve every plan from the plan cache.
func TestSQLDashboardSharesScans(t *testing.T) {
	c := planTestClient(t)
	dashboard := make([]string, 20)
	for i := range dashboard {
		dashboard[i] = fmt.Sprintf(
			`SELECT tag, AVG(value) AS v FROM tsdb WHERE metric_name = 'cpu_usage' GROUP BY tag ORDER BY v DESC LIMIT %d`, i+1)
	}
	before := c.SQLCacheStats()
	for _, q := range dashboard {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	}
	mid := c.SQLCacheStats()
	if got := mid.ScanMisses - before.ScanMisses; got != 1 {
		t.Errorf("scan materializations = %d, want 1", got)
	}
	if got := mid.ScanHits - before.ScanHits; got != 19 {
		t.Errorf("scan cache hits = %d, want 19", got)
	}
	if got := mid.PlanMisses - before.PlanMisses; got != 20 {
		t.Errorf("plan compilations = %d, want 20 (distinct texts)", got)
	}
	// The same dashboard again: every statement plans from cache and reads
	// the cached scan.
	for _, q := range dashboard {
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("requery %q: %v", q, err)
		}
	}
	after := c.SQLCacheStats()
	if got := after.PlanHits - mid.PlanHits; got != 20 {
		t.Errorf("plan cache hits on repeat = %d, want 20", got)
	}
	if got := after.ScanMisses - mid.ScanMisses; got != 0 {
		t.Errorf("repeat dashboard re-materialized %d scans", got)
	}
}

// TestSQLScanCacheInvalidatesOnIngest pins the watermark contract: an
// ingest between two identical queries must re-materialize the scan and
// surface the new row.
func TestSQLScanCacheInvalidatesOnIngest(t *testing.T) {
	c := planTestClient(t)
	const q = `SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'cpu_usage'`
	res, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n0 := res.Rows[0][0].(float64)
	c.Put("cpu_usage", Tags{"host": "web-0"}, time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC), 1)
	res, err = c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if n1 := res.Rows[0][0].(float64); n1 != n0+1 {
		t.Errorf("count after ingest = %v, want %v (stale scan served?)", n1, n0+1)
	}
}

// TestSQLPlannerMatchesLegacyOnStore runs a differential grid at the
// facade level: pushdown-planned results must be bitwise identical to the
// same statements with SQL caches disabled and a fresh catalog. Every query
// must select rows (the tag column renders as "{host=web-3}").
func TestSQLPlannerMatchesLegacyOnStore(t *testing.T) {
	c := planTestClient(t)
	queries := []string{
		`SELECT timestamp, tag, value FROM tsdb WHERE metric_name = 'mem_usage' AND tag = '{host=web-3}' ORDER BY timestamp`,
		`SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name ORDER BY metric_name`,
		`SELECT DISTINCT tag FROM tsdb WHERE metric_name GLOB 'cpu_*' ORDER BY tag`,
		`SELECT a.timestamp, a.value, b.value FROM tsdb a JOIN tsdb b ON a.timestamp = b.timestamp AND a.tag = b.tag WHERE a.metric_name = 'cpu_usage' AND b.metric_name = 'mem_usage' ORDER BY a.timestamp, a.value LIMIT 25`,
	}
	var withCache []*Result
	for _, q := range queries {
		res, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("query %q selects no rows: comparing two empty results proves nothing", q)
		}
		withCache = append(withCache, res)
	}
	c.SetSQLCacheCapacity(0, 0)
	for i, q := range queries {
		res, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("uncached query %q: %v", q, err)
		}
		if fmt.Sprintf("%v", res) != fmt.Sprintf("%v", withCache[i]) {
			t.Errorf("%q: cached and uncached results differ:\n%v\n%v", q, withCache[i], res)
		}
	}
}
