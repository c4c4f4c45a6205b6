package sqlexec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	sp "explainit/internal/sqlparse"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// TestPlannerLegacyDifferential runs a broad query grid through both the
// planner/iterator path and the legacy materialize-everything executor and
// requires bitwise-identical relations. The grid covers every operator:
// scans, filters, projections (streaming and window-buffered), grouped
// aggregation (streaming and fallback), DISTINCT, ORDER BY with and
// without LIMIT, every join type on both the classic and reverse build
// sides, unions, subqueries, and FROM-less SELECTs.
func TestPlannerLegacyDifferential(t *testing.T) {
	cat := demoCatalog(t)
	queries := []string{
		`SELECT 1 + 2 AS x, 'a' || 'b' AS y`,
		`SELECT * FROM hosts`,
		`SELECT timestamp, value FROM tsdb WHERE metric_name = 'pipeline_runtime' ORDER BY timestamp, value`,
		`SELECT tag['pipeline_name'] AS p, AVG(value) AS v FROM tsdb WHERE metric_name = 'pipeline_runtime' GROUP BY tag['pipeline_name'] ORDER BY p`,
		`SELECT COUNT(*) AS n, SUM(value) AS s, MIN(value) AS lo, MAX(value) AS hi, STDDEV(value) AS sd FROM tsdb`,
		`SELECT PERCENTILE(value, 0.5) AS med FROM tsdb WHERE metric_name = 'disk'`,
		`SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'absent'`,
		`SELECT DISTINCT metric_name FROM tsdb ORDER BY metric_name`,
		`SELECT DISTINCT metric_name, tag FROM tsdb ORDER BY metric_name LIMIT 3`,
		`SELECT h.hostname, p.service_name FROM hosts h JOIN processes p ON h.hostname = p.hostname ORDER BY p.timestamp`,
		`SELECT h.hostname, p.service_name FROM hosts h LEFT JOIN processes p ON h.hostname = p.hostname`,
		`SELECT h.hostname, p.service_name FROM processes p FULL OUTER JOIN hosts h ON h.hostname = p.hostname`,
		`SELECT h.hostname, p.service_name FROM hosts h JOIN processes p ON h.hostname = p.hostname AND h.os_version = 'v1'`,
		`SELECT a.hostname FROM hosts a JOIN hosts b ON a.hostname = b.hostname`,
		`SELECT hostname FROM hosts UNION SELECT hostname FROM processes`,
		`SELECT hostname FROM hosts UNION ALL SELECT hostname FROM hosts`,
		`SELECT x.p, x.v FROM (SELECT tag['pipeline_name'] AS p, AVG(value) AS v FROM tsdb WHERE metric_name = 'pipeline_runtime' GROUP BY tag['pipeline_name']) x WHERE x.v > 11 ORDER BY x.v DESC`,
		`SELECT value, LAG(value, 1) AS prev, DELTA(value) AS d FROM tsdb WHERE metric_name = 'disk' ORDER BY timestamp`,
		`SELECT MOVAVG(value, 3) AS ma FROM tsdb WHERE metric_name = 'pipeline_input_rate'`,
		`SELECT CASE WHEN value > 12 THEN 'hi' ELSE 'lo' END AS band, COUNT(*) AS n FROM tsdb WHERE metric_name = 'pipeline_runtime' GROUP BY CASE WHEN value > 12 THEN 'hi' ELSE 'lo' END ORDER BY band`,
		`SELECT stime FROM processes ORDER BY utime DESC, stime LIMIT 3`,
		`SELECT service_name FROM processes ORDER BY stime LIMIT 0`,
		`SELECT hostname FROM processes WHERE stime BETWEEN 1 AND 4 ORDER BY stime`,
		`SELECT COALESCE(NULL, value) AS v FROM tsdb WHERE metric_name = 'disk' AND value >= 2 ORDER BY v`,
		`SELECT metric_name, COUNT(value) AS n FROM tsdb GROUP BY metric_name ORDER BY n DESC, metric_name LIMIT 2`,
		// GLOB and LIKE: literal patterns (compiled once per plan) with
		// leading, middle, trailing and doubled stars; column-valued and
		// NULL patterns (compiled per row); patterns inside a projection,
		// a CASE, GROUP BY keys and a join condition.
		`SELECT timestamp, value FROM tsdb WHERE metric_name GLOB '*_rate' ORDER BY timestamp, value`,
		`SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb WHERE metric_name GLOB 'pipeline*time'`,
		`SELECT tag, MAX(value) AS hi FROM tsdb WHERE metric_name GLOB 'pipeline_*' GROUP BY tag ORDER BY hi DESC LIMIT 3`,
		`SELECT DISTINCT metric_name FROM tsdb WHERE metric_name GLOB 'pipe**rate' ORDER BY metric_name`,
		`SELECT value FROM tsdb WHERE tag['host'] GLOB 'datanode-*' AND tag['type'] GLOB '*ea*' ORDER BY value`,
		`SELECT COUNT(*) AS n FROM tsdb WHERE metric_name GLOB metric_name`,
		`SELECT metric_name GLOB NULL AS g, metric_name LIKE NULL AS l FROM tsdb ORDER BY timestamp LIMIT 2`,
		`SELECT DISTINCT metric_name FROM tsdb WHERE metric_name NOT LIKE 'pipeline%' ORDER BY metric_name`,
		`SELECT DISTINCT metric_name FROM tsdb WHERE metric_name LIKE 'd_sk' OR metric_name LIKE '%_rate' ORDER BY metric_name`,
		`SELECT metric_name GLOB '*rate' AS r, COUNT(*) AS n FROM tsdb GROUP BY metric_name GLOB '*rate' ORDER BY r`,
		`SELECT CASE WHEN metric_name GLOB 'pipeline_*' THEN 'pipe' ELSE 'other' END AS k, SUM(value) AS s FROM tsdb GROUP BY CASE WHEN metric_name GLOB 'pipeline_*' THEN 'pipe' ELSE 'other' END ORDER BY k`,
		`SELECT h.hostname, p.service_name FROM hosts h JOIN processes p ON h.hostname = p.hostname AND p.service_name GLOB 'ng*'`,
		`SELECT h.hostname, p.stime FROM hosts h LEFT JOIN processes p ON p.hostname GLOB h.hostname ORDER BY p.stime`,
		`SELECT hostname FROM (SELECT hostname FROM hosts WHERE hostname = 'none') x WHERE hostname GLOB '` + "\xff" + `*'`,
	}
	for _, q := range queries {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		want, werr := ExecuteStatementLegacy(context.Background(), stmt, cat, nil)
		got, gerr := ExecuteStatement(context.Background(), stmt, cat, nil)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%q: error divergence: legacy=%v planner=%v", q, werr, gerr)
			continue
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Errorf("%q: error text divergence: legacy=%v planner=%v", q, werr, gerr)
			}
			continue
		}
		assertSameRelation(t, q, want, got)
	}
}

// TestPlannerLegacyErrorParity pins that statement errors surface
// identically through both paths.
func TestPlannerLegacyErrorParity(t *testing.T) {
	cat := demoCatalog(t)
	queries := []string{
		`SELECT nope FROM hosts`,
		`SELECT * FROM nosuch`,
		`SELECT hostname FROM hosts UNION SELECT hostname, os_version FROM hosts`,
		`SELECT AVG(hostname) AS a FROM hosts`,
		`SELECT *, COUNT(*) AS n FROM hosts GROUP BY hostname`,
		`SELECT AVG() AS a FROM hosts`,
		`SELECT hostname FROM hosts WHERE hostname GLOB 'web` + "\xff" + `*'`,
		`SELECT hostname GLOB os_version || '` + "\xfe" + `' AS g FROM hosts`,
	}
	for _, q := range queries {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, werr := ExecuteStatementLegacy(context.Background(), stmt, cat, nil)
		_, gerr := ExecuteStatement(context.Background(), stmt, cat, nil)
		if werr == nil || gerr == nil {
			t.Errorf("%q: expected errors from both paths, legacy=%v planner=%v", q, werr, gerr)
			continue
		}
		if werr.Error() != gerr.Error() {
			t.Errorf("%q: error text divergence:\nlegacy:  %v\nplanner: %v", q, werr, gerr)
		}
	}
}

// TestInvalidGlobErrorText pins the error an invalid-UTF-8 GLOB pattern
// raises to the text of the regexp translation it replaced, through both
// executors and through a pushdown catalog (an invalid pattern is never
// pushed, so the store cannot reject the scan first), and pins that over
// an empty input it raises nothing.
func TestInvalidGlobErrorText(t *testing.T) {
	pattern := "cpu\xff*"
	_, want := globValueMatch("cpu", pattern)
	if want == nil {
		t.Fatal("oracle accepted an invalid-UTF-8 pattern")
	}
	cat := planCatalog(t)
	for _, q := range []string{
		`SELECT value FROM tsdb WHERE metric_name GLOB '` + pattern + `'`,
		`SELECT value FROM tsdb WHERE tag['host'] GLOB '` + pattern + `'`,
	} {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := ExecuteStatementLegacy(context.Background(), stmt, cat, nil)
		_, gerr := ExecuteStatement(context.Background(), stmt, cat, nil)
		if werr == nil || gerr == nil || werr.Error() != want.Error() || gerr.Error() != want.Error() {
			t.Errorf("%q:\nlegacy:  %v\nplanner: %v\nwant:    %v", q, werr, gerr, want)
		}
	}
	empty := `SELECT value FROM tsdb WHERE metric_name = 'absent' AND metric_name GLOB '` + pattern + `'`
	stmt, err := sp.ParseStatement(empty)
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := ExecuteStatement(context.Background(), stmt, cat, nil); err != nil || rel.NumRows() != 0 {
		t.Errorf("%q over an empty scan: rows=%v err=%v, want no rows and no error", empty, rel, err)
	}
}

// TestExecuteCancellation pins that a cancelled context stops the
// iterator pipeline mid-scan.
func TestExecuteCancellation(t *testing.T) {
	cat := demoCatalog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stmt, err := sp.ParseStatement(`SELECT COUNT(*) AS n FROM tsdb`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteStatement(ctx, stmt, cat, nil); err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestSharedScanExecution pins statement-level CSE: a UNION ALL of two
// identical pushed scans materializes the relation once.
func TestSharedScanExecution(t *testing.T) {
	cat := planCatalog(t)
	before := metScanShared.Value()
	stmt, err := sp.ParseStatement(`SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' UNION ALL SELECT value FROM tsdb WHERE metric_name = 'cpu_usage'`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ExecuteStatement(context.Background(), stmt, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 100 {
		t.Fatalf("expected 100 rows, got %d", len(rel.Rows))
	}
	if got := metScanShared.Value() - before; got != 1 {
		t.Errorf("expected exactly 1 shared-scan hit, got %d", got)
	}
}

// TestExplainPlanStatement pins the EXPLAIN PLAN surface: one row, one
// "plan" column, valid JSON containing the operator tree.
func TestExplainPlanStatement(t *testing.T) {
	cat := planCatalog(t)
	stmt, err := sp.ParseStatement(`EXPLAIN PLAN SELECT value FROM tsdb WHERE metric_name = 'cpu_usage' LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ExecuteStatement(context.Background(), stmt, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Cols) != 1 || rel.Cols[0] != "plan" {
		t.Fatalf("unexpected schema %v", rel.Cols)
	}
	if len(rel.Rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rel.Rows))
	}
	text := rel.Rows[0][0].AsString()
	for _, want := range []string{`"op": "project"`, `"op": "scan"`, `"metric": "cpu_usage"`} {
		if !strings.Contains(text, want) {
			t.Errorf("plan JSON missing %s:\n%s", want, text)
		}
	}
}

// TestDedupAllocations is the hash-dedup regression test: deduplicating
// n rows must not allocate per-value key strings (the old implementation
// built a []string plus a joined string per row).
func TestDedupAllocations(t *testing.T) {
	rel := NewRelation("a", "b")
	for i := 0; i < 512; i++ {
		_ = rel.AddRow(Number(float64(i%32)), Str("x"))
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = dedupRows(rel)
	})
	// Budget: the seen map + output relation + one key copy per distinct
	// row. 512 rows at 32 distinct keys stayed under ~80 allocations in
	// the hasher implementation; the legacy per-row []string + Join burned
	// over 1500.
	if allocs > 200 {
		t.Errorf("dedupRows allocates %.0f times per run; hash-based dedup regressed", allocs)
	}
}

// sameRelationBits reports whether two relations hold the same columns and
// bitwise-identical values.
func sameRelationBits(a, b *Relation) bool {
	if strings.Join(a.Cols, ",") != strings.Join(b.Cols, ",") || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, v := range a.Rows[i] {
			if !sameResult(v, nil, b.Rows[i][j], nil) {
				return false
			}
		}
	}
	return true
}

// TestCachedPlanConcurrent runs each of a few cached plans — a
// dashboard-shaped GLOB + GROUP BY + ORDER BY/LIMIT, a window-buffered
// projection and a glob join — from 8 goroutines at once. Every result
// must be bitwise equal to a serial run: the compiled closures a plan
// shares between executions hold no per-execution state.
func TestCachedPlanConcurrent(t *testing.T) {
	cat := planCatalog(t)
	queries := []string{
		`SELECT tag, MAX(value) AS hi, COUNT(*) AS n, AVG(value) AS v FROM tsdb WHERE metric_name GLOB '*_usage' AND tag['host'] GLOB 'web-*' GROUP BY tag ORDER BY hi DESC, tag LIMIT 3`,
		`SELECT value, DELTA(value) AS d, value LIKE '%5' AS f FROM tsdb WHERE metric_name GLOB 'cpu*' ORDER BY timestamp, tag`,
		`SELECT h.os, COUNT(*) AS n FROM tsdb t JOIN hosts h ON h.hostname GLOB '*' || t.tag['host'] GROUP BY h.os`,
	}
	for _, q := range queries {
		stmt, err := sp.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		plan, err := PlanStatement(stmt, cat)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		want, err := ExecutePlan(context.Background(), plan, cat, nil)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("%q selects nothing; the test would prove nothing", q)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got, err := ExecutePlan(context.Background(), plan, cat, nil)
					if err != nil {
						errs <- err
						return
					}
					if !sameRelationBits(want, got) {
						errs <- fmt.Errorf("result diverged from the serial run:\n%s\nvs\n%s", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%q: %v", q, err)
		}
	}
}

// TestResidualFilterAllocBudget pins that the residual GLOB filter and a
// streaming COUNT(*) allocate nothing per row: on a warm relation, ten
// times the rows may cost at most a few more allocations (the plan's
// operators and spans allocate per execution, not per row).
func TestResidualFilterAllocBudget(t *testing.T) {
	allocs := func(rows int) float64 {
		db := tsdb.New()
		for i := 0; i < rows; i++ {
			name := "x_metric"
			if i%2 == 1 {
				name = "y_metric"
			}
			db.Put(name, ts.Tags{"host": fmt.Sprintf("h%d", i%4)}, t0.Add(time.Duration(i)*time.Second), float64(i))
		}
		cat := NewMemCatalog()
		if err := cat.RegisterTSDB("tsdb", db); err != nil {
			t.Fatal(err)
		}
		stmt, err := sp.ParseStatement(`SELECT COUNT(*) AS n FROM tsdb WHERE metric_name GLOB 'x*'`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanStatement(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			rel, err := ExecutePlan(context.Background(), plan, cat, nil)
			if err != nil || rel.Rows[0][0].F != float64(rows/2) {
				t.Fatalf("COUNT(*) = %v, %v; want %d", rel, err, rows/2)
			}
		}
		run()
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(1000), allocs(10000)
	t.Logf("%.0f allocations at 1000 rows, %.0f at 10000", small, large)
	if large-small > 4 {
		t.Errorf("residual filter allocates per row: %.0f allocations at 1000 rows, %.0f at 10000", small, large)
	}
}
