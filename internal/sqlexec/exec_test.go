package sqlexec

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// demoCatalog builds a catalog with a tsdb table plus small plain tables.
func demoCatalog(t *testing.T) *MemCatalog {
	t.Helper()
	db := tsdb.New()
	for i := 0; i < 6; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		db.Put("pipeline_runtime", ts.Tags{"pipeline_name": "p1"}, at, float64(10+i))
		db.Put("pipeline_runtime", ts.Tags{"pipeline_name": "p2"}, at, float64(20+2*i))
		db.Put("pipeline_input_rate", ts.Tags{"pipeline_name": "p1"}, at, float64(100+i))
		db.Put("disk", ts.Tags{"host": "datanode-1", "type": "read"}, at, float64(i))
	}
	cat := NewMemCatalog()
	if err := cat.RegisterTSDB("tsdb", db); err != nil {
		t.Fatal(err)
	}

	hosts := NewRelation("hostname", "os_version")
	_ = hosts.AddRow(Str("datanode-1"), Str("v2"))
	_ = hosts.AddRow(Str("web-1"), Str("v1"))
	cat.Register("hosts", hosts)

	procs := NewRelation("timestamp", "hostname", "service_name", "stime", "utime")
	for i := 0; i < 4; i++ {
		at := TimeVal(t0.Add(time.Duration(i) * time.Minute))
		_ = procs.AddRow(at, Str("web-1"), Str("nginx"), Number(float64(i)), Number(1))
		_ = procs.AddRow(at, Str("db-1"), Str("pg"), Number(float64(2*i)), Number(2))
	}
	cat.Register("processes", procs)
	return cat
}

// runSQL parses and executes q with no Explainer.
func runSQL(q string, cat Catalog) (*Relation, error) {
	return RunStatement(context.Background(), q, cat, nil)
}

func mustRun(t *testing.T, cat Catalog, q string) *Relation {
	t.Helper()
	rel, err := runSQL(q, cat)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return rel
}

func TestListing1TargetQuery(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT timestamp, tag['pipeline_name'] AS pipeline_name, AVG(value) AS runtime_sec
		FROM tsdb
		WHERE metric_name = 'pipeline_runtime'
		GROUP BY timestamp, tag['pipeline_name']
		ORDER BY timestamp ASC`)
	if rel.NumRows() != 12 { // 6 timestamps x 2 pipelines
		t.Fatalf("rows %d", rel.NumRows())
	}
	if rel.Cols[1] != "pipeline_name" || rel.Cols[2] != "runtime_sec" {
		t.Fatalf("cols %v", rel.Cols)
	}
	// First timestamp rows: p1 -> 10, p2 -> 20.
	var p1v, p2v float64
	for _, row := range rel.Rows[:2] {
		switch row[1].AsString() {
		case "p1":
			p1v = row[2].F
		case "p2":
			p2v = row[2].F
		}
	}
	if p1v != 10 || p2v != 20 {
		t.Fatalf("p1=%g p2=%g", p1v, p2v)
	}
}

func TestWhereBetweenOnTimestamps(t *testing.T) {
	cat := demoCatalog(t)
	lo := t0.Add(time.Minute).Unix()
	hi := t0.Add(3 * time.Minute).Unix()
	rel := mustRun(t, cat, `
		SELECT timestamp, value FROM tsdb
		WHERE metric_name = 'disk' AND timestamp BETWEEN `+itoa(lo)+` AND `+itoa(hi))
	if rel.NumRows() != 3 {
		t.Fatalf("rows %d", rel.NumRows())
	}
}

func itoa(v int64) string { return Number(float64(v)).AsString() }

func TestSplitConcatHostgroup(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT CONCAT(service_name, '-', SPLIT(hostname, '-')[0]) AS svc, HOSTGROUP(hostname) AS hg
		FROM processes WHERE SPLIT(hostname, '-')[0] IN ('web')`)
	if rel.NumRows() != 4 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if rel.Rows[0][0].AsString() != "nginx-web" || rel.Rows[0][1].AsString() != "web" {
		t.Fatalf("row %v", rel.Rows[0])
	}
}

func TestGroupByAggregates(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT hostname, AVG(stime) AS a, SUM(stime) AS s, MIN(stime) AS mn,
		       MAX(stime) AS mx, COUNT(*) AS c, STDDEV(stime) AS sd
		FROM processes GROUP BY hostname ORDER BY hostname ASC`)
	if rel.NumRows() != 2 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	// db-1: stime 0,2,4,6.
	db := rel.Rows[0]
	if db[0].AsString() != "db-1" || db[1].F != 3 || db[2].F != 12 || db[3].F != 0 || db[4].F != 6 || db[5].F != 4 {
		t.Fatalf("db row %v", db)
	}
	if math.Abs(db[6].F-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("stddev %g", db[6].F)
	}
}

func TestGlobalAggregateWithoutGroupBy(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT COUNT(*) AS n, AVG(stime) FROM processes`)
	if rel.NumRows() != 1 || rel.Rows[0][0].F != 8 {
		t.Fatalf("global agg %v", rel.Rows)
	}
}

func TestPercentileAggregate(t *testing.T) {
	cat := NewMemCatalog()
	r := NewRelation("v")
	for i := 1; i <= 100; i++ {
		_ = r.AddRow(Number(float64(i)))
	}
	cat.Register("t", r)
	rel := mustRun(t, cat, `SELECT PERCENTILE(v, 0.75) FROM t`)
	got := rel.Rows[0][0].F
	if math.Abs(got-75.25) > 1e-9 {
		t.Fatalf("p75 %g", got)
	}
	med := mustRun(t, cat, `SELECT PERCENTILE(v, 0.5) FROM t`).Rows[0][0].F
	if math.Abs(med-50.5) > 1e-9 {
		t.Fatalf("median %g", med)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT value FROM tsdb WHERE metric_name = 'disk' ORDER BY value DESC LIMIT 2`)
	if rel.NumRows() != 2 || rel.Rows[0][0].F != 5 || rel.Rows[1][0].F != 4 {
		t.Fatalf("rows %v", rel.Rows)
	}
}

func TestDistinct(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT DISTINCT metric_name FROM tsdb ORDER BY metric_name ASC`)
	if rel.NumRows() != 3 {
		t.Fatalf("distinct metrics %d", rel.NumRows())
	}
}

func TestUnionAndUnionAll(t *testing.T) {
	cat := demoCatalog(t)
	all := mustRun(t, cat, `SELECT hostname FROM hosts UNION ALL SELECT hostname FROM hosts`)
	if all.NumRows() != 4 {
		t.Fatalf("union all rows %d", all.NumRows())
	}
	dedup := mustRun(t, cat, `SELECT hostname FROM hosts UNION SELECT hostname FROM hosts`)
	if dedup.NumRows() != 2 {
		t.Fatalf("union rows %d", dedup.NumRows())
	}
	if _, err := runSQL(`SELECT hostname, os_version FROM hosts UNION SELECT hostname FROM hosts`, cat); err == nil {
		t.Fatal("mismatched union arity must error")
	}
}

func TestInnerJoinOnHostname(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT p.hostname, h.os_version FROM processes p
		JOIN hosts h ON p.hostname = h.hostname`)
	if rel.NumRows() != 4 { // only web-1 matches
		t.Fatalf("rows %d", rel.NumRows())
	}
	for _, row := range rel.Rows {
		if row[0].AsString() != "web-1" || row[1].AsString() != "v1" {
			t.Fatalf("row %v", row)
		}
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT p.hostname, h.os_version FROM processes p
		LEFT JOIN hosts h ON p.hostname = h.hostname
		ORDER BY p.hostname ASC`)
	if rel.NumRows() != 8 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	// db-1 rows come first and carry NULL os_version.
	if !rel.Rows[0][1].IsNull() {
		t.Fatalf("expected NULL for unmatched: %v", rel.Rows[0])
	}
}

func TestFullOuterJoin(t *testing.T) {
	cat := NewMemCatalog()
	a := NewRelation("k", "va")
	_ = a.AddRow(Number(1), Str("a1"))
	_ = a.AddRow(Number(2), Str("a2"))
	cat.Register("a", a)
	b := NewRelation("k", "vb")
	_ = b.AddRow(Number(2), Str("b2"))
	_ = b.AddRow(Number(3), Str("b3"))
	cat.Register("b", b)
	rel := mustRun(t, cat, `
		SELECT a.k, b.k, va, vb FROM a FULL OUTER JOIN b ON a.k = b.k ORDER BY va ASC`)
	if rel.NumRows() != 3 {
		t.Fatalf("rows %d: %v", rel.NumRows(), rel.Rows)
	}
	matched := 0
	for _, row := range rel.Rows {
		lNull, rNull := row[0].IsNull(), row[1].IsNull()
		if !lNull && !rNull {
			matched++
			if row[0].F != 2 {
				t.Fatalf("matched row %v", row)
			}
		}
	}
	if matched != 1 {
		t.Fatalf("matched rows %d", matched)
	}
}

func TestNestedLoopJoinFallback(t *testing.T) {
	cat := NewMemCatalog()
	a := NewRelation("x")
	_ = a.AddRow(Number(1))
	_ = a.AddRow(Number(5))
	cat.Register("a", a)
	b := NewRelation("y")
	_ = b.AddRow(Number(3))
	_ = b.AddRow(Number(4))
	cat.Register("b", b)
	// Inequality join cannot use the hash path.
	rel := mustRun(t, cat, `SELECT x, y FROM a JOIN b ON x < y`)
	if rel.NumRows() != 2 {
		t.Fatalf("rows %d", rel.NumRows())
	}
}

func TestSubqueryWithAlias(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT q.mn FROM (SELECT metric_name AS mn FROM tsdb WHERE metric_name = 'disk') q LIMIT 1`)
	if rel.NumRows() != 1 || rel.Rows[0][0].AsString() != "disk" {
		t.Fatalf("subquery rows %v", rel.Rows)
	}
}

func TestCaseExpr(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `
		SELECT CASE WHEN value > 3 THEN 'big' WHEN value > 1 THEN 'mid' ELSE 'small' END AS bucket
		FROM tsdb WHERE metric_name = 'disk' ORDER BY value ASC`)
	if rel.Rows[0][0].AsString() != "small" || rel.Rows[5][0].AsString() != "big" {
		t.Fatalf("case rows %v", rel.Rows)
	}
}

func TestLagWindow(t *testing.T) {
	cat := NewMemCatalog()
	r := NewRelation("v")
	for i := 1; i <= 4; i++ {
		_ = r.AddRow(Number(float64(i)))
	}
	cat.Register("t", r)
	rel := mustRun(t, cat, `SELECT v, LAG(v) AS prev, LAG(v, 2) AS prev2 FROM t`)
	if !rel.Rows[0][1].IsNull() || rel.Rows[1][1].F != 1 || rel.Rows[3][2].F != 2 {
		t.Fatalf("lag rows %v", rel.Rows)
	}
}

func TestLikeOperator(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT DISTINCT metric_name FROM tsdb WHERE metric_name LIKE 'pipeline%'`)
	if rel.NumRows() != 2 {
		t.Fatalf("like rows %d", rel.NumRows())
	}
	one := mustRun(t, cat, `SELECT DISTINCT metric_name FROM tsdb WHERE metric_name LIKE 'd_sk'`)
	if one.NumRows() != 1 {
		t.Fatalf("underscore rows %d", one.NumRows())
	}
}

func TestIsNullAndCoalesce(t *testing.T) {
	cat := NewMemCatalog()
	r := NewRelation("v")
	_ = r.AddRow(Number(1))
	_ = r.AddRow(Null())
	cat.Register("t", r)
	rel := mustRun(t, cat, `SELECT COALESCE(v, -1) FROM t WHERE v IS NULL`)
	if rel.NumRows() != 1 || rel.Rows[0][0].F != -1 {
		t.Fatalf("rows %v", rel.Rows)
	}
	rel2 := mustRun(t, cat, `SELECT v FROM t WHERE v IS NOT NULL`)
	if rel2.NumRows() != 1 || rel2.Rows[0][0].F != 1 {
		t.Fatalf("rows %v", rel2.Rows)
	}
}

func TestArithmeticAndNullPropagation(t *testing.T) {
	cat := NewMemCatalog()
	r := NewRelation("a", "b")
	_ = r.AddRow(Number(10), Number(3))
	_ = r.AddRow(Number(10), Null())
	_ = r.AddRow(Number(10), Number(0))
	cat.Register("t", r)
	rel := mustRun(t, cat, `SELECT a + b, a - b, a * b, a / b, a % b FROM t`)
	first := rel.Rows[0]
	if first[0].F != 13 || first[1].F != 7 || first[2].F != 30 || math.Abs(first[3].F-10.0/3.0) > 1e-12 || first[4].F != 1 {
		t.Fatalf("arithmetic %v", first)
	}
	for _, v := range rel.Rows[1] {
		if !v.IsNull() {
			t.Fatalf("null propagation %v", rel.Rows[1])
		}
	}
	// Division and modulo by zero yield NULL.
	if !rel.Rows[2][3].IsNull() || !rel.Rows[2][4].IsNull() {
		t.Fatalf("division by zero %v", rel.Rows[2])
	}
}

func TestSelectStar(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT * FROM hosts`)
	if rel.NumCols() != 2 || rel.NumRows() != 2 {
		t.Fatalf("star %v", rel.Cols)
	}
}

func TestStringConcatOperator(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT hostname || ':' || os_version FROM hosts ORDER BY hostname ASC`)
	if rel.Rows[0][0].AsString() != "datanode-1:v2" {
		t.Fatalf("concat %v", rel.Rows[0])
	}
}

func TestErrorCases(t *testing.T) {
	cat := demoCatalog(t)
	bad := []string{
		`SELECT nosuch FROM hosts`,
		`SELECT * FROM nosuchtable`,
		`SELECT NOSUCHFUNC(hostname) FROM hosts`,
		`SELECT hostname FROM hosts GROUP BY hostname ORDER BY AVG(nosuch) ASC`,
		`SELECT * FROM hosts GROUP BY hostname`,
		`SELECT AVG(hostname) FROM hosts`,
		`SELECT hostname[0] FROM hosts`,
	}
	for _, q := range bad {
		if _, err := runSQL(q, cat); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

func TestFloatAndTimeColumnExtraction(t *testing.T) {
	cat := demoCatalog(t)
	rel := mustRun(t, cat, `SELECT timestamp, value FROM tsdb WHERE metric_name = 'disk' ORDER BY timestamp ASC`)
	times, err := rel.TimeColumn("timestamp")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 6 || !times[0].Equal(t0) {
		t.Fatalf("times %v", times[:1])
	}
	vals, err := rel.FloatColumn("value")
	if err != nil {
		t.Fatal(err)
	}
	if vals[5] != 5 {
		t.Fatalf("vals %v", vals)
	}
	if _, err := rel.TimeColumn("nosuch"); err == nil {
		t.Fatal("missing column must error")
	}
	if _, err := rel.FloatColumn("nosuch"); err == nil {
		t.Fatal("missing column must error")
	}
}

func TestCrossProduct(t *testing.T) {
	a := NewRelation("x")
	_ = a.AddRow(Number(1))
	_ = a.AddRow(Number(2))
	b := NewRelation("y")
	_ = b.AddRow(Number(3))
	out := CrossProduct(a, b)
	if out.NumRows() != 2 || out.NumCols() != 2 {
		t.Fatalf("cross product %v", out)
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation("a")
	_ = r.AddRow(Number(1))
	if !strings.Contains(r.String(), "a") {
		t.Fatal("render")
	}
	big := NewRelation("a")
	for i := 0; i < 10; i++ {
		_ = big.AddRow(Number(float64(i)))
	}
	if strings.Contains(big.String(), "\n") {
		t.Fatal("big relations elide rows")
	}
}

func TestAddRowArityError(t *testing.T) {
	r := NewRelation("a", "b")
	if err := r.AddRow(Number(1)); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestValueHelpers(t *testing.T) {
	if Null().Truthy() || !Number(2).Truthy() || Number(0).Truthy() {
		t.Fatal("truthy")
	}
	if !Str("x").Truthy() || Str("").Truthy() {
		t.Fatal("string truthy")
	}
	if v, ok := Str("3.5").AsFloat(); !ok || v != 3.5 {
		t.Fatal("string coercion")
	}
	if _, ok := Str("zebra").AsFloat(); ok {
		t.Fatal("non-numeric string")
	}
	if Compare(Null(), Number(1)) != -1 || Compare(Number(1), Null()) != 1 || Compare(Null(), Null()) != 0 {
		t.Fatal("null ordering")
	}
	tv := TimeVal(t0)
	if Compare(tv, Number(float64(t0.Unix()))) != 0 {
		t.Fatal("time/number comparison")
	}
	if ListVal(Number(1)).AsString() != "[1]" {
		t.Fatal("list render")
	}
	if MapVal(map[string]string{"b": "2", "a": "1"}).AsString() != "{a=1,b=2}" {
		t.Fatal("map render")
	}
	if Equal(Null(), Null()) {
		t.Fatal("NULL = NULL is false in SQL")
	}
}
