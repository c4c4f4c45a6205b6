package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	sp "explainit/internal/sqlparse"
)

// oracleRelation is a small relation with every value kind, NULLs, and
// pattern-hostile strings ('\n', invalid UTF-8, U+FFFD, glob and regexp
// metacharacters).
func oracleRelation() *Relation {
	rel := &Relation{
		Cols:  []string{"a", "b", "s", "m", "t", "name"},
		Quals: []string{"x", "x", "x", "x", "x", "y"},
	}
	names := []string{"disk_read", "disk\nwrite", "\xffnet", "�x", "a*b", "we[i]rd", "", "cpu.load"}
	for i, name := range names {
		b := Number(float64(i) - 2.5)
		if i%3 == 1 {
			b = Null()
		}
		s := Str(fmt.Sprintf("%d", i*7%5))
		if i == 4 {
			s = Str("abc")
		}
		rel.Rows = append(rel.Rows, []Value{
			Number(float64(i * i)),
			b,
			s,
			MapVal(map[string]string{"host": fmt.Sprintf("dn-%d", i%3), "k": name}),
			TimeVal(t0.Add(time.Duration(i) * time.Minute)),
			Str(name),
		})
	}
	return rel
}

// oracleExprs exercises every expression form, including the error paths
// and the short-circuits that decide which errors are reached.
var oracleExprs = []string{
	`1`, `'lit'`, `NULL`, `a`, `x.a`, `y.name`, `z.a`, `nope`,
	`a + b`, `a - b`, `a * 2`, `a / b`, `a % 3`, `a / 0`, `a % 0`, `s + 1`, `name + 1`,
	`-a`, `-b`, `-name`, `NOT a`, `NOT b`, `NOT NOT s`,
	`a || name`, `b || 'x'`, `m || t`,
	`a = 4`, `a <> b`, `a < b`, `a <= s`, `s > name`, `t >= '2026-01-01T00:03:00Z'`, `t < 1767225800`, `b = NULL`,
	`a > 3 AND b > 0`, `b > 0 AND a > 3`, `a > 100 AND nope`, `a < 100 OR nope`, `b OR a`, `b AND nope`, `NULL OR 0`,
	`a BETWEEN 1 AND 20`, `a NOT BETWEEN b AND 20`, `b BETWEEN 0 AND 1`, `a BETWEEN nope AND 1`,
	`a IN (1, 4, 9)`, `a NOT IN (1, nope)`, `b IN (NULL, 0.5)`, `a IN (nope)`, `s IN ('2', 'abc')`,
	`b IS NULL`, `b IS NOT NULL`, `nope IS NULL`,
	`CASE WHEN a > 10 THEN 'big' WHEN b IS NULL THEN 'nul' ELSE name END`,
	`CASE WHEN a > 100 THEN nope END`, `CASE WHEN b THEN 1 END`, `CASE WHEN nope THEN 1 ELSE 2 END`,
	`m['host']`, `m['absent']`, `m[a]`, `SPLIT(name, '_')[0]`, `SPLIT(name, '_')[a]`, `SPLIT(name, '_')['x']`, `a[0]`, `NULL[1]`,
	`CONCAT(a, '-', name, b)`, `SPLIT(name)`, `SPLIT(b, '-')`, `HOSTGROUP(m['host'])`, `HOSTGROUP(b)`, `HOSTGROUP()`,
	`GREATEST(a, b, 3)`, `LEAST(a, 3, s)`, `GREATEST()`, `GREATEST(a, nope)`, `LEAST(b, nope)`,
	`ABS(b)`, `ABS(name)`, `ABS(s)`, `ABS(a, b)`, `SQRT(b)`, `LOG(a)`, `LOG(b)`, `ROUND(b)`, `FLOOR(b)`,
	`COALESCE(b, a)`, `COALESCE(NULL, NULL)`, `COALESCE()`, `COALESCE(a, nope)`, `COALESCE(b, nope)`,
	`LOWER(name)`, `UPPER(m['host'])`, `LENGTH(name)`, `LENGTH(b)`, `LOWER()`, `UPPER(a, b)`, `LENGTH(a, b)`, `NOSUCH(a)`,
	`LAG(a)`, `LAG(a, 2)`, `LAG(a, b)`, `LAG(a, -1)`, `LAG()`, `LAG(LAG(a))`, `LAG(nope, 9)`,
	`MOVAVG(b, 3)`, `MOVAVG(a, 0)`, `MOVAVG(a)`, `MOVAVG(name, 2)`, `MOVAVG(b, 1)`,
	`DELTA(a)`, `DELTA(b)`, `DELTA(name)`, `DELTA(a, 1)`, `DELTA(nope)`,
	`COUNT(*)`, `COUNT(b)`, `COUNT(nope)`, `SUM(a)`, `AVG(b)`, `MIN(b)`, `MAX(s)`, `SUM(name)`, `STDDEV(a)`, `VARIANCE(b)`,
	`PERCENTILE(a, 0.25)`, `PERCENTILE(b, 0.5)`, `PERCENTILE(a)`, `PERCENTILE(a, 2)`, `PERCENTILE(a, nope)`, `SUM()`,
	`SUM(a) / COUNT(*)`, `CASE WHEN COUNT(*) > 3 THEN MAX(a) ELSE MIN(a) END`, `COALESCE(AVG(b), SUM(a))`,
	`SUM(SUM(a))`, `LAG(SUM(a))`, `a + COUNT(*)`,
	`name GLOB 'disk*'`, `name GLOB '*\n*'`, `name GLOB '*'`, `name GLOB ''`, `name GLOB '**'`, `name GLOB 'a*b'`,
	`name GLOB '*[i]*'`, `name GLOB '*.*'`, `name GLOB '�*'`, `name GLOB '` + "\xff" + `*'`, `name GLOB 'x` + "\xfe" + `*y'`,
	`name GLOB name`, `name GLOB s`, `name GLOB NULL`, `b GLOB 'x'`, `nope GLOB '` + "\xff" + `'`, `name GLOB nope`,
	`name LIKE 'disk%'`, `name LIKE '%_%'`, `name LIKE '_'`, `name LIKE '%'`, `name LIKE ''`, `name LIKE 'a*b'`,
	`name LIKE '%.%'`, `name LIKE '` + "\xff" + `%'`, `name LIKE '�%'`, `name LIKE '%\n%'`, `name LIKE '_isk%'`,
	`name NOT LIKE 'disk%'`, `name LIKE name`, `name LIKE NULL`, `b LIKE '%'`, `name LIKE s`,
	"name GLOB '*\n*'", "name GLOB 'disk\n*'", "name LIKE '%\n%'", "name LIKE 'disk_write'",
	`*`,
}

// sameResult reports whether two evaluation results agree bitwise: both
// errors with equal text, or equal kinds, renderings and float bits.
func sameResult(v1 Value, e1 error, v2 Value, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error()
	}
	return v1.Kind == v2.Kind && v1.String() == v2.String() &&
		math.Float64bits(v1.F) == math.Float64bits(v2.F)
}

func parseExpr(t *testing.T, src string) sp.Expr {
	t.Helper()
	stmt, err := sp.Parse("SELECT " + src + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt.Items[0].Expr
}

// TestCompiledMatchesInterpreter evaluates every expression of the grid
// both ways — compiled closures and the row-at-a-time interpreter — in
// every context the executor uses: positional rows (WHERE, projections),
// non-positional rows (join keys, ORDER BY input keys, aggregate
// arguments), a group (buffered aggregation) and substituted aggregate
// slots (streaming aggregation). Values and error texts must agree.
func TestCompiledMatchesInterpreter(t *testing.T) {
	rel := oracleRelation()
	for _, src := range oracleExprs {
		e := parseExpr(t, src)
		fn := compileExpr(e, rel)
		check := func(ctxName string, ctx *evalContext, env *evalEnv, f exprFn) {
			t.Helper()
			want, werr := eval(e, ctx)
			got, gerr := f(env)
			if !sameResult(want, werr, got, gerr) {
				t.Errorf("%s %q: interpreter=(%v, %v) compiled=(%v, %v)", ctxName, src, want, werr, got, gerr)
			}
		}
		for i, row := range rel.Rows {
			check("positional", &evalContext{rel: rel, row: row, rowIdx: i},
				&evalEnv{row: row, rows: rel.Rows, idx: i}, fn)
			check("row", &evalContext{rel: rel, row: row, rowIdx: -1},
				&evalEnv{row: row, idx: -1}, fn)
		}
		check("group", &evalContext{rel: rel, row: rel.Rows[0], rowIdx: -1, groupRows: rel.Rows},
			&evalEnv{row: rel.Rows[0], idx: -1, group: rel.Rows}, fn)
		check("empty-group", &evalContext{rel: rel, row: nullRow(rel.NumCols()), rowIdx: -1},
			&evalEnv{row: nullRow(rel.NumCols()), idx: -1}, fn)

		// Streaming aggregation: eager call sites become slots whose
		// finalized values the items read.
		var calls []*sp.FuncCall
		if !collectEagerAggs(e, true, &calls) || len(calls) == 0 {
			continue
		}
		c := &compiler{schema: rel, slots: map[*sp.FuncCall]int{}}
		aggVals := map[*sp.FuncCall]Value{}
		aggs := make([]Value, len(calls))
		slotsOK := true
		for i, call := range calls {
			c.slots[call] = i
			v, err := eval(call, &evalContext{rel: rel, row: rel.Rows[0], rowIdx: -1, groupRows: rel.Rows})
			if err != nil {
				slotsOK = false // finalize fails first in the executor
				break
			}
			aggVals[call], aggs[i] = v, v
		}
		if slotsOK {
			check("slots", &evalContext{rel: rel, row: rel.Rows[0], rowIdx: -1, aggVals: aggVals},
				&evalEnv{row: rel.Rows[0], idx: -1, aggs: aggs}, c.expr(e))
		}
	}
}

// TestSlotsMatchInterpreter runs each aggregate through the streaming
// accumulate/finalize path and compares it with the interpreter's
// whole-group evaluation.
func TestSlotsMatchInterpreter(t *testing.T) {
	rel := oracleRelation()
	for _, src := range oracleExprs {
		e := parseExpr(t, src)
		call, ok := e.(*sp.FuncCall)
		if !ok || !aggregateFuncs[call.Name] {
			continue
		}
		want, werr := eval(call, &evalContext{rel: rel, row: rel.Rows[0], rowIdx: -1, groupRows: rel.Rows})
		slot := (&compiler{schema: rel}).aggSlot(call)
		var st slotState
		var gerr error
		env := &evalEnv{idx: -1}
		for _, row := range rel.Rows {
			env.row = row
			if gerr = slot.accumulate(&st, env); gerr != nil {
				break
			}
		}
		got := Null()
		if gerr == nil {
			got, gerr = slot.finalize(&st, len(rel.Rows), rel.Rows[0])
		}
		if !sameResult(want, werr, got, gerr) {
			t.Errorf("%q: interpreter=(%v, %v) slot=(%v, %v)", src, want, werr, got, gerr)
		}
	}
}

// TestLikeMatchesRegexpOracle compares the LIKE matcher with the regexp
// translation it replaced, exhaustively over short patterns and subjects
// from an alphabet that reaches every branch: both wildcards, '\n',
// an invalid byte, U+FFFD and regexp metacharacters.
func TestLikeMatchesRegexpOracle(t *testing.T) {
	alpha := []string{"a", "%", "_", "\n", "\xff", "�", "*"}
	var words []string
	var gen func(prefix string, n int)
	gen = func(prefix string, n int) {
		words = append(words, prefix)
		if n == 0 {
			return
		}
		for _, a := range alpha {
			gen(prefix+a, n-1)
		}
	}
	gen("", 3)
	for _, p := range words {
		for _, s := range words {
			if strings.ContainsAny(s, "%_") {
				continue
			}
			want, err := likeMatch(s, p)
			if err != nil {
				t.Fatalf("oracle rejected LIKE %q: %v", p, err)
			}
			if got := likePattern(p).Match(s); got != want {
				t.Fatalf("%q LIKE %q: oracle=%v matcher=%v", s, p, want, got)
			}
		}
	}
}
