package sqlexec

import (
	"context"
	"fmt"
	"sort"

	"explainit/internal/obs"
	sp "explainit/internal/sqlparse"
)

// execEnv carries the execution context through the statement tree: the
// catalog, the cancellation context, and the Explainer that embedded
// EXPLAIN statements dispatch to (nil when the caller has no engine).
type execEnv struct {
	ctx context.Context
	cat Catalog
	ex  Explainer
}

// ExecuteStatement runs a parsed statement of any kind through the query
// planner and the streaming iterator executor. A SELECT executes against
// the catalog (with predicate/time pushdown when cat implements
// PushdownCatalog); an EXPLAIN (top-level or embedded in FROM) is compiled
// and dispatched to ex; an EXPLAIN PLAN returns the inner statement's
// physical plan as JSON. ctx reaches scans and the Explainer so a
// long-running query is cancellable.
func ExecuteStatement(ctx context.Context, stmt sp.Statement, cat Catalog, ex Explainer) (*Relation, error) {
	pctx, end := obs.StartSpan(ctx, "sql_plan")
	plan, err := PlanStatement(stmt, cat)
	end()
	if err != nil {
		return nil, err
	}
	return ExecutePlan(pctx, plan, cat, ex)
}

// ExecuteStatementLegacy runs a statement through the pre-planner
// materialize-everything executor. Kept as the differential-testing and
// benchmark baseline for the planner path; new code should use
// ExecuteStatement.
func ExecuteStatementLegacy(ctx context.Context, stmt sp.Statement, cat Catalog, ex Explainer) (*Relation, error) {
	env := &execEnv{ctx: ctx, cat: cat, ex: ex}
	switch s := stmt.(type) {
	case *sp.SelectStmt:
		return executeSelect(s, env)
	case *sp.ExplainStmt:
		return env.explain(s)
	}
	return nil, fmt.Errorf("sqlexec: unsupported statement %T", stmt)
}

func executeSelect(stmt *sp.SelectStmt, env *execEnv) (*Relation, error) {
	out, err := executeSingle(stmt, env)
	if err != nil {
		return nil, err
	}
	for u := stmt.Union; u != nil; u = u.Union {
		branch, err := executeSingle(u, env)
		if err != nil {
			return nil, err
		}
		if branch.NumCols() != out.NumCols() {
			return nil, fmt.Errorf("sqlexec: UNION arms have %d vs %d columns", out.NumCols(), branch.NumCols())
		}
		out.Rows = append(out.Rows, branch.Rows...)
		if !stmt.UnionAll {
			out = dedupRows(out)
		}
		// Only the first statement's ORDER BY/LIMIT apply to the union in
		// this dialect; nested unions chain through u.Union.
	}
	return out, nil
}

// RunStatement parses and executes a SQL string of either statement kind,
// dispatching EXPLAIN clauses to ex.
func RunStatement(ctx context.Context, query string, cat Catalog, ex Explainer) (*Relation, error) {
	stmt, err := sp.ParseStatement(query)
	if err != nil {
		return nil, err
	}
	return ExecuteStatement(ctx, stmt, cat, ex)
}

func executeSingle(stmt *sp.SelectStmt, env *execEnv) (*Relation, error) {
	// FROM.
	var input *Relation
	if stmt.From != nil {
		rel, err := executeFrom(stmt.From, env)
		if err != nil {
			return nil, err
		}
		input = rel
	} else {
		// FROM-less SELECT evaluates items once against an empty row.
		input = &Relation{Rows: [][]Value{{}}}
	}

	// WHERE.
	if stmt.Where != nil {
		rows, err := filterRows(compileExpr(stmt.Where, input), input.Rows)
		if err != nil {
			return nil, err
		}
		input = &Relation{Cols: input.Cols, Quals: input.Quals, Rows: rows}
	}

	// GROUP BY / projection. src[i] is the input row that produced output
	// row i (the group's first row under GROUP BY), so ORDER BY can fall
	// back to input columns that were not projected.
	var out *Relation
	var src [][]Value
	var err error
	if isGrouped(stmt) {
		g := compileGrouping(stmt, input, nil)
		out = NewRelation(g.cols...)
		out.Rows, src, err = g.run(input.Rows)
	} else {
		cols, items := compileProjection(stmt.Items, input)
		out = NewRelation(cols...)
		out.Rows, src, err = projectRows(items, len(cols), input.Rows)
	}
	if err != nil {
		return nil, err
	}

	if stmt.Distinct {
		out, src = dedupRowsWithSrc(out, src)
	}

	// ORDER BY: aliases and projected columns take precedence; otherwise a
	// key is evaluated against the originating input row.
	if len(stmt.OrderBy) > 0 {
		keys := compileOrder(stmt.OrderBy, schemaOnly(out), input)
		if err := orderRows(out.Rows, src, keys); err != nil {
			return nil, err
		}
	}
	if stmt.Limit >= 0 && len(out.Rows) > stmt.Limit {
		out.Rows = out.Rows[:stmt.Limit]
	}
	return out, nil
}

// isGrouped reports whether a SELECT aggregates: a GROUP BY clause or an
// aggregate call in its items.
func isGrouped(stmt *sp.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	for _, item := range stmt.Items {
		if containsAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// filterRows keeps the rows pred holds for, evaluating it positionally
// over the whole input so window functions see every row.
func filterRows(pred exprFn, rows [][]Value) ([][]Value, error) {
	var kept [][]Value
	env := &evalEnv{rows: rows}
	for i, row := range rows {
		env.row, env.idx = row, i
		v, err := pred(env)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// outputName picks the column name for a projection item.
func outputName(item sp.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*sp.Ident); ok {
		return id.Name()
	}
	return item.Expr.String()
}

// projItem is one compiled SELECT item; a star item copies the input row.
type projItem struct {
	fn   exprFn
	star bool
}

// compileProjection compiles an aggregate-free SELECT list against the
// input schema and returns its output columns, stars expanded.
func compileProjection(items []sp.SelectItem, in *Relation) ([]string, []projItem) {
	var cols []string
	var out []projItem
	for _, item := range items {
		if _, ok := item.Expr.(*sp.Star); ok {
			cols = append(cols, in.Cols...)
			out = append(out, projItem{star: true})
			continue
		}
		cols = append(cols, outputName(item))
		out = append(out, projItem{fn: compileExpr(item.Expr, in)})
	}
	return cols, out
}

// project evaluates the items over one input row into a width-wide row.
func project(items []projItem, width int, env *evalEnv) ([]Value, error) {
	out := make([]Value, 0, width)
	for _, p := range items {
		if p.star {
			out = append(out, env.row...)
			continue
		}
		v, err := p.fn(env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// projectRows projects a materialized input positionally (window
// functions see every row) and returns the output rows with their source
// rows.
func projectRows(items []projItem, width int, rows [][]Value) (out, src [][]Value, err error) {
	out = make([][]Value, 0, len(rows))
	env := &evalEnv{rows: rows}
	for i, row := range rows {
		env.row, env.idx = row, i
		r, err := project(items, width, env)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
	}
	if rows == nil {
		rows = [][]Value{} // only a DISTINCT that kept nothing leaves ORDER BY without sources
	}
	return out, rows, nil
}

// grouping is a compiled GROUP BY / aggregate SELECT list. The items are
// compiled with the aggregate call sites of slots bound to env.aggs (a
// streaming aggregation), falling back to evaluation over env.group (a
// buffered one).
type grouping struct {
	cols  []string
	width int  // input columns
	star  bool // SELECT * with GROUP BY: an error raised once the input ran
	keys  []exprFn
	items []exprFn
	slots []*aggSlot
}

// compileGrouping compiles a grouped SELECT against the input schema;
// slotCalls are the aggregate call sites a streaming aggregation
// accumulates (nil for buffered grouping).
func compileGrouping(stmt *sp.SelectStmt, in *Relation, slotCalls []*sp.FuncCall) *grouping {
	c := &compiler{schema: in}
	g := &grouping{cols: make([]string, len(stmt.Items)), width: in.NumCols(), keys: c.exprs(stmt.GroupBy)}
	if len(slotCalls) > 0 {
		c.slots = make(map[*sp.FuncCall]int, len(slotCalls))
		for i, call := range slotCalls {
			c.slots[call] = i
			g.slots = append(g.slots, c.aggSlot(call))
		}
	}
	for i, item := range stmt.Items {
		if _, ok := item.Expr.(*sp.Star); ok {
			g.star = true
		}
		g.cols[i] = outputName(item)
		g.items = append(g.items, c.expr(item.Expr))
	}
	return g
}

var errGroupStar = fmt.Errorf("sqlexec: SELECT * is not allowed with GROUP BY")

// row evaluates the items for one group.
func (g *grouping) row(env *evalEnv) ([]Value, error) {
	out := make([]Value, len(g.items))
	for i, item := range g.items {
		v, err := item(env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// run groups a materialized input: rows are bucketed by key (keys see the
// whole input positionally), then every group's items are evaluated over
// its rows. It returns one output row per group, in first-seen order, with
// the group's first row as its source.
func (g *grouping) run(rows [][]Value) (out, src [][]Value, err error) {
	if g.star {
		return nil, nil, errGroupStar
	}
	type group struct {
		first []Value
		rows  [][]Value
	}
	groups := make(map[string]*group)
	var order []*group
	var h rowHasher
	env := &evalEnv{rows: rows}
	for i, row := range rows {
		env.row, env.idx = row, i
		h.buf = h.buf[:0]
		for ki, key := range g.keys {
			v, err := key(env)
			if err != nil {
				return nil, nil, err
			}
			if ki > 0 {
				h.buf = append(h.buf, '\x1f')
			}
			h.buf = appendValueKey(h.buf, v)
		}
		grp, ok := groups[string(h.buf)]
		if !ok {
			grp = &group{first: row}
			groups[string(h.buf)] = grp
			order = append(order, grp)
		}
		grp.rows = append(grp.rows, row)
	}
	// Aggregates without GROUP BY over an empty input evaluate once against
	// a NULL row and no group — where aggregates report that they are
	// outside a GROUP BY context.
	if len(g.keys) == 0 && len(order) == 0 {
		order = append(order, &group{})
	}
	out = make([][]Value, 0, len(order))
	src = make([][]Value, 0, len(order))
	for _, grp := range order {
		first := grp.first
		if first == nil {
			first = nullRow(g.width)
		}
		r, err := g.row(&evalEnv{row: first, idx: -1, group: grp.rows})
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
		src = append(src, first)
	}
	return out, src, nil
}

func dedupRows(rel *Relation) *Relation {
	seen := make(map[string]struct{}, len(rel.Rows))
	out := &Relation{Cols: rel.Cols, Quals: rel.Quals}
	var h rowHasher
	for _, row := range rel.Rows {
		key := h.rowKey(row)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// dedupRowsWithSrc removes duplicate output rows, keeping src aligned.
func dedupRowsWithSrc(rel *Relation, src [][]Value) (*Relation, [][]Value) {
	seen := make(map[string]struct{}, len(rel.Rows))
	out := &Relation{Cols: rel.Cols, Quals: rel.Quals}
	var outSrc [][]Value
	var h rowHasher
	for i, row := range rel.Rows {
		key := h.rowKey(row)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out.Rows = append(out.Rows, row)
		if src != nil {
			outSrc = append(outSrc, src[i])
		}
	}
	return out, outSrc
}

// orderKey is one compiled ORDER BY key. A key whose columns all project
// resolves against the output row; otherwise against the originating input
// row (standard SQL lets ORDER BY see input columns that were not
// selected), when the input has all its columns.
type orderKey struct {
	expr      sp.Expr
	desc      bool
	useOutput bool
	inputOK   bool
	fn        exprFn // compiled against the output schema, else the input's
}

func compileOrder(items []sp.OrderItem, out, in *Relation) []orderKey {
	keys := make([]orderKey, len(items))
	for j, k := range items {
		key := orderKey{expr: k.Expr, desc: k.Desc, useOutput: refsOnly(k.Expr, out)}
		switch {
		case key.useOutput:
			key.fn = compileExpr(k.Expr, out)
		case refsOnly(k.Expr, in):
			key.inputOK = true
			key.fn = compileExpr(k.Expr, in)
		}
		keys[j] = key
	}
	return keys
}

func (k *orderKey) notFound() error {
	return fmt.Errorf("sqlexec: ORDER BY key %q not found in output or input columns", k.expr)
}

// orderRows sorts rows stably in place. Output-resolved keys see the
// unsorted output positionally; input-resolved keys see src[i]. With src
// nil (DISTINCT removed every row) an input-resolved key is an error.
func orderRows(rows, src [][]Value, keys []orderKey) error {
	for j := range keys {
		if !keys[j].useOutput && (src == nil || !keys[j].inputOK) {
			return keys[j].notFound()
		}
	}
	type keyed struct {
		row  []Value
		keys []Value
	}
	sorted := make([]keyed, len(rows))
	out := &evalEnv{rows: rows}
	in := &evalEnv{idx: -1}
	for i, row := range rows {
		out.row, out.idx = row, i
		ks := make([]Value, len(keys))
		for j, k := range keys {
			env := out
			if !k.useOutput {
				in.row = src[i]
				env = in
			}
			v, err := k.fn(env)
			if err != nil {
				return err
			}
			ks[j] = v
		}
		sorted[i] = keyed{row: row, keys: ks}
	}
	sort.SliceStable(sorted, func(a, b int) bool {
		return compareKeys(keys, sorted[a].keys, sorted[b].keys) < 0
	})
	for i, kr := range sorted {
		rows[i] = kr.row
	}
	return nil
}

// compareKeys orders two evaluated key vectors by the keys' directions.
func compareKeys(keys []orderKey, a, b []Value) int {
	for j, k := range keys {
		c := Compare(a[j], b[j])
		if c == 0 {
			continue
		}
		if k.desc {
			return -c
		}
		return c
	}
	return 0
}
