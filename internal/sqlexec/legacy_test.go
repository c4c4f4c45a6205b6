package sqlexec

import (
	"context"
	"fmt"

	sp "explainit/internal/sqlparse"
)

// The pre-planner materialize-everything executor, kept only as the
// oracle the differential tests hold the planner/iterator path to. It
// shares every compiled helper with the shipped executor (expressions,
// filterRows, projection, grouping, ordering, compileJoin,
// nestedLoopJoin); what lives only here is the statement walk that
// materializes each FROM, WHERE and join in full, the build-right hash
// join, and the dedup behind UNION and DISTINCT.

// execEnv carries the execution context through the statement tree: the
// catalog, the cancellation context, and the Explainer that embedded
// EXPLAIN statements dispatch to (nil when the caller has no engine).
type execEnv struct {
	ctx context.Context
	cat Catalog
	ex  Explainer
}

// ExecuteStatementLegacy runs a statement through the pre-planner
// materialize-everything executor: the differential-testing oracle for
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

// executeFrom materialises a FROM clause: a table scan, a subquery, an
// embedded EXPLAIN ranking, or a join tree.
func executeFrom(ref sp.TableRef, env *execEnv) (*Relation, error) {
	switch t := ref.(type) {
	case *sp.TableName:
		rel, err := env.cat.Table(t.Name)
		if err != nil {
			return nil, err
		}
		qual := t.Name
		if t.Alias != "" {
			qual = t.Alias
		}
		return rel.WithQualifier(qual), nil
	case *sp.Subquery:
		rel, err := executeSelect(t.Stmt, env)
		if err != nil {
			return nil, err
		}
		if t.Alias != "" {
			return rel.WithQualifier(t.Alias), nil
		}
		return rel, nil
	case *sp.ExplainRef:
		rel, err := env.explain(t.Stmt)
		if err != nil {
			return nil, err
		}
		if t.Alias != "" {
			return rel.WithQualifier(t.Alias), nil
		}
		return rel, nil
	case *sp.Join:
		left, err := executeFrom(t.Left, env)
		if err != nil {
			return nil, err
		}
		right, err := executeFrom(t.Right, env)
		if err != nil {
			return nil, err
		}
		return executeJoin(t, left, right)
	}
	return nil, fmt.Errorf("sqlexec: unsupported FROM clause %T", ref)
}

// executeJoin dispatches to hash join when the ON clause is a pure
// equi-join, otherwise to a nested loop. The hash join builds on the
// right side — the "broadcast join" optimisation of §4.2 (the target and
// conditioning tables are tiny next to the feature-family table).
func executeJoin(j *sp.Join, left, right *Relation) (*Relation, error) {
	op, _ := compileJoin(j, left, right)
	out := joinedRelation(left, right)
	var err error
	if op.lkeys != nil {
		out.Rows, err = hashJoin(op, left.Rows, right.Rows)
	} else {
		out.Rows, err = nestedLoopJoin(op, left.Rows, right.Rows)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func hashJoin(op *joinOp, lrows, rrows [][]Value) ([][]Value, error) {
	jt := op.join.Type
	var h rowHasher
	env := &evalEnv{}
	table := make(map[string][]int)
	for i, row := range rrows {
		key, ok, err := joinKey(&h, op.rkeys, env, row)
		if err != nil {
			return nil, err
		}
		if ok {
			table[key] = append(table[key], i)
		}
	}
	var out [][]Value
	rightMatched := make([]bool, len(rrows))
	for _, lrow := range lrows {
		key, ok, err := joinKey(&h, op.lkeys, env, lrow)
		if err != nil {
			return nil, err
		}
		var matches []int
		if ok {
			matches = table[key]
		}
		if len(matches) == 0 {
			if jt == sp.JoinLeft || jt == sp.JoinFullOuter {
				out = append(out, combineRows(lrow, nullRow(op.right.NumCols())))
			}
			continue
		}
		for _, ri := range matches {
			rightMatched[ri] = true
			out = append(out, combineRows(lrow, rrows[ri]))
		}
	}
	if jt == sp.JoinFullOuter {
		for ri, matched := range rightMatched {
			if !matched {
				out = append(out, combineRows(nullRow(op.left.NumCols()), rrows[ri]))
			}
		}
	}
	return out, nil
}

// explain compiles and dispatches one EXPLAIN statement through the
// environment's Explainer.
func (env *execEnv) explain(stmt *sp.ExplainStmt) (*Relation, error) {
	if env.ex == nil {
		return nil, fmt.Errorf("sqlexec: EXPLAIN requires a ranking engine (no Explainer configured)")
	}
	plan, err := CompileExplain(stmt)
	if err != nil {
		return nil, err
	}
	if plan.Standing() {
		return nil, planErrorf("standing query (EVERY) cannot run as a relational statement; use Watch or POST /api/v1/watch")
	}
	return env.ex.ExplainRelation(env.ctx, plan)
}
