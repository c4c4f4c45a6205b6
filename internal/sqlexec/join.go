package sqlexec

import (
	"fmt"

	sp "explainit/internal/sqlparse"
)

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

// equiKey is one equality conjunct a.x = b.y usable by the hash join.
type equiKey struct {
	leftExpr, rightExpr sp.Expr
}

// extractEquiKeys decomposes an ON condition into equality conjuncts where
// one side references only left columns and the other only right columns.
// It returns nil when any conjunct is not such an equality — the executor
// then falls back to a nested-loop join.
func extractEquiKeys(on sp.Expr, left, right *Relation) []equiKey {
	var keys []equiKey
	var walk func(e sp.Expr) bool
	walk = func(e sp.Expr) bool {
		if and, ok := e.(*sp.BinaryExpr); ok && and.Op == "AND" {
			return walk(and.L) && walk(and.R)
		}
		eq, ok := e.(*sp.BinaryExpr)
		if !ok || eq.Op != "=" {
			return false
		}
		switch {
		case refsOnly(eq.L, left) && refsOnly(eq.R, right):
			keys = append(keys, equiKey{leftExpr: eq.L, rightExpr: eq.R})
		case refsOnly(eq.L, right) && refsOnly(eq.R, left):
			keys = append(keys, equiKey{leftExpr: eq.R, rightExpr: eq.L})
		default:
			return false
		}
		return true
	}
	if !walk(on) {
		return nil
	}
	return keys
}

// refsOnly reports whether every column referenced by e resolves in rel.
func refsOnly(e sp.Expr, rel *Relation) bool {
	ok := true
	var walk func(e sp.Expr)
	walk = func(e sp.Expr) {
		if !ok || e == nil {
			return
		}
		switch x := e.(type) {
		case *sp.Ident:
			if rel.ColumnIndex(x.Qualifier(), x.Name()) < 0 {
				ok = false
			}
		case *sp.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sp.UnaryExpr:
			walk(x.X)
		case *sp.IndexExpr:
			walk(x.Base)
			walk(x.Index)
		case *sp.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *sp.BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *sp.InExpr:
			walk(x.X)
			for _, it := range x.List {
				walk(it)
			}
		case *sp.IsNullExpr:
			walk(x.X)
		case *sp.CaseExpr:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if x.Else != nil {
				walk(x.Else)
			}
		}
	}
	walk(e)
	return ok
}

// joinedRelation builds the output schema of a join.
func joinedRelation(left, right *Relation) *Relation {
	cols := append(append([]string{}, left.Cols...), right.Cols...)
	quals := append(append([]string{}, left.Quals...), right.Quals...)
	return &Relation{Cols: cols, Quals: quals}
}

func nullRow(n int) []Value {
	row := make([]Value, n)
	for i := range row {
		row[i] = Null()
	}
	return row
}

// compileJoin compiles a join condition against the input schemas: a pure
// equi-join into per-side key expressions for the hash join, anything else
// into the ON condition over the joined schema for the nested loop. It
// also returns the equi-join conjuncts (nil for a nested loop).
func compileJoin(j *sp.Join, left, right *Relation) (*joinOp, []equiKey) {
	op := &joinOp{join: j, left: left, right: right}
	keys := extractEquiKeys(j.On, left, right)
	if keys == nil {
		op.on = compileExpr(j.On, joinedRelation(left, right))
		return op, nil
	}
	for _, k := range keys {
		op.lkeys = append(op.lkeys, compileExpr(k.leftExpr, left))
		op.rkeys = append(op.rkeys, compileExpr(k.rightExpr, right))
	}
	return op, keys
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

func nestedLoopJoin(op *joinOp, lrows, rrows [][]Value) ([][]Value, error) {
	jt := op.join.Type
	var out [][]Value
	env := &evalEnv{idx: -1}
	rightMatched := make([]bool, len(rrows))
	for _, lrow := range lrows {
		matchedAny := false
		for ri, rrow := range rrows {
			env.row = combineRows(lrow, rrow)
			v, err := op.on(env)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				matchedAny = true
				rightMatched[ri] = true
				out = append(out, env.row)
			}
		}
		if !matchedAny && (jt == sp.JoinLeft || jt == sp.JoinFullOuter) {
			out = append(out, combineRows(lrow, nullRow(op.right.NumCols())))
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

// CrossProduct materialises the full cross product of two relations — the
// naive hypothesis-generation strategy that the broadcast-join optimisation
// replaces (kept for the ablation bench).
func CrossProduct(left, right *Relation) *Relation {
	out := joinedRelation(left, right)
	for _, lrow := range left.Rows {
		for _, rrow := range right.Rows {
			out.Rows = append(out.Rows, append(append([]Value{}, lrow...), rrow...))
		}
	}
	return out
}
