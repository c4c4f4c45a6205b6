package sqlexec

import (
	"fmt"
	"strings"

	sp "explainit/internal/sqlparse"
)

// The planner compiles a parsed statement into a physical Plan. Planning
// is pure analysis: it fetches table schemas (never rows), decides
// per-operator streaming vs. buffered modes, pushes predicates into
// pushdown-capable scans, picks hash-join build sides from index-postings
// estimates, and marks common subexpressions (identical scans and embedded
// EXPLAINs) so the executor materializes each once per statement.
//
// Semantics contract: executing a plan must match the materialize-
// everything oracle executor in legacy_test.go result-for-result —
// bitwise, including column naming, row order, NULL propagation, and the
// oracle's quirks (see the individual operator notes).
// Whenever an expression could observe the difference between streaming
// and materialized evaluation (window functions, which read the whole
// input relation and pre-filter row indexes), the affected operator
// degrades to buffered mode and runs the oracle's relational helpers on a
// materialized input. Every expression is compiled here, once per plan
// (compile.go); execution only calls the compiled closures.

// PlanStatement compiles a statement against a catalog. The catalog is
// consulted for table schemas (via SchemaCatalog/PushdownCatalog when
// implemented, falling back to materializing Table for plain catalogs) and
// for cardinality estimates; rows are never fetched.
func PlanStatement(stmt sp.Statement, cat Catalog) (*Plan, error) {
	pl := &planner{cat: cat}
	var root *PlanNode
	var err error
	switch s := stmt.(type) {
	case *sp.SelectStmt:
		root, _, err = pl.planSelect(s)
	case *sp.ExplainStmt:
		root = explainNode(s)
	case *sp.ExplainPlanStmt:
		var inner *Plan
		inner, err = PlanStatement(s.Stmt, cat)
		if err != nil {
			return nil, err
		}
		root = &PlanNode{
			Op:       opExplainPlan,
			Children: []*PlanNode{inner.Root},
			schema:   NewRelation("plan"),
			explPl:   &explainPlanOp{inner: inner},
		}
	default:
		return nil, fmt.Errorf("sqlexec: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	markShared(root)
	return &Plan{Root: root}, nil
}

type planner struct {
	cat Catalog
}

// planSelect plans a SELECT with its UNION chain. Returns the root node
// and the effective output schema.
func (pl *planner) planSelect(stmt *sp.SelectStmt) (*PlanNode, *Relation, error) {
	first, err := pl.planSingle(stmt)
	if err != nil {
		return nil, nil, err
	}
	if stmt.Union == nil {
		return first, first.schema, nil
	}
	children := []*PlanNode{first}
	for u := stmt.Union; u != nil; u = u.Union {
		arm, err := pl.planSingle(u)
		if err != nil {
			return nil, nil, err
		}
		children = append(children, arm)
	}
	// Legacy quirk preserved: the first statement's UnionAll flag governs
	// dedup for the whole chain, and each arm's own ORDER BY/LIMIT were
	// already applied inside the arm.
	node := &PlanNode{
		Op:       opUnion,
		UnionAll: stmt.UnionAll,
		Children: children,
		schema:   schemaOnly(first.schema),
		union:    &unionOp{all: stmt.UnionAll},
	}
	return node, node.schema, nil
}

// planSingle plans one SELECT arm (no union handling).
func (pl *planner) planSingle(stmt *sp.SelectStmt) (*PlanNode, error) {
	// FROM.
	var input *PlanNode
	var inSchema *Relation
	var scans []*scanSlot
	if stmt.From != nil {
		var err error
		input, inSchema, scans, err = pl.planFrom(stmt.From)
		if err != nil {
			return nil, err
		}
	} else {
		// FROM-less SELECT evaluates items once against an empty row.
		input = &PlanNode{Op: opValues, schema: &Relation{}}
		inSchema = input.schema
	}

	// WHERE: push eligible conjuncts into capable scans, then keep the
	// full predicate as a residual filter. Window functions in the
	// predicate see pre-filter row indexes, so they disable pushdown and
	// force the buffered filter.
	if stmt.Where != nil {
		windowed := containsWindow(stmt.Where)
		if !windowed {
			applyPushdown(stmt.Where, inSchema, scans)
		}
		mode := modeStreaming
		if windowed {
			mode = modeBuffered
		}
		input = &PlanNode{
			Op:        opFilter,
			Mode:      mode,
			Predicate: stmt.Where.String(),
			Children:  []*PlanNode{input},
			schema:    inSchema,
			filter:    &filterOp{pred: compileExpr(stmt.Where, inSchema), streaming: !windowed},
		}
	}
	pl.finalizeScans(scans)
	pl.pickBuildSides(input)

	// GROUP BY / projection.
	var out *PlanNode
	if isGrouped(stmt) {
		out = pl.planAggregate(stmt, input, inSchema)
	} else {
		out = pl.planProjection(stmt, input, inSchema)
	}
	outSchema := out.schema

	if stmt.Distinct {
		out = &PlanNode{
			Op:       opDistinct,
			Children: []*PlanNode{out},
			schema:   outSchema,
			dedup:    &distinctOp{},
		}
	}

	// ORDER BY (+LIMIT fusion into top-k when the keys are window-free and
	// statically resolvable the way the legacy sort would resolve them).
	if len(stmt.OrderBy) > 0 {
		orderStrs := make([]string, len(stmt.OrderBy))
		windowed := false
		for j, k := range stmt.OrderBy {
			orderStrs[j] = k.String()
			if containsWindow(k.Expr) {
				windowed = true
			}
		}
		keys := compileOrder(stmt.OrderBy, outSchema, inSchema)
		resolvable := true
		for _, k := range keys {
			if !k.useOutput && !k.inputOK {
				resolvable = false
			}
		}
		if stmt.Limit >= 0 && !windowed && resolvable {
			k := stmt.Limit
			out = &PlanNode{
				Op:       opTopK,
				Mode:     modeStreaming,
				OrderBy:  orderStrs,
				Limit:    intp(k),
				Children: []*PlanNode{out},
				schema:   outSchema,
				topk:     &topkOp{keys: keys, k: k, distinctUpstream: stmt.Distinct},
			}
			return out, nil
		}
		out = &PlanNode{
			Op:       opSort,
			Mode:     modeBuffered,
			OrderBy:  orderStrs,
			Children: []*PlanNode{out},
			schema:   outSchema,
			sorter:   &sortOp{keys: keys, distinctUpstream: stmt.Distinct},
		}
	}

	if stmt.Limit >= 0 {
		out = &PlanNode{
			Op:       opLimit,
			Limit:    intp(stmt.Limit),
			Children: []*PlanNode{out},
			schema:   outSchema,
			limiter:  &limitOp{n: stmt.Limit},
		}
	}
	return out, nil
}

func intp(v int) *int { return &v }

// planProjection builds the project node. Streaming unless a window
// function needs the materialized input.
func (pl *planner) planProjection(stmt *sp.SelectStmt, input *PlanNode, inSchema *Relation) *PlanNode {
	windowed := false
	for _, item := range stmt.Items {
		if containsWindow(item.Expr) {
			windowed = true
		}
	}
	cols, items := compileProjection(stmt.Items, inSchema)
	mode := modeStreaming
	if windowed {
		mode = modeBuffered
	}
	return &PlanNode{
		Op:       opProject,
		Mode:     mode,
		Columns:  cols,
		Children: []*PlanNode{input},
		schema:   NewRelation(cols...),
		proj:     &projectOp{items: items, streaming: !windowed},
	}
}

// planAggregate builds the aggregation node. Streaming aggregation
// accumulates per-group slot state row by row and hands the finalized
// values to the compiled items through evalEnv.aggs; it is only chosen
// when that substitution is observationally identical to the legacy
// two-pass evaluation — every aggregate call must sit in an eagerly
// evaluated position (evaluation never computes an aggregate under a
// short-circuited branch), and group keys must be window-free.
func (pl *planner) planAggregate(stmt *sp.SelectStmt, input *PlanNode, inSchema *Relation) *PlanNode {
	starPresent := false
	for _, item := range stmt.Items {
		if _, ok := item.Expr.(*sp.Star); ok {
			starPresent = true
		}
	}
	gbStrs := make([]string, len(stmt.GroupBy))
	gbWindowed := false
	for i, g := range stmt.GroupBy {
		gbStrs[i] = g.String()
		if containsWindow(g) {
			gbWindowed = true
		}
	}
	var slots []*sp.FuncCall
	eligible := !starPresent && !gbWindowed
	if eligible {
		for _, item := range stmt.Items {
			if !collectEagerAggs(item.Expr, true, &slots) {
				eligible = false
				break
			}
		}
	}
	mode := modeStreaming
	var aggStrs []string
	if !eligible {
		mode = modeBuffered
		slots = nil
	} else {
		for _, call := range slots {
			aggStrs = append(aggStrs, call.String())
		}
	}
	g := compileGrouping(stmt, inSchema, slots)
	schema := NewRelation(g.cols...)
	if starPresent {
		// SELECT * with GROUP BY is a runtime error raised by the buffered
		// path after the input executes, matching legacy error ordering.
		schema = NewRelation()
	}
	return &PlanNode{
		Op:         opAggregate,
		Mode:       mode,
		Columns:    schema.Cols,
		GroupBy:    gbStrs,
		Aggregates: aggStrs,
		Children:   []*PlanNode{input},
		schema:     schema,
		agg:        &aggOp{g: g, streaming: eligible},
	}
}

// collectEagerAggs walks an item expression tracking whether the current
// position is always evaluated (eager) or may be
// skipped by short-circuiting (lazy). Aggregates in eager positions become
// slots; an aggregate in a lazy position returns false — the statement
// falls back to buffered grouping, because precomputing it could evaluate
// (and fail on) expressions the legacy path never touches.
func collectEagerAggs(e sp.Expr, eager bool, slots *[]*sp.FuncCall) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *sp.FuncCall:
		if aggregateFuncs[x.Name] {
			if !eager {
				return false
			}
			// Args are evaluated per-row by the accumulator with the same
			// context the legacy aggregate uses; nested aggregates inside
			// them fail identically there, so don't descend.
			*slots = append(*slots, x)
			return true
		}
		switch x.Name {
		case "COALESCE", "GREATEST", "LEAST":
			// First argument always evaluated, rest only conditionally.
			for i, a := range x.Args {
				if !collectEagerAggs(a, eager && i == 0, slots) {
					return false
				}
			}
			return true
		case "LAG", "MOVAVG", "DELTA":
			// Window calls error out before touching their args in grouped
			// context; any aggregate inside must not be precomputed.
			for _, a := range x.Args {
				if !collectEagerAggs(a, false, slots) {
					return false
				}
			}
			return true
		case "CONCAT", "SPLIT", "HOSTGROUP", "ABS", "SQRT", "LOG", "ROUND",
			"FLOOR", "LOWER", "UPPER", "LENGTH":
			for _, a := range x.Args {
				if !collectEagerAggs(a, eager, slots) {
					return false
				}
			}
			return true
		default:
			// Unknown function: legacy errors before evaluating arguments.
			for _, a := range x.Args {
				if !collectEagerAggs(a, false, slots) {
					return false
				}
			}
			return true
		}
	case *sp.BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return collectEagerAggs(x.L, eager, slots) &&
				collectEagerAggs(x.R, false, slots)
		}
		return collectEagerAggs(x.L, eager, slots) &&
			collectEagerAggs(x.R, eager, slots)
	case *sp.UnaryExpr:
		return collectEagerAggs(x.X, eager, slots)
	case *sp.IndexExpr:
		return collectEagerAggs(x.Base, eager, slots) &&
			collectEagerAggs(x.Index, eager, slots)
	case *sp.BetweenExpr:
		return collectEagerAggs(x.X, eager, slots) &&
			collectEagerAggs(x.Lo, eager, slots) &&
			collectEagerAggs(x.Hi, eager, slots)
	case *sp.InExpr:
		if !collectEagerAggs(x.X, eager, slots) {
			return false
		}
		for _, it := range x.List {
			if !collectEagerAggs(it, false, slots) {
				return false
			}
		}
		return true
	case *sp.IsNullExpr:
		return collectEagerAggs(x.X, eager, slots)
	case *sp.CaseExpr:
		for i, w := range x.Whens {
			if !collectEagerAggs(w.Cond, eager && i == 0, slots) {
				return false
			}
			if !collectEagerAggs(w.Result, false, slots) {
				return false
			}
		}
		if x.Else != nil {
			return collectEagerAggs(x.Else, false, slots)
		}
		return true
	}
	return true
}

// planFrom plans a FROM tree. Returns the subtree root, the effective
// (alias-qualified) schema, and the pushdown-capable scan slots with their
// column ranges relative to the returned schema.
func (pl *planner) planFrom(ref sp.TableRef) (*PlanNode, *Relation, []*scanSlot, error) {
	switch t := ref.(type) {
	case *sp.TableName:
		return pl.planScan(t)
	case *sp.Subquery:
		child, schema, err := pl.planSelect(t.Stmt)
		if err != nil {
			return nil, nil, nil, err
		}
		if t.Alias != "" {
			schema = schema.WithQualifier(t.Alias)
		}
		return child, schema, nil, nil
	case *sp.ExplainRef:
		node := explainNode(t.Stmt)
		schema := node.schema
		if t.Alias != "" {
			node.Alias = t.Alias
			schema = schema.WithQualifier(t.Alias)
		}
		return node, schema, nil, nil
	case *sp.Join:
		left, ls, lslots, err := pl.planFrom(t.Left)
		if err != nil {
			return nil, nil, nil, err
		}
		right, rs, rslots, err := pl.planFrom(t.Right)
		if err != nil {
			return nil, nil, nil, err
		}
		schema := joinedRelation(ls, rs)
		for _, sl := range rslots {
			sl.shift(ls.NumCols())
		}
		slots := append(lslots, rslots...)
		op, keys := compileJoin(t, ls, rs)
		node := &PlanNode{
			JoinType: joinTypeName(t.Type),
			Children: []*PlanNode{left, right},
			schema:   schema,
			join:     op,
		}
		if keys != nil {
			node.Op = opHashJoin
			node.BuildSide = "right"
			jk := make([]string, len(keys))
			for i, k := range keys {
				jk[i] = k.leftExpr.String() + " = " + k.rightExpr.String()
			}
			node.JoinKeys = jk
		} else {
			node.Op = opNestedJoin
			node.Predicate = t.On.String()
		}
		return node, schema, slots, nil
	}
	return nil, nil, nil, fmt.Errorf("sqlexec: unsupported FROM clause %T", ref)
}

// planScan builds a scan node, resolving the table's schema without
// materializing rows when the catalog allows it.
func (pl *planner) planScan(t *sp.TableName) (*PlanNode, *Relation, []*scanSlot, error) {
	qual := t.Name
	if t.Alias != "" {
		qual = t.Alias
	}
	pc, _ := pl.cat.(PushdownCatalog)
	capable := pc != nil && pc.CanPushdown(t.Name)

	var base *Relation
	est := -1
	switch {
	case capable:
		var err error
		base, err = pc.TableSchema(t.Name)
		if err != nil {
			return nil, nil, nil, err
		}
	default:
		if sc, ok := pl.cat.(SchemaCatalog); ok {
			var err error
			base, err = sc.TableSchema(t.Name)
			if err != nil {
				return nil, nil, nil, err
			}
			if pc != nil {
				est = pc.EstimateScan(t.Name, ScanSpec{})
			}
		} else {
			rel, err := pl.cat.Table(t.Name)
			if err != nil {
				return nil, nil, nil, err
			}
			base = schemaOnly(rel)
			est = rel.NumRows()
		}
	}
	schema := base.WithQualifier(qual)
	node := &PlanNode{
		Op:     opScan,
		Table:  t.Name,
		schema: schema,
		scan:   &scanOp{table: t.Name, qual: qual},
	}
	if t.Alias != "" {
		node.Alias = t.Alias
	}
	if est >= 0 {
		node.EstRows = intp(est)
	}
	slot := &scanSlot{
		node: node, lo: 0, hi: schema.NumCols(), capable: capable,
		tsIdx: -1, metricIdx: -1, tagIdx: -1,
	}
	if capable {
		slot.tsIdx = colIndexExact(base, "timestamp")
		slot.metricIdx = colIndexExact(base, "metric_name")
		slot.tagIdx = colIndexExact(base, "tag")
	}
	return node, schema, []*scanSlot{slot}, nil
}

func colIndexExact(rel *Relation, name string) int {
	for i, c := range rel.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// finalizeScans computes each scan's shared-cache key and, for capable
// scans, a postings-based cardinality estimate incorporating any pushed
// spec.
func (pl *planner) finalizeScans(scans []*scanSlot) {
	pc, _ := pl.cat.(PushdownCatalog)
	for _, sl := range scans {
		op := sl.node.scan
		op.key = "scan|" + strings.ToLower(op.table) + "|" + op.spec.Key()
		if sl.capable && pc != nil {
			var spec ScanSpec
			if op.spec != nil {
				spec = *op.spec
			}
			if est := pc.EstimateScan(op.table, spec); est >= 0 {
				sl.node.EstRows = intp(est)
			}
		}
	}
}

// pickBuildSides walks join nodes bottom-up choosing the hash-join build
// side by estimated cardinality. Only INNER joins may flip to build-left
// (outer joins rely on the classic probe order for padding); unknown
// estimates keep the legacy build-right.
func (pl *planner) pickBuildSides(n *PlanNode) {
	if n == nil {
		return
	}
	for _, c := range n.Children {
		pl.pickBuildSides(c)
	}
	if n.Op != opHashJoin {
		return
	}
	le, re := estRows(n.Children[0]), estRows(n.Children[1])
	if n.join.join.Type == sp.JoinInner && le >= 0 && re >= 0 && le < re {
		n.join.buildLeft = true
		n.BuildSide = "left"
	}
}

// estRows is the planner's cardinality estimate for a subtree; -1 unknown.
func estRows(n *PlanNode) int {
	switch n.Op {
	case opScan:
		if n.EstRows != nil {
			return *n.EstRows
		}
	case opValues:
		return 1
	case opFilter:
		return estRows(n.Children[0])
	}
	return -1
}

// explainNode plans an embedded or top-level EXPLAIN ranking. Compilation
// of the clause literals stays in the executor (explainIter) so a missing
// Explainer is still reported first, exactly as the legacy path does.
func explainNode(stmt *sp.ExplainStmt) *PlanNode {
	return &PlanNode{
		Op:      opExplain,
		Explain: stmt.String(),
		schema:  NewExplainRelation(),
		expl:    &explainOp{stmt: stmt, key: "explain|" + stmt.String()},
	}
}

func joinTypeName(t sp.JoinType) string {
	switch t {
	case sp.JoinLeft:
		return "left"
	case sp.JoinFullOuter:
		return "full_outer"
	default:
		return "inner"
	}
}

// markShared counts scan and explain cache keys across the whole plan and
// marks nodes whose key occurs more than once — the statically detected
// common subexpressions. The executor keys its per-statement shared map on
// the same strings, so marking is informational (plans pin it; sharing
// happens regardless whenever keys collide at runtime).
func markShared(root *PlanNode) {
	counts := map[string]int{}
	var walk func(n *PlanNode, f func(*PlanNode))
	walk = func(n *PlanNode, f func(*PlanNode)) {
		if n == nil {
			return
		}
		f(n)
		for _, c := range n.Children {
			walk(c, f)
		}
	}
	walk(root, func(n *PlanNode) {
		switch {
		case n.scan != nil:
			counts[n.scan.key]++
		case n.expl != nil:
			counts[n.expl.key]++
		}
	})
	walk(root, func(n *PlanNode) {
		switch {
		case n.scan != nil && counts[n.scan.key] > 1:
			n.CSE = n.scan.key
		case n.expl != nil && counts[n.expl.key] > 1:
			n.CSE = n.expl.key
		}
	})
}
