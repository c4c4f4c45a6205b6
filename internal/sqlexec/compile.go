package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	sp "explainit/internal/sqlparse"
	"explainit/internal/tsdb"
)

// Expression compilation. Every expression the executor evaluates is
// lowered once — when the plan is built, or once per statement on the
// legacy path — into a tree of closures: column references resolve to row
// slots, aggregate call sites of a streaming aggregation to slots of the
// finalized-aggregate vector, a literal GLOB pattern to a tsdb.Glob and a
// literal LIKE pattern to a likePattern. The closures capture only
// compile-time constants, so a cached plan runs concurrently from many
// requests; everything that varies per row arrives through evalEnv.
//
// Compilation never fails. Whatever evaluation rejects (an unknown column,
// a bad arity, an invalid pattern) compiles to a closure returning the
// error, so errors surface exactly when, and in the order, a row-at-a-time
// evaluation raises them — and not at all over an empty input.

// evalEnv is the per-row input of a compiled expression.
type evalEnv struct {
	row []Value
	// rows is the materialized relation the window functions (LAG, MOVAVG,
	// DELTA) read, and idx the row's index in it; idx < 0 means the
	// context is not positional and window functions fail. Streaming
	// operators set idx without rows: the planner keeps window functions
	// out of them.
	rows [][]Value
	idx  int
	// group holds the rows of the current group while a buffered grouping
	// evaluates its items; nil outside a group, where aggregates fail.
	group [][]Value
	// aggs holds the finalized aggregate slots while a streaming
	// aggregation evaluates its items; nil otherwise.
	aggs []Value
}

// exprFn is a compiled expression.
type exprFn func(env *evalEnv) (Value, error)

func constFn(v Value) exprFn { return func(*evalEnv) (Value, error) { return v, nil } }
func errFn(err error) exprFn { return func(*evalEnv) (Value, error) { return Null(), err } }

// compileExpr compiles e against the columns of schema.
func compileExpr(e sp.Expr, schema *Relation) exprFn {
	return (&compiler{schema: schema}).expr(e)
}

// compiler carries the compile-time bindings: the schema column references
// resolve against, and the aggregate call sites that read env.aggs.
type compiler struct {
	schema *Relation
	slots  map[*sp.FuncCall]int
}

func (c *compiler) exprs(es []sp.Expr) []exprFn {
	out := make([]exprFn, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *compiler) expr(e sp.Expr) exprFn {
	switch x := e.(type) {
	case *sp.NumberLit:
		return constFn(Number(x.Value))
	case *sp.StringLit:
		return constFn(Str(x.Value))
	case *sp.NullLit:
		return constFn(Null())
	case *sp.Star:
		return errFn(fmt.Errorf("sqlexec: '*' is only valid as a projection or in COUNT(*)"))
	case *sp.Ident:
		idx := c.schema.ColumnIndex(x.Qualifier(), x.Name())
		if idx < 0 {
			return errFn(fmt.Errorf("sqlexec: unknown column %q", x.String()))
		}
		return func(env *evalEnv) (Value, error) { return env.row[idx], nil }
	case *sp.IndexExpr:
		return c.index(x)
	case *sp.UnaryExpr:
		return c.unary(x)
	case *sp.BinaryExpr:
		return c.binary(x)
	case *sp.BetweenExpr:
		return c.between(x)
	case *sp.InExpr:
		return c.in(x)
	case *sp.IsNullExpr:
		inner, not := c.expr(x.X), x.Not
		return func(env *evalEnv) (Value, error) {
			v, err := inner(env)
			if err != nil {
				return Null(), err
			}
			return boolVal(v.IsNull() != not), nil
		}
	case *sp.CaseExpr:
		return c.caseExpr(x)
	case *sp.FuncCall:
		return c.funcCall(x)
	}
	return errFn(fmt.Errorf("sqlexec: unsupported expression %T", e))
}

func boolVal(b bool) Value {
	if b {
		return Number(1)
	}
	return Number(0)
}

func (c *compiler) index(x *sp.IndexExpr) exprFn {
	base, index := c.expr(x.Base), c.expr(x.Index)
	return func(env *evalEnv) (Value, error) {
		b, err := base(env)
		if err != nil {
			return Null(), err
		}
		idx, err := index(env)
		if err != nil {
			return Null(), err
		}
		switch b.Kind {
		case KMap:
			v, ok := b.M[idx.AsString()]
			if !ok {
				return Null(), nil
			}
			return Str(v), nil
		case KList:
			f, ok := idx.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("sqlexec: list index must be numeric")
			}
			i := int(f)
			if i < 0 || i >= len(b.L) {
				return Null(), nil
			}
			return b.L[i], nil
		case KNull:
			return Null(), nil
		default:
			return Null(), fmt.Errorf("sqlexec: cannot subscript %v", b.Kind)
		}
	}
}

func (c *compiler) unary(x *sp.UnaryExpr) exprFn {
	inner := c.expr(x.X)
	switch x.Op {
	case "-":
		return func(env *evalEnv) (Value, error) {
			v, err := inner(env)
			if err != nil {
				return Null(), err
			}
			f, ok := v.AsFloat()
			if !ok {
				if v.IsNull() {
					return Null(), nil
				}
				return Null(), fmt.Errorf("sqlexec: cannot negate %q", v.AsString())
			}
			return Number(-f), nil
		}
	case "NOT":
		return func(env *evalEnv) (Value, error) {
			v, err := inner(env)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			return boolVal(!v.Truthy()), nil
		}
	}
	bad := fmt.Errorf("sqlexec: unsupported unary op %q", x.Op)
	return func(env *evalEnv) (Value, error) {
		if _, err := inner(env); err != nil {
			return Null(), err
		}
		return Null(), bad
	}
}

// operands evaluates both sides of a binary operator, left first.
func operands(l, r exprFn, env *evalEnv) (Value, Value, error) {
	lv, err := l(env)
	if err != nil {
		return Null(), Null(), err
	}
	rv, err := r(env)
	if err != nil {
		return Null(), Null(), err
	}
	return lv, rv, nil
}

func (c *compiler) binary(x *sp.BinaryExpr) exprFn {
	l, r := c.expr(x.L), c.expr(x.R)
	op := x.Op
	switch op {
	case "AND":
		return func(env *evalEnv) (Value, error) {
			lv, err := l(env)
			if err != nil {
				return Null(), err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return boolVal(false), nil
			}
			rv, err := r(env)
			if err != nil {
				return Null(), err
			}
			return boolVal(lv.Truthy() && rv.Truthy()), nil
		}
	case "OR":
		return func(env *evalEnv) (Value, error) {
			lv, err := l(env)
			if err != nil {
				return Null(), err
			}
			if lv.Truthy() {
				return boolVal(true), nil
			}
			rv, err := r(env)
			if err != nil {
				return Null(), err
			}
			return boolVal(rv.Truthy()), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		return func(env *evalEnv) (Value, error) {
			lv, rv, err := operands(l, r, env)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null(), err
			}
			cmp := Compare(lv, rv)
			switch op {
			case "=":
				return boolVal(cmp == 0), nil
			case "<>":
				return boolVal(cmp != 0), nil
			case "<":
				return boolVal(cmp < 0), nil
			case "<=":
				return boolVal(cmp <= 0), nil
			case ">":
				return boolVal(cmp > 0), nil
			}
			return boolVal(cmp >= 0), nil
		}
	case "LIKE", "GLOB":
		return c.pattern(op, l, r, x.R)
	case "||":
		return func(env *evalEnv) (Value, error) {
			lv, rv, err := operands(l, r, env)
			if err != nil {
				return Null(), err
			}
			return Str(lv.AsString() + rv.AsString()), nil
		}
	case "+", "-", "*", "/", "%":
		nonNumeric := fmt.Errorf("sqlexec: non-numeric operand for %q", op)
		return func(env *evalEnv) (Value, error) {
			lv, rv, err := operands(l, r, env)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null(), err
			}
			lf, lok := lv.AsFloat()
			rf, rok := rv.AsFloat()
			if !lok || !rok {
				return Null(), nonNumeric
			}
			switch op {
			case "+":
				return Number(lf + rf), nil
			case "-":
				return Number(lf - rf), nil
			case "*":
				return Number(lf * rf), nil
			}
			if rf == 0 {
				return Null(), nil
			}
			if op == "/" {
				return Number(lf / rf), nil
			}
			return Number(math.Mod(lf, rf)), nil
		}
	}
	bad := fmt.Errorf("sqlexec: unsupported operator %q", op)
	return func(env *evalEnv) (Value, error) {
		if _, _, err := operands(l, r, env); err != nil {
			return Null(), err
		}
		return Null(), bad
	}
}

// matcher is a compiled LIKE or GLOB pattern.
type matcher interface{ Match(s string) bool }

// compilePattern compiles a LIKE or GLOB pattern; only a GLOB pattern can
// be invalid (not UTF-8).
func compilePattern(op, pattern string) (matcher, error) {
	if op == "LIKE" {
		return likePattern(pattern), nil
	}
	g, err := tsdb.CompileGlob(pattern)
	if err != nil {
		return nil, fmt.Errorf("sqlexec: bad GLOB pattern %q: %w", pattern, err)
	}
	return g, nil
}

// pattern compiles LIKE and GLOB. A literal pattern is compiled here, once;
// any other pattern expression is compiled per row from its value.
func (c *compiler) pattern(op string, l, r exprFn, pat sp.Expr) exprFn {
	if lit, ok := pat.(*sp.StringLit); ok {
		m, perr := compilePattern(op, lit.Value)
		return func(env *evalEnv) (Value, error) {
			lv, err := l(env)
			if err != nil || lv.IsNull() {
				return Null(), err
			}
			if perr != nil {
				return Null(), perr
			}
			return boolVal(m.Match(lv.AsString())), nil
		}
	}
	return func(env *evalEnv) (Value, error) {
		lv, rv, err := operands(l, r, env)
		if err != nil || lv.IsNull() || rv.IsNull() {
			return Null(), err
		}
		m, err := compilePattern(op, rv.AsString())
		if err != nil {
			return Null(), err
		}
		return boolVal(m.Match(lv.AsString())), nil
	}
}

func (c *compiler) between(x *sp.BetweenExpr) exprFn {
	v, lo, hi, not := c.expr(x.X), c.expr(x.Lo), c.expr(x.Hi), x.Not
	return func(env *evalEnv) (Value, error) {
		vv, err := v(env)
		if err != nil {
			return Null(), err
		}
		lv, hv, err := operands(lo, hi, env)
		if err != nil || vv.IsNull() || lv.IsNull() || hv.IsNull() {
			return Null(), err
		}
		res := Compare(vv, lv) >= 0 && Compare(vv, hv) <= 0
		return boolVal(res != not), nil
	}
}

func (c *compiler) in(x *sp.InExpr) exprFn {
	v, list, not := c.expr(x.X), c.exprs(x.List), x.Not
	return func(env *evalEnv) (Value, error) {
		vv, err := v(env)
		if err != nil || vv.IsNull() {
			return Null(), err
		}
		found := false
		for _, item := range list {
			iv, err := item(env)
			if err != nil {
				return Null(), err
			}
			if Equal(vv, iv) {
				found = true
				break
			}
		}
		return boolVal(found != not), nil
	}
}

func (c *compiler) caseExpr(x *sp.CaseExpr) exprFn {
	conds := make([]exprFn, len(x.Whens))
	results := make([]exprFn, len(x.Whens))
	for i, w := range x.Whens {
		conds[i], results[i] = c.expr(w.Cond), c.expr(w.Result)
	}
	els := constFn(Null())
	if x.Else != nil {
		els = c.expr(x.Else)
	}
	return func(env *evalEnv) (Value, error) {
		for i, cond := range conds {
			cv, err := cond(env)
			if err != nil {
				return Null(), err
			}
			if cv.Truthy() {
				return results[i](env)
			}
		}
		return els(env)
	}
}

// aggregateFuncs are functions computed over a group of rows.
var aggregateFuncs = map[string]bool{
	"AVG": true, "SUM": true, "MIN": true, "MAX": true, "COUNT": true,
	"STDDEV": true, "VARIANCE": true, "PERCENTILE": true,
}

// containsAggregate walks an expression for aggregate function calls.
func containsAggregate(e sp.Expr) bool {
	switch x := e.(type) {
	case *sp.FuncCall:
		if aggregateFuncs[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *sp.BinaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *sp.UnaryExpr:
		return containsAggregate(x.X)
	case *sp.IndexExpr:
		return containsAggregate(x.Base) || containsAggregate(x.Index)
	case *sp.BetweenExpr:
		return containsAggregate(x.X) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	case *sp.InExpr:
		if containsAggregate(x.X) {
			return true
		}
		for _, it := range x.List {
			if containsAggregate(it) {
				return true
			}
		}
	case *sp.IsNullExpr:
		return containsAggregate(x.X)
	case *sp.CaseExpr:
		for _, w := range x.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Result) {
				return true
			}
		}
		if x.Else != nil {
			return containsAggregate(x.Else)
		}
	}
	return false
}

func (c *compiler) funcCall(x *sp.FuncCall) exprFn {
	fn := c.call(x)
	if slot, ok := c.slots[x]; ok {
		return func(env *evalEnv) (Value, error) {
			if env.aggs != nil {
				return env.aggs[slot], nil
			}
			return fn(env)
		}
	}
	return fn
}

func (c *compiler) call(x *sp.FuncCall) exprFn {
	if aggregateFuncs[x.Name] {
		return c.aggregate(x)
	}
	switch x.Name {
	case "LAG":
		return c.lag(x)
	case "MOVAVG":
		return c.movAvg(x)
	case "DELTA":
		return c.delta(x)
	case "CONCAT":
		args := c.exprs(x.Args)
		return func(env *evalEnv) (Value, error) {
			var b strings.Builder
			for _, a := range args {
				v, err := a(env)
				if err != nil {
					return Null(), err
				}
				b.WriteString(v.AsString())
			}
			return Str(b.String()), nil
		}
	case "SPLIT":
		if len(x.Args) != 2 {
			return errFn(fmt.Errorf("sqlexec: SPLIT takes (string, separator)"))
		}
		s, sep := c.expr(x.Args[0]), c.expr(x.Args[1])
		return func(env *evalEnv) (Value, error) {
			sv, sepv, err := operands(s, sep, env)
			if err != nil || sv.IsNull() {
				return Null(), err
			}
			parts := strings.Split(sv.AsString(), sepv.AsString())
			items := make([]Value, len(parts))
			for i, p := range parts {
				items[i] = Str(p)
			}
			return Value{Kind: KList, L: items}, nil
		}
	case "HOSTGROUP":
		// The UDF from Appendix C: SPLIT(hostname, '-')[0].
		if len(x.Args) != 1 {
			return errFn(fmt.Errorf("sqlexec: HOSTGROUP takes one argument"))
		}
		arg := c.expr(x.Args[0])
		return func(env *evalEnv) (Value, error) {
			v, err := arg(env)
			if err != nil || v.IsNull() {
				return Null(), err
			}
			name, _, _ := strings.Cut(v.AsString(), "-")
			return Str(name), nil
		}
	case "GREATEST", "LEAST":
		if len(x.Args) == 0 {
			return errFn(fmt.Errorf("sqlexec: %s needs arguments", x.Name))
		}
		args, greatest := c.exprs(x.Args), x.Name == "GREATEST"
		return func(env *evalEnv) (Value, error) {
			var best Value
			for i, a := range args {
				v, err := a(env)
				if err != nil || v.IsNull() {
					return Null(), err
				}
				if i == 0 {
					best = v
					continue
				}
				if cmp := Compare(v, best); (greatest && cmp > 0) || (!greatest && cmp < 0) {
					best = v
				}
			}
			return best, nil
		}
	case "ABS":
		return c.numeric(x, func(f float64) Value { return Number(math.Abs(f)) })
	case "SQRT":
		return c.numeric(x, func(f float64) Value {
			if f < 0 {
				return Null()
			}
			return Number(math.Sqrt(f))
		})
	case "LOG":
		return c.numeric(x, func(f float64) Value {
			if f <= 0 {
				return Null()
			}
			return Number(math.Log(f))
		})
	case "ROUND":
		return c.numeric(x, func(f float64) Value { return Number(math.Round(f)) })
	case "FLOOR":
		return c.numeric(x, func(f float64) Value { return Number(math.Floor(f)) })
	case "COALESCE":
		args := c.exprs(x.Args)
		return func(env *evalEnv) (Value, error) {
			for _, a := range args {
				v, err := a(env)
				if err != nil {
					return Null(), err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null(), nil
		}
	case "LOWER", "UPPER", "LENGTH":
		if len(x.Args) != 1 {
			return errFn(fmt.Errorf("sqlexec: %s takes one argument", x.Name))
		}
		arg, name := c.expr(x.Args[0]), x.Name
		return func(env *evalEnv) (Value, error) {
			v, err := arg(env)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch name {
			case "LOWER":
				return Str(strings.ToLower(v.AsString())), nil
			case "UPPER":
				return Str(strings.ToUpper(v.AsString())), nil
			}
			return Number(float64(len(v.AsString()))), nil
		}
	}
	return errFn(fmt.Errorf("sqlexec: unknown function %q", x.Name))
}

// numeric compiles a one-argument numeric function: NULL in, NULL out; a
// non-numeric argument is an error.
func (c *compiler) numeric(x *sp.FuncCall, f func(float64) Value) exprFn {
	if len(x.Args) != 1 {
		return errFn(fmt.Errorf("sqlexec: %s takes one numeric argument", x.Name))
	}
	arg := c.expr(x.Args[0])
	nonNumeric := fmt.Errorf("sqlexec: %s needs a numeric argument", x.Name)
	return func(env *evalEnv) (Value, error) {
		v, err := arg(env)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		fv, ok := v.AsFloat()
		if !ok {
			return Null(), nonNumeric
		}
		return f(fv), nil
	}
}

// windowGuard fails a window function outside a positional context, the
// first check every window function makes, before its arity.
func windowGuard(name string, fn exprFn) exprFn {
	unavailable := fmt.Errorf("sqlexec: %s is not available in this context", name)
	return func(env *evalEnv) (Value, error) {
		if env.idx < 0 {
			return Null(), unavailable
		}
		return fn(env)
	}
}

// at is the context of row i of the window relation.
func (env *evalEnv) at(i int) *evalEnv {
	return &evalEnv{row: env.rows[i], rows: env.rows, idx: i}
}

// lag compiles LAG(expr [, offset]) over the scan order of the input
// relation — the windowing facility the paper's §3.5 footnote mentions for
// preparing lagged features.
func (c *compiler) lag(x *sp.FuncCall) exprFn {
	if len(x.Args) < 1 || len(x.Args) > 2 {
		return windowGuard("LAG", errFn(fmt.Errorf("sqlexec: LAG takes (expr [, offset])")))
	}
	arg := c.expr(x.Args[0])
	offset := constFn(Number(1))
	if len(x.Args) == 2 {
		offset = c.expr(x.Args[1])
	}
	return windowGuard("LAG", func(env *evalEnv) (Value, error) {
		ov, err := offset(env)
		if err != nil {
			return Null(), err
		}
		f, ok := ov.AsFloat()
		if !ok || f < 0 {
			return Null(), fmt.Errorf("sqlexec: bad LAG offset")
		}
		src := env.idx - int(f)
		if src < 0 {
			return Null(), nil
		}
		return arg(env.at(src))
	})
}

// movAvg compiles MOVAVG(expr, k): the trailing running average of expr
// over the current and previous k-1 rows in scan order — the "smoothening
// and running averages" windowing of Appendix C. Rows before the window
// fills use the available prefix.
func (c *compiler) movAvg(x *sp.FuncCall) exprFn {
	if len(x.Args) != 2 {
		return windowGuard("MOVAVG", errFn(fmt.Errorf("sqlexec: MOVAVG takes (expr, window)")))
	}
	arg, window := c.expr(x.Args[0]), c.expr(x.Args[1])
	return windowGuard("MOVAVG", func(env *evalEnv) (Value, error) {
		wv, err := window(env)
		if err != nil {
			return Null(), err
		}
		wf, ok := wv.AsFloat()
		if !ok || wf < 1 {
			return Null(), fmt.Errorf("sqlexec: bad MOVAVG window")
		}
		lo := env.idx - int(wf) + 1
		if lo < 0 {
			lo = 0
		}
		var sum float64
		var n int
		for i := lo; i <= env.idx; i++ {
			v, err := arg(env.at(i))
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("sqlexec: MOVAVG over non-numeric values")
			}
			sum += f
			n++
		}
		if n == 0 {
			return Null(), nil
		}
		return Number(sum / float64(n)), nil
	})
}

// delta compiles DELTA(expr): expr minus its value on the previous row
// (NULL on the first row) — the standard counter-to-rate transform.
func (c *compiler) delta(x *sp.FuncCall) exprFn {
	if len(x.Args) != 1 {
		return windowGuard("DELTA", errFn(fmt.Errorf("sqlexec: DELTA takes (expr)")))
	}
	arg := c.expr(x.Args[0])
	return windowGuard("DELTA", func(env *evalEnv) (Value, error) {
		cur, err := arg(env)
		if err != nil {
			return Null(), err
		}
		if env.idx == 0 || cur.IsNull() {
			return Null(), nil
		}
		prev, err := arg(env.at(env.idx - 1))
		if err != nil || prev.IsNull() {
			return Null(), err
		}
		cf, ok1 := cur.AsFloat()
		pf, ok2 := prev.AsFloat()
		if !ok1 || !ok2 {
			return Null(), fmt.Errorf("sqlexec: DELTA over non-numeric values")
		}
		return Number(cf - pf), nil
	})
}

// aggSlot is one compiled aggregate call: its per-row argument and, for
// PERCENTILE, the fraction evaluated against the group's first row. A
// streaming aggregation accumulates a slot per eager call site and hands
// the finalized values to the items through env.aggs; a buffered grouping
// evaluates the same compiled call over env.group.
type aggSlot struct {
	call *sp.FuncCall
	arg  exprFn // nil for COUNT(*) and for a call without arguments
	frac exprFn // PERCENTILE's second argument; nil otherwise
}

func (c *compiler) aggSlot(x *sp.FuncCall) *aggSlot {
	s := &aggSlot{call: x}
	if !x.IsStar && len(x.Args) > 0 {
		s.arg = c.expr(x.Args[0])
	}
	if x.Name == "PERCENTILE" && len(x.Args) == 2 {
		s.frac = c.expr(x.Args[1])
	}
	return s
}

// countsRows reports whether the call is COUNT(*) (or COUNT()), which
// counts the group's rows without evaluating anything.
func (s *aggSlot) countsRows() bool { return s.call.Name == "COUNT" && s.arg == nil }

// accumulate folds one row's argument into the running state: COUNT(arg)
// counts non-NULL values, every other aggregate collects them as floats.
func (s *aggSlot) accumulate(st *slotState, env *evalEnv) error {
	if s.arg == nil {
		return nil // COUNT(*) counts rows; an argument-less call fails at finalize
	}
	v, err := s.arg(env)
	if err != nil || v.IsNull() {
		return err
	}
	if s.call.Name == "COUNT" {
		st.count++
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("sqlexec: %s over non-numeric values", s.call.Name)
	}
	st.vals = append(st.vals, f)
	return nil
}

// finalize computes the aggregate of a group of rows rows from its
// accumulated state; first is the group's first row.
func (s *aggSlot) finalize(st *slotState, rows int, first []Value) (Value, error) {
	call := s.call
	if call.Name == "COUNT" {
		if s.arg == nil {
			return Number(float64(rows)), nil
		}
		return Number(float64(st.count)), nil
	}
	if s.arg == nil {
		return Null(), fmt.Errorf("sqlexec: %s needs an argument", call.Name)
	}
	vals := st.vals
	if len(vals) == 0 {
		return Null(), nil
	}
	switch call.Name {
	case "AVG":
		return Number(meanOf(vals)), nil
	case "SUM":
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return Number(sum), nil
	case "MIN":
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return Number(m), nil
	case "MAX":
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return Number(m), nil
	case "STDDEV", "VARIANCE":
		m := meanOf(vals)
		var ss float64
		for _, v := range vals {
			d := v - m
			ss += d * d
		}
		variance := ss / float64(len(vals))
		if call.Name == "VARIANCE" {
			return Number(variance), nil
		}
		return Number(math.Sqrt(variance)), nil
	case "PERCENTILE":
		if s.frac == nil {
			return Null(), fmt.Errorf("sqlexec: PERCENTILE takes (expr, fraction)")
		}
		pv, err := s.frac(&evalEnv{row: first, idx: -1})
		if err != nil {
			return Null(), err
		}
		frac, ok := pv.AsFloat()
		if !ok || frac < 0 || frac > 1 {
			return Null(), fmt.Errorf("sqlexec: PERCENTILE fraction must be in [0,1]")
		}
		sort.Float64s(vals)
		pos := frac * float64(len(vals)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return Number(vals[lo]), nil
		}
		w := pos - float64(lo)
		return Number(vals[lo]*(1-w) + vals[hi]*w), nil
	}
	return Null(), fmt.Errorf("sqlexec: unknown aggregate %q", call.Name)
}

// aggregate compiles an aggregate call evaluated over env.group: the whole
// group is folded through the slot, exactly as a streaming aggregation
// would, then finalized.
func (c *compiler) aggregate(x *sp.FuncCall) exprFn {
	s := c.aggSlot(x)
	outside := fmt.Errorf("sqlexec: aggregate %s outside GROUP BY context", x.Name)
	return func(env *evalEnv) (Value, error) {
		if env.group == nil {
			return Null(), outside
		}
		var st slotState
		if !s.countsRows() {
			sub := &evalEnv{idx: -1}
			for _, row := range env.group {
				sub.row = row
				if err := s.accumulate(&st, sub); err != nil {
					return Null(), err
				}
			}
		}
		return s.finalize(&st, len(env.group), env.group[0])
	}
}

func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
