package sqlexec

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	sp "explainit/internal/sqlparse"
)

// The row-at-a-time interpreter the SQL executor evaluated expressions
// with before they were compiled into closures (compile.go). It is kept,
// regexp-backed LIKE and GLOB included, as the oracle the compiled form is
// tested against value for value and error for error.

// evalContext carries everything an expression needs: the relation being
// scanned, the current row, and (for aggregates) the rows of the current
// group.
type evalContext struct {
	rel       *Relation
	row       []Value
	rowIdx    int       // index of row within rel.Rows (for LAG); -1 if n/a
	groupRows [][]Value // non-nil only while evaluating grouped selects
	// aggVals substitutes precomputed values for aggregate call sites
	// (keyed by AST node identity). The streaming aggregation operator
	// accumulates each aggregate incrementally and then evaluates the
	// surrounding item expression with the results plugged in here, so the
	// expression tree itself is never rewritten.
	aggVals map[*sp.FuncCall]Value
}

// eval evaluates an expression in the given context.
func eval(e sp.Expr, ctx *evalContext) (Value, error) {
	switch x := e.(type) {
	case *sp.NumberLit:
		return Number(x.Value), nil
	case *sp.StringLit:
		return Str(x.Value), nil
	case *sp.NullLit:
		return Null(), nil
	case *sp.Star:
		return Null(), fmt.Errorf("sqlexec: '*' is only valid as a projection or in COUNT(*)")
	case *sp.Ident:
		idx := ctx.rel.ColumnIndex(x.Qualifier(), x.Name())
		if idx < 0 {
			return Null(), fmt.Errorf("sqlexec: unknown column %q", x.String())
		}
		return ctx.row[idx], nil
	case *sp.IndexExpr:
		return evalIndex(x, ctx)
	case *sp.UnaryExpr:
		return evalUnary(x, ctx)
	case *sp.BinaryExpr:
		return evalBinary(x, ctx)
	case *sp.BetweenExpr:
		return evalBetween(x, ctx)
	case *sp.InExpr:
		return evalIn(x, ctx)
	case *sp.IsNullExpr:
		v, err := eval(x.X, ctx)
		if err != nil {
			return Null(), err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return boolVal(res), nil
	case *sp.CaseExpr:
		for _, w := range x.Whens {
			cond, err := eval(w.Cond, ctx)
			if err != nil {
				return Null(), err
			}
			if cond.Truthy() {
				return eval(w.Result, ctx)
			}
		}
		if x.Else != nil {
			return eval(x.Else, ctx)
		}
		return Null(), nil
	case *sp.FuncCall:
		return evalFunc(x, ctx)
	}
	return Null(), fmt.Errorf("sqlexec: unsupported expression %T", e)
}

func evalIndex(x *sp.IndexExpr, ctx *evalContext) (Value, error) {
	base, err := eval(x.Base, ctx)
	if err != nil {
		return Null(), err
	}
	idx, err := eval(x.Index, ctx)
	if err != nil {
		return Null(), err
	}
	switch base.Kind {
	case KMap:
		v, ok := base.M[idx.AsString()]
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
		if i < 0 || i >= len(base.L) {
			return Null(), nil
		}
		return base.L[i], nil
	case KNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("sqlexec: cannot subscript %v", base.Kind)
	}
}

func evalUnary(x *sp.UnaryExpr, ctx *evalContext) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "-":
		f, ok := v.AsFloat()
		if !ok {
			if v.IsNull() {
				return Null(), nil
			}
			return Null(), fmt.Errorf("sqlexec: cannot negate %q", v.AsString())
		}
		return Number(-f), nil
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		return boolVal(!v.Truthy()), nil
	}
	return Null(), fmt.Errorf("sqlexec: unsupported unary op %q", x.Op)
}

func evalBinary(x *sp.BinaryExpr, ctx *evalContext) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := eval(x.L, ctx)
		if err != nil {
			return Null(), err
		}
		if !l.IsNull() && !l.Truthy() {
			return boolVal(false), nil
		}
		r, err := eval(x.R, ctx)
		if err != nil {
			return Null(), err
		}
		return boolVal(l.Truthy() && r.Truthy()), nil
	case "OR":
		l, err := eval(x.L, ctx)
		if err != nil {
			return Null(), err
		}
		if l.Truthy() {
			return boolVal(true), nil
		}
		r, err := eval(x.R, ctx)
		if err != nil {
			return Null(), err
		}
		return boolVal(r.Truthy()), nil
	}
	l, err := eval(x.L, ctx)
	if err != nil {
		return Null(), err
	}
	r, err := eval(x.R, ctx)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		var res bool
		switch x.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return boolVal(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		matched, err := likeMatch(l.AsString(), r.AsString())
		if err != nil {
			return Null(), err
		}
		return boolVal(matched), nil
	case "GLOB":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		matched, err := globValueMatch(l.AsString(), r.AsString())
		if err != nil {
			return Null(), err
		}
		return boolVal(matched), nil
	case "||":
		return Str(l.AsString() + r.AsString()), nil
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Null(), fmt.Errorf("sqlexec: non-numeric operand for %q", x.Op)
		}
		switch x.Op {
		case "+":
			return Number(lf + rf), nil
		case "-":
			return Number(lf - rf), nil
		case "*":
			return Number(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null(), nil
			}
			return Number(lf / rf), nil
		case "%":
			if rf == 0 {
				return Null(), nil
			}
			return Number(math.Mod(lf, rf)), nil
		}
	}
	return Null(), fmt.Errorf("sqlexec: unsupported operator %q", x.Op)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) (bool, error) {
	var b strings.Builder
	b.WriteByte('^')
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteByte('.')
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteByte('$')
	re, err := regexp.Compile(b.String())
	if err != nil {
		return false, fmt.Errorf("sqlexec: bad LIKE pattern %q: %w", pattern, err)
	}
	return re.MatchString(s), nil
}

// globValueMatch implements the GLOB operator with '*' wildcards — the same
// anchored glob dialect the tsdb's NamePattern/TagPatterns use, which is
// what lets a GLOB predicate push down into the store's inverted indexes
// verbatim.
func globValueMatch(s, pattern string) (bool, error) {
	var b strings.Builder
	b.WriteByte('^')
	for i, part := range strings.Split(pattern, "*") {
		if i > 0 {
			b.WriteString(".*")
		}
		b.WriteString(regexp.QuoteMeta(part))
	}
	b.WriteByte('$')
	re, err := regexp.Compile(b.String())
	if err != nil {
		return false, fmt.Errorf("sqlexec: bad GLOB pattern %q: %w", pattern, err)
	}
	return re.MatchString(s), nil
}

func evalBetween(x *sp.BetweenExpr, ctx *evalContext) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Null(), err
	}
	lo, err := eval(x.Lo, ctx)
	if err != nil {
		return Null(), err
	}
	hi, err := eval(x.Hi, ctx)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null(), nil
	}
	res := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
	if x.Not {
		res = !res
	}
	return boolVal(res), nil
}

func evalIn(x *sp.InExpr, ctx *evalContext) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	found := false
	for _, item := range x.List {
		iv, err := eval(item, ctx)
		if err != nil {
			return Null(), err
		}
		if Equal(v, iv) {
			found = true
			break
		}
	}
	if x.Not {
		found = !found
	}
	return boolVal(found), nil
}

func evalFunc(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if ctx.aggVals != nil {
		if v, ok := ctx.aggVals[x]; ok {
			return v, nil
		}
	}
	if aggregateFuncs[x.Name] {
		return evalAggregate(x, ctx)
	}
	switch x.Name {
	case "LAG":
		return evalLag(x, ctx)
	case "MOVAVG":
		return evalMovAvg(x, ctx)
	case "DELTA":
		return evalDelta(x, ctx)
	case "CONCAT":
		var b strings.Builder
		for _, a := range x.Args {
			v, err := eval(a, ctx)
			if err != nil {
				return Null(), err
			}
			b.WriteString(v.AsString())
		}
		return Str(b.String()), nil
	case "SPLIT":
		if len(x.Args) != 2 {
			return Null(), fmt.Errorf("sqlexec: SPLIT takes (string, separator)")
		}
		s, err := eval(x.Args[0], ctx)
		if err != nil {
			return Null(), err
		}
		sep, err := eval(x.Args[1], ctx)
		if err != nil {
			return Null(), err
		}
		if s.IsNull() {
			return Null(), nil
		}
		parts := strings.Split(s.AsString(), sep.AsString())
		items := make([]Value, len(parts))
		for i, p := range parts {
			items[i] = Str(p)
		}
		return Value{Kind: KList, L: items}, nil
	case "HOSTGROUP":
		// The UDF from Appendix C: SPLIT(hostname, '-')[0].
		if len(x.Args) != 1 {
			return Null(), fmt.Errorf("sqlexec: HOSTGROUP takes one argument")
		}
		v, err := eval(x.Args[0], ctx)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			return Null(), nil
		}
		name, _, _ := strings.Cut(v.AsString(), "-")
		return Str(name), nil
	case "GREATEST", "LEAST":
		if len(x.Args) == 0 {
			return Null(), fmt.Errorf("sqlexec: %s needs arguments", x.Name)
		}
		var best Value
		first := true
		for _, a := range x.Args {
			v, err := eval(a, ctx)
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				return Null(), nil
			}
			if first {
				best = v
				first = false
				continue
			}
			c := Compare(v, best)
			if (x.Name == "GREATEST" && c > 0) || (x.Name == "LEAST" && c < 0) {
				best = v
			}
		}
		return best, nil
	case "ABS":
		v, err := evalSingleNumeric(x, ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		return Number(math.Abs(v.F)), nil
	case "SQRT":
		v, err := evalSingleNumeric(x, ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		if v.F < 0 {
			return Null(), nil
		}
		return Number(math.Sqrt(v.F)), nil
	case "LOG":
		v, err := evalSingleNumeric(x, ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		if v.F <= 0 {
			return Null(), nil
		}
		return Number(math.Log(v.F)), nil
	case "ROUND":
		v, err := evalSingleNumeric(x, ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		return Number(math.Round(v.F)), nil
	case "FLOOR":
		v, err := evalSingleNumeric(x, ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		return Number(math.Floor(v.F)), nil
	case "COALESCE":
		for _, a := range x.Args {
			v, err := eval(a, ctx)
			if err != nil {
				return Null(), err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	case "LOWER", "UPPER":
		if len(x.Args) != 1 {
			return Null(), fmt.Errorf("sqlexec: %s takes one argument", x.Name)
		}
		v, err := eval(x.Args[0], ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		if x.Name == "LOWER" {
			return Str(strings.ToLower(v.AsString())), nil
		}
		return Str(strings.ToUpper(v.AsString())), nil
	case "LENGTH":
		if len(x.Args) != 1 {
			return Null(), fmt.Errorf("sqlexec: LENGTH takes one argument")
		}
		v, err := eval(x.Args[0], ctx)
		if err != nil || v.IsNull() {
			return v, err
		}
		return Number(float64(len(v.AsString()))), nil
	}
	return Null(), fmt.Errorf("sqlexec: unknown function %q", x.Name)
}

func evalSingleNumeric(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if len(x.Args) != 1 {
		return Null(), fmt.Errorf("sqlexec: %s takes one numeric argument", x.Name)
	}
	v, err := eval(x.Args[0], ctx)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() {
		return Null(), nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return Null(), fmt.Errorf("sqlexec: %s needs a numeric argument", x.Name)
	}
	return Number(f), nil
}

// evalLag implements LAG(expr [, offset]) over the scan order of the input
// relation — the windowing facility the paper's §3.5 footnote mentions for
// preparing lagged features.
func evalLag(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if ctx.rowIdx < 0 {
		return Null(), fmt.Errorf("sqlexec: LAG is not available in this context")
	}
	if len(x.Args) < 1 || len(x.Args) > 2 {
		return Null(), fmt.Errorf("sqlexec: LAG takes (expr [, offset])")
	}
	offset := 1
	if len(x.Args) == 2 {
		ov, err := eval(x.Args[1], ctx)
		if err != nil {
			return Null(), err
		}
		f, ok := ov.AsFloat()
		if !ok || f < 0 {
			return Null(), fmt.Errorf("sqlexec: bad LAG offset")
		}
		offset = int(f)
	}
	src := ctx.rowIdx - offset
	if src < 0 {
		return Null(), nil
	}
	sub := &evalContext{rel: ctx.rel, row: ctx.rel.Rows[src], rowIdx: src}
	return eval(x.Args[0], sub)
}

// evalMovAvg implements MOVAVG(expr, k): the trailing running average of
// expr over the current and previous k-1 rows in scan order — the
// "smoothening and running averages" windowing of Appendix C. Rows before
// the window fills use the available prefix.
func evalMovAvg(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if ctx.rowIdx < 0 {
		return Null(), fmt.Errorf("sqlexec: MOVAVG is not available in this context")
	}
	if len(x.Args) != 2 {
		return Null(), fmt.Errorf("sqlexec: MOVAVG takes (expr, window)")
	}
	wv, err := eval(x.Args[1], ctx)
	if err != nil {
		return Null(), err
	}
	wf, ok := wv.AsFloat()
	if !ok || wf < 1 {
		return Null(), fmt.Errorf("sqlexec: bad MOVAVG window")
	}
	k := int(wf)
	lo := ctx.rowIdx - k + 1
	if lo < 0 {
		lo = 0
	}
	var sum float64
	var n int
	for i := lo; i <= ctx.rowIdx; i++ {
		sub := &evalContext{rel: ctx.rel, row: ctx.rel.Rows[i], rowIdx: i}
		v, err := eval(x.Args[0], sub)
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
}

// evalDelta implements DELTA(expr): expr minus its value on the previous
// row (NULL on the first row) — the standard counter-to-rate transform.
func evalDelta(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if ctx.rowIdx < 0 {
		return Null(), fmt.Errorf("sqlexec: DELTA is not available in this context")
	}
	if len(x.Args) != 1 {
		return Null(), fmt.Errorf("sqlexec: DELTA takes (expr)")
	}
	cur, err := eval(x.Args[0], ctx)
	if err != nil {
		return Null(), err
	}
	if ctx.rowIdx == 0 || cur.IsNull() {
		return Null(), nil
	}
	prevCtx := &evalContext{rel: ctx.rel, row: ctx.rel.Rows[ctx.rowIdx-1], rowIdx: ctx.rowIdx - 1}
	prev, err := eval(x.Args[0], prevCtx)
	if err != nil {
		return Null(), err
	}
	if prev.IsNull() {
		return Null(), nil
	}
	cf, ok1 := cur.AsFloat()
	pf, ok2 := prev.AsFloat()
	if !ok1 || !ok2 {
		return Null(), fmt.Errorf("sqlexec: DELTA over non-numeric values")
	}
	return Number(cf - pf), nil
}

// evalAggregate computes an aggregate over ctx.groupRows.
func evalAggregate(x *sp.FuncCall, ctx *evalContext) (Value, error) {
	if ctx.groupRows == nil {
		return Null(), fmt.Errorf("sqlexec: aggregate %s outside GROUP BY context", x.Name)
	}
	if x.Name == "COUNT" {
		if x.IsStar || len(x.Args) == 0 {
			return Number(float64(len(ctx.groupRows))), nil
		}
		var n int
		for _, row := range ctx.groupRows {
			sub := &evalContext{rel: ctx.rel, row: row, rowIdx: -1}
			v, err := eval(x.Args[0], sub)
			if err != nil {
				return Null(), err
			}
			if !v.IsNull() {
				n++
			}
		}
		return Number(float64(n)), nil
	}
	if len(x.Args) < 1 {
		return Null(), fmt.Errorf("sqlexec: %s needs an argument", x.Name)
	}
	var vals []float64
	for _, row := range ctx.groupRows {
		sub := &evalContext{rel: ctx.rel, row: row, rowIdx: -1}
		v, err := eval(x.Args[0], sub)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		f, ok := v.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqlexec: %s over non-numeric values", x.Name)
		}
		vals = append(vals, f)
	}
	if len(vals) == 0 {
		return Null(), nil
	}
	switch x.Name {
	case "AVG":
		return Number(meanOf(vals)), nil
	case "SUM":
		var s float64
		for _, v := range vals {
			s += v
		}
		return Number(s), nil
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
		if x.Name == "VARIANCE" {
			return Number(variance), nil
		}
		return Number(math.Sqrt(variance)), nil
	case "PERCENTILE":
		if len(x.Args) != 2 {
			return Null(), fmt.Errorf("sqlexec: PERCENTILE takes (expr, fraction)")
		}
		pv, err := eval(x.Args[1], &evalContext{rel: ctx.rel, row: ctx.groupRows[0], rowIdx: -1})
		if err != nil {
			return Null(), err
		}
		frac, ok := pv.AsFloat()
		if !ok || frac < 0 || frac > 1 {
			return Null(), fmt.Errorf("sqlexec: PERCENTILE fraction must be in [0,1]")
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		pos := frac * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return Number(sorted[lo]), nil
		}
		w := pos - float64(lo)
		return Number(sorted[lo]*(1-w) + sorted[hi]*w), nil
	}
	return Null(), fmt.Errorf("sqlexec: unknown aggregate %q", x.Name)
}
