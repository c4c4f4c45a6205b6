package sqlexec

import (
	"context"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	sp "explainit/internal/sqlparse"
	"explainit/internal/tsdb"
)

// Predicate and time-range pushdown. The planner inspects the top-level
// AND-conjuncts of a WHERE clause and translates the ones that constrain a
// tsdb-shaped scan's canonical columns (metric_name, tag['k'], timestamp)
// into a ScanSpec the store can answer from its inverted indexes. The
// contract is strictly *superset*: a spec may admit rows the predicate
// rejects (glob translations widen, time bounds are padded), never the
// reverse, and the executor re-applies the full WHERE as a residual filter.
// That split is what keeps results bitwise identical to the naive
// materialize-then-filter executor while skipping non-matching series
// entirely.
//
// Every pushable form below is null-rejecting (comparisons, LIKE, GLOB and
// BETWEEN all evaluate to NULL — not true — on NULL input), so pushing
// through the probe side of LEFT/FULL OUTER joins is safe: a padded NULL
// row would fail the residual filter either way.

// ScanSpec is the pushed-down fragment of a WHERE clause for one scan, in
// the tsdb's own query vocabulary. The zero spec matches everything. From
// and To render the padded half-open time window ([From, To)) in RFC3339 so
// pinned plans read naturally.
type ScanSpec struct {
	Metric      string            `json:"metric,omitempty"`
	NamePattern string            `json:"name_pattern,omitempty"`
	Tags        map[string]string `json:"tags,omitempty"`
	TagPatterns map[string]string `json:"tag_patterns,omitempty"`
	From        string            `json:"from,omitempty"`
	To          string            `json:"to,omitempty"`

	fromT, toT     time.Time
	hasFrom, hasTo bool
}

// IsEmpty reports whether nothing was pushed down.
func (s *ScanSpec) IsEmpty() bool {
	return s == nil || (s.Metric == "" && s.NamePattern == "" && len(s.Tags) == 0 &&
		len(s.TagPatterns) == 0 && !s.hasFrom && !s.hasTo)
}

// Query translates the spec into a tsdb query. An unbounded side of the
// time window falls back to the store's open-range sentinels.
func (s *ScanSpec) Query() tsdb.Query {
	q := tsdb.Query{
		Metric:      s.Metric,
		NamePattern: s.NamePattern,
		Tags:        s.Tags,
		TagPatterns: s.TagPatterns,
	}
	if s.hasFrom || s.hasTo {
		from := time.Unix(0, 0).UTC()
		to := time.Unix(1<<62-1, 0).UTC()
		if s.hasFrom {
			from = s.fromT
		}
		if s.hasTo {
			to = s.toT
		}
		q.Range.From, q.Range.To = from, to
	}
	return q
}

// Key is the canonical cache key of the spec: equal specs — and only equal
// specs — share a scan, both inside one statement (the executor's shared
// map) and across statements (the facade's watermark-validated scan cache).
func (s *ScanSpec) Key() string {
	if s == nil {
		return "full"
	}
	var b strings.Builder
	b.WriteString("m=")
	b.WriteString(s.Metric)
	b.WriteString("|np=")
	b.WriteString(s.NamePattern)
	writeSortedMap(&b, "|t=", s.Tags)
	writeSortedMap(&b, "|tp=", s.TagPatterns)
	b.WriteString("|from=")
	b.WriteString(s.From)
	b.WriteString("|to=")
	b.WriteString(s.To)
	return b.String()
}

func writeSortedMap(b *strings.Builder, prefix string, m map[string]string) {
	b.WriteString(prefix)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
	}
}

// finalize renders the display/cache fields from the accumulated bounds.
func (s *ScanSpec) finalize() {
	if s.hasFrom {
		s.From = s.fromT.UTC().Format(time.RFC3339)
	}
	if s.hasTo {
		s.To = s.toT.UTC().Format(time.RFC3339)
	}
}

// SchemaCatalog is an optional Catalog extension that yields a table's
// schema (columns and qualifiers, no rows) without materializing it, so
// planning stays cheap for catalogs whose Table() is expensive.
type SchemaCatalog interface {
	Catalog
	// TableSchema returns a rowless relation describing the table.
	TableSchema(name string) (*Relation, error)
}

// PushdownCatalog is the pushdown-aware Catalog extension. A capable table
// exposes the canonical tsdb schema (timestamp, metric_name, tag, value)
// and can answer a ScanSpec directly from the store's inverted indexes, so
// a filtered scan never materializes non-matching series.
type PushdownCatalog interface {
	SchemaCatalog
	// CanPushdown reports whether the named table accepts ScanSpecs.
	CanPushdown(name string) bool
	// ScanTable materializes the rows admitted by spec (a superset of the
	// original predicate's matches; the executor re-filters).
	ScanTable(ctx context.Context, name string, spec ScanSpec) (*Relation, error)
	// EstimateScan estimates the matching series count from index postings
	// without scanning samples; negative means unknown.
	EstimateScan(name string, spec ScanSpec) int
}

// windowFuncs are the row-positional functions whose evaluation depends on
// the materialized input relation (ctx.rel.Rows) and the pre-filter row
// index. Any of them anywhere in a clause forces the buffered legacy path
// for that operator and disables pushdown for the statement's WHERE.
var windowFuncs = map[string]bool{"LAG": true, "MOVAVG": true, "DELTA": true}

// containsWindow walks an expression for window function calls.
func containsWindow(e sp.Expr) bool {
	found := false
	var walk func(e sp.Expr)
	walk = func(e sp.Expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *sp.FuncCall:
			if windowFuncs[x.Name] {
				found = true
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *sp.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sp.UnaryExpr:
			walk(x.X)
		case *sp.IndexExpr:
			walk(x.Base)
			walk(x.Index)
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
	return found
}

// splitAnd flattens the top-level AND tree of a predicate.
func splitAnd(e sp.Expr, out []sp.Expr) []sp.Expr {
	if b, ok := e.(*sp.BinaryExpr); ok && b.Op == "AND" {
		out = splitAnd(b.L, out)
		return splitAnd(b.R, out)
	}
	return append(out, e)
}

// timePad is how far pushed time bounds widen on each side. The SQL layer
// compares a KTime against string literals lexically through its RFC3339
// rendering (second precision) and against numbers through float unix
// seconds, so a pushed bound could otherwise clip a sample that the
// residual filter would keep; two seconds of slack strictly covers both
// roundings, and the residual WHERE restores exactness.
const timePad = 2 * time.Second

// applyPushdown distributes the pushable conjuncts of a WHERE clause onto
// the scan slots of the statement's FROM tree. schema is the full joined
// input schema — attribution resolves each column reference exactly the
// way the filter's evaluator would, so an unqualified name that is
// ambiguous across tables constrains the same scan the residual filter
// reads it from.
func applyPushdown(where sp.Expr, schema *Relation, scans []*scanSlot) {
	if len(scans) == 0 {
		return
	}
	for _, conj := range splitAnd(where, nil) {
		pushConjunct(conj, schema, scans)
	}
	for _, sl := range scans {
		if sl.pending != nil {
			sl.pending.finalize()
			sl.node.scan.spec = sl.pending
			sl.node.Pushdown = sl.pending
		}
	}
}

// scanSlot ties a pushdown-capable scan node to its column range within
// the enclosing joined schema. tsIdx/metricIdx/tagIdx are absolute column
// indexes of the canonical columns (-1 when the table lacks them).
type scanSlot struct {
	node                     *PlanNode
	lo, hi                   int
	capable                  bool
	tsIdx, metricIdx, tagIdx int
	pending                  *ScanSpec
}

func (sl *scanSlot) spec() *ScanSpec {
	if sl.pending == nil {
		sl.pending = &ScanSpec{}
	}
	return sl.pending
}

// shift moves the slot's column range when its subtree is concatenated to
// the right of a join.
func (sl *scanSlot) shift(by int) {
	sl.lo += by
	sl.hi += by
	if sl.tsIdx >= 0 {
		sl.tsIdx += by
	}
	if sl.metricIdx >= 0 {
		sl.metricIdx += by
	}
	if sl.tagIdx >= 0 {
		sl.tagIdx += by
	}
}

func pushConjunct(e sp.Expr, schema *Relation, scans []*scanSlot) {
	switch x := e.(type) {
	case *sp.BinaryExpr:
		pushBinary(x, schema, scans)
	case *sp.BetweenExpr:
		if x.Not {
			return
		}
		sl, kind, _ := resolveRef(x.X, schema, scans)
		if sl == nil || kind != colTime {
			return
		}
		lo, ok1 := timeLit(x.Lo)
		hi, ok2 := timeLit(x.Hi)
		if !ok1 || !ok2 {
			return
		}
		sl.pushFrom(lo.Add(-timePad))
		sl.pushTo(hi.Add(timePad))
	}
}

func pushBinary(x *sp.BinaryExpr, schema *Relation, scans []*scanSlot) {
	op := x.Op
	l, r := x.L, x.R
	// Normalize literal-on-left comparisons to column-on-left.
	if isLit(l) && !isLit(r) {
		l, r = r, l
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	sl, kind, tagKey := resolveRef(l, schema, scans)
	if sl == nil {
		return
	}
	switch kind {
	case colMetric:
		lit, ok := stringLit(r)
		if !ok {
			return
		}
		switch op {
		case "=":
			if lit != "" && sl.spec().Metric == "" {
				sl.spec().Metric = lit
			}
		case "LIKE":
			if g, ok := likeToGlob(lit); ok && sl.spec().NamePattern == "" {
				sl.spec().NamePattern = g
			}
		case "GLOB":
			if usefulGlob(lit) && sl.spec().NamePattern == "" {
				sl.spec().NamePattern = lit
			}
		}
	case colTag:
		lit, ok := stringLit(r)
		if !ok {
			return
		}
		switch op {
		case "=":
			if lit != "" {
				s := sl.spec()
				if s.Tags == nil {
					s.Tags = map[string]string{}
				}
				if _, exists := s.Tags[tagKey]; !exists {
					s.Tags[tagKey] = lit
				}
			}
		case "LIKE":
			if g, ok := likeToGlob(lit); ok {
				sl.pushTagPattern(tagKey, g)
			}
		case "GLOB":
			if usefulGlob(lit) {
				sl.pushTagPattern(tagKey, lit)
			}
		}
	case colTime:
		t, ok := timeLit(r)
		if !ok {
			return
		}
		switch op {
		case ">", ">=":
			sl.pushFrom(t.Add(-timePad))
		case "<", "<=":
			sl.pushTo(t.Add(timePad))
		case "=":
			sl.pushFrom(t.Add(-timePad))
			sl.pushTo(t.Add(timePad))
		}
	}
}

func (sl *scanSlot) pushTagPattern(key, glob string) {
	s := sl.spec()
	if s.TagPatterns == nil {
		s.TagPatterns = map[string]string{}
	}
	if _, exists := s.TagPatterns[key]; !exists {
		s.TagPatterns[key] = glob
	}
}

// pushFrom/pushTo intersect a new bound into the pending window (max of
// lower bounds, min of upper bounds — conjuncts intersect).
func (sl *scanSlot) pushFrom(t time.Time) {
	s := sl.spec()
	if !s.hasFrom || t.After(s.fromT) {
		s.fromT, s.hasFrom = t, true
	}
}

func (sl *scanSlot) pushTo(t time.Time) {
	s := sl.spec()
	if !s.hasTo || t.Before(s.toT) {
		s.toT, s.hasTo = t, true
	}
}

type colKind int

const (
	colNone colKind = iota
	colMetric
	colTime
	colTag
)

// resolveRef resolves a column reference expression to the scan slot that
// owns it and the canonical column kind it names. Resolution goes through
// Relation.ColumnIndex on the full joined schema — identical to how the
// residual filter's evaluator binds the same reference.
func resolveRef(e sp.Expr, schema *Relation, scans []*scanSlot) (*scanSlot, colKind, string) {
	switch x := e.(type) {
	case *sp.Ident:
		idx := schema.ColumnIndex(x.Qualifier(), x.Name())
		if idx < 0 {
			return nil, colNone, ""
		}
		for _, sl := range scans {
			if !sl.capable || idx < sl.lo || idx >= sl.hi {
				continue
			}
			switch idx {
			case sl.metricIdx:
				return sl, colMetric, ""
			case sl.tsIdx:
				return sl, colTime, ""
			}
			return nil, colNone, ""
		}
	case *sp.IndexExpr:
		base, ok := x.Base.(*sp.Ident)
		if !ok {
			return nil, colNone, ""
		}
		key, ok := stringLit(x.Index)
		if !ok {
			return nil, colNone, ""
		}
		idx := schema.ColumnIndex(base.Qualifier(), base.Name())
		if idx < 0 {
			return nil, colNone, ""
		}
		for _, sl := range scans {
			if sl.capable && idx == sl.tagIdx {
				return sl, colTag, key
			}
		}
	}
	return nil, colNone, ""
}

func isLit(e sp.Expr) bool {
	switch e.(type) {
	case *sp.StringLit, *sp.NumberLit:
		return true
	}
	return false
}

func stringLit(e sp.Expr) (string, bool) {
	if s, ok := e.(*sp.StringLit); ok {
		return s.Value, true
	}
	return "", false
}

// timeLit resolves a literal usable as a pushed time bound. Numbers are
// unix seconds (the evaluator compares KTime to KNumber numerically).
// Strings are pushed only when they round-trip through RFC3339 exactly as
// the evaluator renders a KTime (UTC, Z suffix, whole seconds) — for those
// the evaluator's lexical comparison orders chronologically, so a padded
// numeric window is a faithful superset.
func timeLit(e sp.Expr) (time.Time, bool) {
	switch x := e.(type) {
	case *sp.NumberLit:
		return time.Unix(int64(x.Value), 0).UTC(), true
	case *sp.StringLit:
		t, err := time.Parse(time.RFC3339, x.Value)
		if err != nil {
			return time.Time{}, false
		}
		if t.UTC().Format(time.RFC3339) != x.Value {
			return time.Time{}, false
		}
		return t.UTC(), true
	}
	return time.Time{}, false
}

// likeToGlob widens a LIKE pattern into the tsdb's '*' glob dialect: both
// wildcards become '*', and a literal '*' in the pattern also reads as a
// wildcard on the tsdb side — every rewrite only widens, so the result is
// always a pushable superset. Returns false when the glob would match
// everything (nothing to push).
func likeToGlob(pattern string) (string, bool) {
	g := strings.Map(func(r rune) rune {
		if r == '%' || r == '_' {
			return '*'
		}
		return r
	}, pattern)
	if !usefulGlob(g) {
		return "", false
	}
	return g, true
}

// usefulGlob reports whether a glob constrains anything at all. A pattern
// that is not valid UTF-8 is never pushed: the store would reject the scan
// up front, where the residual filter raises its own error only once it
// evaluates a row.
func usefulGlob(g string) bool {
	return g != "" && strings.Trim(g, "*") != "" && utf8.ValidString(g)
}
