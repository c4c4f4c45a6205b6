package sqlexec

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"explainit/internal/ctxpoll"
	"explainit/internal/obs"
)

// Volcano-style streaming executor. Each physical operator is an iterator
// with Open/Next/Close; Next returns (row, src) where src is the
// originating input row the legacy executor threaded alongside projections
// (ORDER BY falls back to it for unprojected input columns), or (nil, nil)
// at end of stream. Operators pull rows one at a time — only the
// explicitly buffered ones (legacy window-function fallbacks, sort, join
// builds) materialize anything, and top-k ORDER BY+LIMIT keeps a bounded
// heap instead of the full input.
//
// Cancellation: leaf iterators poll the context through ctxpoll on every
// Next stride, so a cancelled request stops mid-scan instead of finishing
// the pipeline.

// execCtx carries per-execution state: the cancellation context, catalog,
// Explainer, and the per-statement shared materialization cache that backs
// common-subexpression elimination (identical scans and embedded EXPLAINs
// run once per statement regardless of how many times they appear).
type execCtx struct {
	ctx    context.Context
	cat    Catalog
	ex     Explainer
	shared map[string]*Relation
}

func (ec *execCtx) withCtx(ctx context.Context) *execCtx {
	c := *ec
	c.ctx = ctx
	return &c
}

type iterator interface {
	Open(ec *execCtx) error
	Next() (row, src []Value, err error)
	Close()
}

// ExecutePlan runs a physical plan to completion and materializes the
// result relation. The plan itself is immutable; all run state lives in
// the iterator tree, so one plan may execute concurrently.
func ExecutePlan(ctx context.Context, plan *Plan, cat Catalog, ex Explainer) (*Relation, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("sqlexec: empty plan")
	}
	ec := &execCtx{ctx: ctx, cat: cat, ex: ex, shared: make(map[string]*Relation)}
	it := newIterator(plan.Root)
	defer it.Close()
	if err := it.Open(ec); err != nil {
		return nil, err
	}
	out := &Relation{Cols: plan.Root.schema.Cols, Quals: plan.Root.schema.Quals}
	for {
		row, _, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out.Rows = append(out.Rows, row)
	}
}

// newIterator builds the iterator for a node, wrapped in a trace span
// matching the operator name so ?trace=1 and the slow-query log show
// per-operator breakdowns.
func newIterator(n *PlanNode) iterator {
	var inner iterator
	switch n.Op {
	case opValues:
		inner = &valuesIter{}
	case opScan:
		inner = &scanIter{n: n}
	case opFilter:
		inner = &filterIter{n: n, child: newIterator(n.Children[0])}
	case opProject:
		inner = &projectIter{n: n, child: newIterator(n.Children[0])}
	case opAggregate:
		inner = &aggIter{n: n, child: newIterator(n.Children[0])}
	case opDistinct:
		inner = &distinctIter{n: n, child: newIterator(n.Children[0])}
	case opSort:
		inner = &sortIter{n: n, child: newIterator(n.Children[0])}
	case opTopK:
		inner = &topkIter{n: n, child: newIterator(n.Children[0])}
	case opLimit:
		inner = &limitIter{n: n, child: newIterator(n.Children[0])}
	case opHashJoin:
		inner = newHashJoinIter(n)
	case opNestedJoin:
		inner = newNLJoinIter(n)
	case opUnion:
		children := make([]iterator, len(n.Children))
		for i, c := range n.Children {
			children[i] = newIterator(c)
		}
		inner = &unionIter{n: n, children: children}
	case opExplain:
		inner = &explainIter{n: n}
	case opExplainPlan:
		inner = &explainPlanIter{n: n}
	default:
		inner = &errIter{err: fmt.Errorf("sqlexec: unknown operator %q", n.Op)}
	}
	return &spanIter{name: "sql_" + n.Op, inner: inner}
}

// drainIter pulls an opened iterator to exhaustion.
func drainIter(it iterator) (rows, srcs [][]Value, err error) {
	for {
		row, src, err := it.Next()
		if err != nil {
			return nil, nil, err
		}
		if row == nil {
			return rows, srcs, nil
		}
		rows = append(rows, row)
		srcs = append(srcs, src)
	}
}

// spanIter wraps an operator in an obs span spanning Open..Close; child
// operators open under the span's context so traces nest by plan shape.
type spanIter struct {
	name  string
	inner iterator
	end   func()
}

func (s *spanIter) Open(ec *execCtx) error {
	ctx, end := obs.StartSpan(ec.ctx, s.name)
	s.end = end
	return s.inner.Open(ec.withCtx(ctx))
}

func (s *spanIter) Next() ([]Value, []Value, error) { return s.inner.Next() }

func (s *spanIter) Close() {
	s.inner.Close()
	if s.end != nil {
		s.end()
		s.end = nil
	}
}

type errIter struct{ err error }

func (e *errIter) Open(*execCtx) error             { return e.err }
func (e *errIter) Next() ([]Value, []Value, error) { return nil, nil, e.err }
func (e *errIter) Close()                          {}

// valuesIter emits the single empty row of a FROM-less SELECT.
type valuesIter struct{ done bool }

func (v *valuesIter) Open(*execCtx) error { return nil }
func (v *valuesIter) Next() ([]Value, []Value, error) {
	if v.done {
		return nil, nil, nil
	}
	v.done = true
	row := []Value{}
	return row, row, nil
}
func (v *valuesIter) Close() {}

// scanIter materializes a table scan — through the pushdown catalog when a
// spec was planned, else the plain catalog — and streams its rows. The
// materialization is cached in the per-statement shared map keyed by
// (table, spec): every further scan with the same key in this statement
// reuses it (CSE), which metScanShared counts.
type scanIter struct {
	n    *PlanNode
	rows [][]Value
	i    int
	poll ctxpoll.Poll
}

func (s *scanIter) Open(ec *execCtx) error {
	op := s.n.scan
	rel, ok := ec.shared[op.key]
	if ok {
		metScanShared.Inc()
	} else {
		var err error
		if op.spec != nil {
			pc := ec.cat.(PushdownCatalog)
			rel, err = pc.ScanTable(ec.ctx, op.table, *op.spec)
		} else {
			rel, err = ec.cat.Table(op.table)
		}
		if err != nil {
			return err
		}
		ec.shared[op.key] = rel
	}
	s.rows = rel.Rows
	s.poll = ctxpoll.New(ec.ctx, 256)
	return nil
}

func (s *scanIter) Next() ([]Value, []Value, error) {
	if err := s.poll.Check(); err != nil {
		return nil, nil, err
	}
	if s.i >= len(s.rows) {
		return nil, nil, nil
	}
	row := s.rows[s.i]
	s.i++
	return row, row, nil
}

func (s *scanIter) Close() {}

// filterIter applies the residual WHERE. Streaming mode evaluates the
// compiled predicate against each row with its running pre-filter index;
// buffered mode materializes the input first so window functions see it
// whole.
type filterIter struct {
	n     *PlanNode
	child iterator

	env  evalEnv
	poll ctxpoll.Poll

	buffered bool
	rows     [][]Value
	pos      int
}

func (f *filterIter) Open(ec *execCtx) error {
	op := f.n.filter
	if err := f.child.Open(ec); err != nil {
		return err
	}
	f.poll = ctxpoll.New(ec.ctx, 256)
	if op.streaming {
		return nil
	}
	f.buffered = true
	rows, _, err := drainIter(f.child)
	if err != nil {
		return err
	}
	f.rows, err = filterRows(op.pred, rows)
	return err
}

func (f *filterIter) Next() ([]Value, []Value, error) {
	if f.buffered {
		if f.pos >= len(f.rows) {
			return nil, nil, nil
		}
		row := f.rows[f.pos]
		f.pos++
		return row, row, nil
	}
	pred := f.n.filter.pred
	for {
		if err := f.poll.Check(); err != nil {
			return nil, nil, err
		}
		row, src, err := f.child.Next()
		if err != nil || row == nil {
			return nil, nil, err
		}
		f.env.row = row
		v, err := pred(&f.env)
		f.env.idx++
		if err != nil {
			return nil, nil, err
		}
		if v.Truthy() {
			return row, src, nil
		}
	}
}

func (f *filterIter) Close() { f.child.Close() }

// projectIter evaluates the SELECT items. Buffered mode projects the
// materialized input positionally (window functions).
type projectIter struct {
	n     *PlanNode
	child iterator

	env evalEnv

	buffered bool
	rows     [][]Value
	srcs     [][]Value
	pos      int
}

func (p *projectIter) Open(ec *execCtx) error {
	op := p.n.proj
	if err := p.child.Open(ec); err != nil {
		return err
	}
	if op.streaming {
		return nil
	}
	p.buffered = true
	rows, _, err := drainIter(p.child)
	if err != nil {
		return err
	}
	p.rows, p.srcs, err = projectRows(op.items, p.n.schema.NumCols(), rows)
	return err
}

func (p *projectIter) Next() ([]Value, []Value, error) {
	if p.buffered {
		if p.pos >= len(p.rows) {
			return nil, nil, nil
		}
		row, src := p.rows[p.pos], p.srcs[p.pos]
		p.pos++
		return row, src, nil
	}
	row, _, err := p.child.Next()
	if err != nil || row == nil {
		return nil, nil, err
	}
	p.env.row = row
	out, err := project(p.n.proj.items, p.n.schema.NumCols(), &p.env)
	p.env.idx++
	if err != nil {
		return nil, nil, err
	}
	return out, row, nil
}

func (p *projectIter) Close() { p.child.Close() }

// aggGroup is the streaming per-group state: first row, row count, and one
// accumulator per aggregate slot.
type aggGroup struct {
	first []Value
	n     int
	slots []slotState
}

type slotState struct {
	vals  []float64
	count int // COUNT(arg): non-null count
}

// aggIter executes GROUP BY / aggregate projections. Streaming mode
// accumulates slot state in one pass and hands the finalized values to the
// compiled items through evalEnv.aggs; buffered mode materializes the input
// and groups it whole (window functions, SELECT * errors, lazily positioned
// aggregates).
type aggIter struct {
	n     *PlanNode
	child iterator

	rows [][]Value // finalized output
	srcs [][]Value
	pos  int
}

func (a *aggIter) Open(ec *execCtx) error {
	op := a.n.agg
	if err := a.child.Open(ec); err != nil {
		return err
	}
	if !op.streaming {
		rows, _, err := drainIter(a.child)
		if err != nil {
			return err
		}
		a.rows, a.srcs, err = op.g.run(rows)
		return err
	}
	return a.runStreaming(ec)
}

func (a *aggIter) runStreaming(ec *execCtx) error {
	g := a.n.agg.g
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var h rowHasher
	env := &evalEnv{}
	poll := ctxpoll.New(ec.ctx, 256)
	for i := 0; ; i++ {
		if err := poll.Check(); err != nil {
			return err
		}
		row, _, err := a.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		env.row, env.idx = row, i
		h.buf = h.buf[:0]
		for ki, key := range g.keys {
			v, err := key(env)
			if err != nil {
				return err
			}
			if ki > 0 {
				h.buf = append(h.buf, '\x1f')
			}
			h.buf = appendValueKey(h.buf, v)
		}
		grp, ok := groups[string(h.buf)]
		if !ok {
			grp = &aggGroup{first: row, slots: make([]slotState, len(g.slots))}
			groups[string(h.buf)] = grp
			order = append(order, grp)
		}
		grp.n++
		env.idx = -1
		for si, slot := range g.slots {
			if err := slot.accumulate(&grp.slots[si], env); err != nil {
				return err
			}
		}
	}
	// Aggregates without GROUP BY over an empty input evaluate once against
	// a NULL row with no group and no slots — where aggregates report that
	// they are outside a GROUP BY context.
	if len(order) == 0 && len(g.keys) == 0 {
		nrow := nullRow(g.width)
		out, err := g.row(&evalEnv{row: nrow, idx: -1})
		if err != nil {
			return err
		}
		a.rows = [][]Value{out}
		a.srcs = [][]Value{nrow}
		return nil
	}
	for _, grp := range order {
		aggs := make([]Value, len(g.slots))
		for si, slot := range g.slots {
			v, err := slot.finalize(&grp.slots[si], grp.n, grp.first)
			if err != nil {
				return err
			}
			aggs[si] = v
		}
		out, err := g.row(&evalEnv{row: grp.first, idx: -1, aggs: aggs})
		if err != nil {
			return err
		}
		a.rows = append(a.rows, out)
		a.srcs = append(a.srcs, grp.first)
	}
	return nil
}

func (a *aggIter) Next() ([]Value, []Value, error) {
	if a.pos >= len(a.rows) {
		return nil, nil, nil
	}
	row, src := a.rows[a.pos], a.srcs[a.pos]
	a.pos++
	return row, src, nil
}

func (a *aggIter) Close() { a.child.Close() }

// distinctIter streams hash-based DISTINCT, sharing the hasher with the
// join code (composite keys identical to the legacy Key()-join strings).
type distinctIter struct {
	n     *PlanNode
	child iterator
	seen  map[string]struct{}
	h     rowHasher
}

func (d *distinctIter) Open(ec *execCtx) error {
	d.seen = make(map[string]struct{})
	return d.child.Open(ec)
}

func (d *distinctIter) Next() ([]Value, []Value, error) {
	for {
		row, src, err := d.child.Next()
		if err != nil || row == nil {
			return nil, nil, err
		}
		key := d.h.rowKey(row)
		if _, dup := d.seen[string(key)]; dup {
			continue
		}
		d.seen[string(key)] = struct{}{}
		return row, src, nil
	}
}

func (d *distinctIter) Close() { d.child.Close() }

// sortIter is the blocking ORDER BY: it materializes its input and sorts it
// with the legacy executor's orderRows, preserving its exact key-resolution
// and error semantics (including the nil-src quirk after an all-duplicate
// DISTINCT).
type sortIter struct {
	n     *PlanNode
	child iterator
	rows  [][]Value
	pos   int
}

func (s *sortIter) Open(ec *execCtx) error {
	op := s.n.sorter
	if err := s.child.Open(ec); err != nil {
		return err
	}
	rows, srcs, err := drainIter(s.child)
	if err != nil {
		return err
	}
	if srcs == nil && !op.distinctUpstream {
		srcs = [][]Value{}
	}
	if err := orderRows(rows, srcs, op.keys); err != nil {
		return err
	}
	s.rows = rows
	return nil
}

func (s *sortIter) Next() ([]Value, []Value, error) {
	if s.pos >= len(s.rows) {
		return nil, nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil, nil
}

func (s *sortIter) Close() { s.child.Close() }

// topkEntry is one kept row with its evaluated sort keys and arrival
// sequence (the stable-sort tiebreak).
type topkEntry struct {
	row  []Value
	keys []Value
	seq  int
}

// topkHeap is a max-heap by sort order: the root is the worst kept entry,
// popped whenever a better row arrives.
type topkHeap struct {
	entries []topkEntry
	keys    []orderKey
}

// before reports whether a sorts strictly before b in the final order
// (ties broken by arrival order, which makes the order total and the
// result identical to a stable sort).
func (h *topkHeap) before(a, b *topkEntry) bool {
	if c := compareKeys(h.keys, a.keys, b.keys); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (h *topkHeap) Len() int           { return len(h.entries) }
func (h *topkHeap) Less(i, j int) bool { return h.before(&h.entries[j], &h.entries[i]) }
func (h *topkHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *topkHeap) Push(x interface{}) { h.entries = append(h.entries, x.(topkEntry)) }
func (h *topkHeap) Pop() interface{} {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries = h.entries[:n-1]
	return e
}

// topkIter fuses ORDER BY with LIMIT k: a bounded heap keeps the k best
// rows seen so far, never buffering the full input. Keys resolve as
// compileOrder classified them at plan time (output columns, else the
// originating input row), exactly as the blocking sort does.
type topkIter struct {
	n     *PlanNode
	child iterator
	out   []topkEntry
	pos   int
}

func (t *topkIter) Open(ec *execCtx) error {
	op := t.n.topk
	if err := t.child.Open(ec); err != nil {
		return err
	}
	h := &topkHeap{keys: op.keys}
	seq := 0
	env := &evalEnv{idx: -1}
	for {
		row, src, err := t.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keys := make([]Value, len(op.keys))
		for j, k := range op.keys {
			env.row = row
			if !k.useOutput {
				env.row = src
			}
			v, err := k.fn(env)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		e := topkEntry{row: row, keys: keys, seq: seq}
		seq++
		if op.k <= 0 {
			continue
		}
		if h.Len() < op.k {
			heap.Push(h, e)
		} else if h.before(&e, &h.entries[0]) {
			h.entries[0] = e
			heap.Fix(h, 0)
		}
	}
	// Replicate the legacy nil-src error: DISTINCT that deduplicated away
	// every row leaves input-resolved keys with nothing to bind against.
	if seq == 0 && op.distinctUpstream {
		for j := range op.keys {
			if !op.keys[j].useOutput {
				return op.keys[j].notFound()
			}
		}
	}
	t.out = h.entries
	sort.Slice(t.out, func(i, j int) bool { return h.before(&t.out[i], &t.out[j]) })
	return nil
}

func (t *topkIter) Next() ([]Value, []Value, error) {
	if t.pos >= len(t.out) {
		return nil, nil, nil
	}
	row := t.out[t.pos].row
	t.pos++
	return row, nil, nil
}

func (t *topkIter) Close() { t.child.Close() }

// limitIter stops pulling its child after n rows, short-circuiting the
// upstream pipeline.
type limitIter struct {
	n      *PlanNode
	child  iterator
	served int
}

func (l *limitIter) Open(ec *execCtx) error { return l.child.Open(ec) }

func (l *limitIter) Next() ([]Value, []Value, error) {
	if l.served >= l.n.limiter.n {
		return nil, nil, nil
	}
	row, src, err := l.child.Next()
	if err != nil || row == nil {
		return nil, nil, err
	}
	l.served++
	return row, src, nil
}

func (l *limitIter) Close() { l.child.Close() }

// unionIter concatenates its arms. Each arm past the first is drained
// fully before its column-count check, matching the legacy error ordering;
// without UNION ALL, rows dedup progressively against everything emitted —
// equivalent to the legacy dedup-after-every-arm since that dedup is
// idempotent and order-preserving.
type unionIter struct {
	n        *PlanNode
	children []iterator

	ec      *execCtx
	armIdx  int
	arm     []([]Value)
	armPos  int
	started bool
	seen    map[string]struct{}
	h       rowHasher
}

func (u *unionIter) Open(ec *execCtx) error {
	u.ec = ec
	if !u.n.union.all {
		u.seen = make(map[string]struct{})
	}
	return nil
}

func (u *unionIter) Next() ([]Value, []Value, error) {
	for {
		if u.started && u.armPos < len(u.arm) {
			row := u.arm[u.armPos]
			u.armPos++
			if u.seen != nil {
				key := u.h.rowKey(row)
				if _, dup := u.seen[string(key)]; dup {
					continue
				}
				u.seen[string(key)] = struct{}{}
			}
			return row, row, nil
		}
		if u.armIdx >= len(u.children) {
			return nil, nil, nil
		}
		child := u.children[u.armIdx]
		if err := child.Open(u.ec); err != nil {
			return nil, nil, err
		}
		rows, _, err := drainIter(child)
		if err != nil {
			return nil, nil, err
		}
		if u.armIdx > 0 {
			want := u.n.schema.NumCols()
			got := u.n.Children[u.armIdx].schema.NumCols()
			if got != want {
				return nil, nil, fmt.Errorf("sqlexec: UNION arms have %d vs %d columns", want, got)
			}
		}
		u.arm = rows
		u.armPos = 0
		u.armIdx++
		u.started = true
	}
}

func (u *unionIter) Close() {
	for _, c := range u.children {
		c.Close()
	}
}

// explainIter dispatches an embedded or top-level EXPLAIN ranking through
// the Explainer, caching the relation in the statement's shared map so a
// dashboard query referencing the same ranking twice runs it once.
type explainIter struct {
	n    *PlanNode
	rows [][]Value
	pos  int
}

func (e *explainIter) Open(ec *execCtx) error {
	op := e.n.expl
	if ec.ex == nil {
		return fmt.Errorf("sqlexec: EXPLAIN requires a ranking engine (no Explainer configured)")
	}
	rel, ok := ec.shared[op.key]
	if ok {
		metExplainShared.Inc()
	} else {
		plan, err := CompileExplain(op.stmt)
		if err != nil {
			return err
		}
		if plan.Standing() {
			return planErrorf("standing query (EVERY) cannot run as a relational statement; use Watch or POST /api/v1/watch")
		}
		rel, err = ec.ex.ExplainRelation(ec.ctx, plan)
		if err != nil {
			return err
		}
		ec.shared[op.key] = rel
	}
	e.rows = rel.Rows
	return nil
}

func (e *explainIter) Next() ([]Value, []Value, error) {
	if e.pos >= len(e.rows) {
		return nil, nil, nil
	}
	row := e.rows[e.pos]
	e.pos++
	return row, row, nil
}

func (e *explainIter) Close() {}

// explainPlanIter renders the inner statement's physical plan as one JSON
// row — the EXPLAIN PLAN result.
type explainPlanIter struct {
	n    *PlanNode
	rows [][]Value
	pos  int
}

func (e *explainPlanIter) Open(ec *execCtx) error {
	b, err := e.n.explPl.inner.JSON()
	if err != nil {
		return err
	}
	e.rows = [][]Value{{Str(string(b))}}
	return nil
}

func (e *explainPlanIter) Next() ([]Value, []Value, error) {
	if e.pos >= len(e.rows) {
		return nil, nil, nil
	}
	row := e.rows[e.pos]
	e.pos++
	return row, row, nil
}

func (e *explainPlanIter) Close() {}
