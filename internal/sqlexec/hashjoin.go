package sqlexec

import (
	"math"
	"strconv"

	sp "explainit/internal/sqlparse"
)

// Hash-join and hash-dedup machinery. A rowHasher builds the same
// composite keys the legacy executor produced with per-value Key() strings
// joined on \x1f, but into one reused byte buffer — equality classes are
// identical, allocation drops to the map-insert copy for novel keys only.

type rowHasher struct {
	buf []byte
}

// appendValueKey mirrors Value.Key() byte for byte.
func appendValueKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KNull:
		return append(dst, "\x00null"...)
	case KNumber:
		dst = append(dst, 'n', ':')
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(dst, int64(v.F), 10)
		}
		return strconv.AppendFloat(dst, v.F, 'g', 17, 64)
	case KTime:
		dst = append(dst, 't', ':')
		return strconv.AppendInt(dst, v.T.UnixNano(), 10)
	default:
		dst = append(dst, 's', ':')
		return append(dst, v.AsString()...)
	}
}

// rowKey writes the composite key of a full row into the reused buffer.
// The returned slice is only valid until the next call.
func (h *rowHasher) rowKey(row []Value) []byte {
	h.buf = h.buf[:0]
	for i, v := range row {
		if i > 0 {
			h.buf = append(h.buf, '\x1f')
		}
		h.buf = appendValueKey(h.buf, v)
	}
	return h.buf
}

// joinKey evaluates the compiled key expressions for one side of an
// equi-join over row (env is the caller's reused context). A NULL key value
// short-circuits to ("", false): NULL never matches, and later key
// expressions are not evaluated.
func joinKey(h *rowHasher, keys []exprFn, env *evalEnv, row []Value) (string, bool, error) {
	env.row, env.idx = row, -1
	h.buf = h.buf[:0]
	for i, key := range keys {
		v, err := key(env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil
		}
		if i > 0 {
			h.buf = append(h.buf, '\x1f')
		}
		h.buf = appendValueKey(h.buf, v)
	}
	return string(h.buf), true, nil
}

func combineRows(l, r []Value) []Value {
	out := make([]Value, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// hashJoinIter executes an equi-join. The classic shape builds a presized
// table on the right input and streams the left (probe) side, emitting
// left-major output with matches in right-input order — exactly the legacy
// hashJoin row order, including LEFT/FULL padding and the FULL flush of
// unmatched build rows. When the planner chose buildLeft (INNER only, left
// estimated smaller), the build/probe roles swap but emission is reordered
// back to left-major so output is bitwise identical.
type hashJoinIter struct {
	n *PlanNode

	left, right iterator
	h           rowHasher
	env         evalEnv

	// classic (build right)
	rightRows    [][]Value
	table        map[string][]int
	rightMatched []bool
	curLeft      []Value
	curMatches   []int
	mi           int
	leftDone     bool
	flushIdx     int

	// reverse (build left)
	leftRows [][]Value
	buckets  [][][]Value // per left row: matched right rows in arrival order
	li       int
	bi       int

	opened bool
}

func newHashJoinIter(n *PlanNode) *hashJoinIter {
	return &hashJoinIter{
		n:     n,
		left:  newIterator(n.Children[0]),
		right: newIterator(n.Children[1]),
	}
}

func (it *hashJoinIter) Open(ec *execCtx) error {
	it.opened = true
	if it.n.join.buildLeft {
		return it.openReverse(ec)
	}
	return it.openClassic(ec)
}

func (it *hashJoinIter) openClassic(ec *execCtx) error {
	op := it.n.join
	if err := it.right.Open(ec); err != nil {
		return err
	}
	rows, _, err := drainIter(it.right)
	if err != nil {
		return err
	}
	it.rightRows = rows
	it.table = make(map[string][]int, len(rows))
	for i, row := range rows {
		key, ok, err := joinKey(&it.h, op.rkeys, &it.env, row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		it.table[key] = append(it.table[key], i)
	}
	it.rightMatched = make([]bool, len(rows))
	return it.left.Open(ec)
}

func (it *hashJoinIter) openReverse(ec *execCtx) error {
	op := it.n.join
	if err := it.left.Open(ec); err != nil {
		return err
	}
	lrows, _, err := drainIter(it.left)
	if err != nil {
		return err
	}
	it.leftRows = lrows
	it.table = make(map[string][]int, len(lrows))
	for i, row := range lrows {
		key, ok, err := joinKey(&it.h, op.lkeys, &it.env, row)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		it.table[key] = append(it.table[key], i)
	}
	it.buckets = make([][][]Value, len(lrows))
	if err := it.right.Open(ec); err != nil {
		return err
	}
	for {
		rrow, _, err := it.right.Next()
		if err != nil {
			return err
		}
		if rrow == nil {
			break
		}
		key, ok, err := joinKey(&it.h, op.rkeys, &it.env, rrow)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		for _, li := range it.table[key] {
			it.buckets[li] = append(it.buckets[li], rrow)
		}
	}
	return nil
}

func (it *hashJoinIter) Next() ([]Value, []Value, error) {
	if it.n.join.buildLeft {
		return it.nextReverse()
	}
	return it.nextClassic()
}

func (it *hashJoinIter) nextClassic() ([]Value, []Value, error) {
	op := it.n.join
	jt := op.join.Type
	for {
		if it.curMatches != nil && it.mi < len(it.curMatches) {
			ri := it.curMatches[it.mi]
			it.mi++
			it.rightMatched[ri] = true
			row := combineRows(it.curLeft, it.rightRows[ri])
			return row, row, nil
		}
		it.curMatches = nil
		if it.leftDone {
			if jt == sp.JoinFullOuter {
				for it.flushIdx < len(it.rightRows) {
					ri := it.flushIdx
					it.flushIdx++
					if !it.rightMatched[ri] {
						row := combineRows(nullRow(op.left.NumCols()), it.rightRows[ri])
						return row, row, nil
					}
				}
			}
			return nil, nil, nil
		}
		lrow, _, err := it.left.Next()
		if err != nil {
			return nil, nil, err
		}
		if lrow == nil {
			it.leftDone = true
			continue
		}
		key, ok, err := joinKey(&it.h, op.lkeys, &it.env, lrow)
		if err != nil {
			return nil, nil, err
		}
		var matches []int
		if ok {
			matches = it.table[key]
		}
		if len(matches) == 0 {
			if jt == sp.JoinLeft || jt == sp.JoinFullOuter {
				row := combineRows(lrow, nullRow(op.right.NumCols()))
				return row, row, nil
			}
			continue
		}
		it.curLeft = lrow
		it.curMatches = matches
		it.mi = 0
	}
}

func (it *hashJoinIter) nextReverse() ([]Value, []Value, error) {
	for it.li < len(it.leftRows) {
		b := it.buckets[it.li]
		if it.bi < len(b) {
			row := combineRows(it.leftRows[it.li], b[it.bi])
			it.bi++
			return row, row, nil
		}
		it.li++
		it.bi = 0
	}
	return nil, nil, nil
}

func (it *hashJoinIter) Close() {
	if !it.opened {
		return
	}
	it.left.Close()
	it.right.Close()
}

// nlJoinIter materializes both inputs and runs the legacy nested-loop join
// (non-equi ON conditions).
type nlJoinIter struct {
	n           *PlanNode
	left, right iterator
	rows        [][]Value
	pos         int
	opened      bool
}

func newNLJoinIter(n *PlanNode) *nlJoinIter {
	return &nlJoinIter{
		n:     n,
		left:  newIterator(n.Children[0]),
		right: newIterator(n.Children[1]),
	}
}

func (it *nlJoinIter) Open(ec *execCtx) error {
	it.opened = true
	op := it.n.join
	if err := it.left.Open(ec); err != nil {
		return err
	}
	lrows, _, err := drainIter(it.left)
	if err != nil {
		return err
	}
	if err := it.right.Open(ec); err != nil {
		return err
	}
	rrows, _, err := drainIter(it.right)
	if err != nil {
		return err
	}
	rows, err := nestedLoopJoin(op, lrows, rrows)
	if err != nil {
		return err
	}
	it.rows = rows
	return nil
}

func (it *nlJoinIter) Next() ([]Value, []Value, error) {
	if it.pos >= len(it.rows) {
		return nil, nil, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, row, nil
}

func (it *nlJoinIter) Close() {
	if !it.opened {
		return
	}
	it.left.Close()
	it.right.Close()
}
