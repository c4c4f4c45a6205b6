// Package core implements ExplainIt!'s primary contribution: scoring and
// ranking causal hypotheses (X, Y, Z) over feature families of time series
// (§3 of the paper). A feature family groups univariate metrics into a
// human-relatable unit (§3.2); a hypothesis asks whether family X explains
// target Y after controlling for Z (§3.3); scorers quantify the conditional
// dependence (§3.5); and the engine ranks thousands of hypotheses in
// parallel, one hypothesis per worker (§4).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"explainit/internal/linalg"
	"explainit/internal/sqlexec"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// Family is a named group of aligned univariate metrics: a T x F dense block
// sharing one time index.
type Family struct {
	Name    string
	Columns []string // one identifier per feature column
	// Index is the time grid (nil for raw matrices). Every family of one
	// build shares the same backing array, so it is read-only: never write
	// to it, and sub-slice (as SliceRows does) rather than copy.
	Index  []time.Time
	Matrix *linalg.Matrix

	// The Score Table's viz column depends only on the family, so it is
	// rendered on first use and reused by every ranking that scores it. A
	// rebuilt family is a new value and renders its own.
	vizOnce   sync.Once
	sparkline string
}

// vizWidth is the width of the Score Table's sparkline column.
const vizWidth = 32

// viz returns the sparkline of the family's lead column, rendered once and
// read in place: the matrix is row-major, so column 0 is every Cols-th cell.
func (f *Family) viz() string {
	f.vizOnce.Do(func() { f.sparkline = sparkline(f.Matrix.Data, f.Matrix.Rows, f.Matrix.Cols, vizWidth) })
	return f.sparkline
}

// NumFeatures returns F, the number of metric columns.
func (f *Family) NumFeatures() int { return f.Matrix.Cols }

// NumRows returns T, the number of time points.
func (f *Family) NumRows() int { return f.Matrix.Rows }

// Validate checks internal consistency: the shape (validateShape) and that
// every cell is finite.
func (f *Family) Validate() error {
	if err := f.validateShape(); err != nil {
		return err
	}
	if !finite(f.Matrix.Data) {
		return fmt.Errorf("core: family %q contains non-finite values (interpolate first)", f.Name)
	}
	return nil
}

// finite reports whether no value is NaN or ±Inf.
func finite(data []float64) bool {
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// validateShape is Validate without the scan of every cell: a matrix, one
// name per column, one index entry per row.
func (f *Family) validateShape() error {
	if f.Matrix == nil {
		return fmt.Errorf("core: family %q has no data", f.Name)
	}
	if len(f.Columns) != f.Matrix.Cols {
		return fmt.Errorf("core: family %q has %d column names for %d columns", f.Name, len(f.Columns), f.Matrix.Cols)
	}
	if f.Index != nil && len(f.Index) != f.Matrix.Rows {
		return fmt.Errorf("core: family %q has %d index entries for %d rows", f.Name, len(f.Index), f.Matrix.Rows)
	}
	return nil
}

// GroupFunc assigns a series to a family name. Returning "" drops the
// series from the grouping. A store build (BuildFamiliesFromStore) runs it
// under a shard's read lock, concurrently for different shards: it must not
// retain or modify the series, nor call into the store.
type GroupFunc func(*ts.Series) string

// GroupByMetricName groups series by their metric name — the default
// grouping used throughout the paper's case studies.
func GroupByMetricName(s *ts.Series) string { return s.Name }

// GroupByTag returns a GroupFunc grouping by one tag key, producing families
// like *{host=datanode-1}; series missing the tag group under
// "{key=NULL}" as in §3.2.
func GroupByTag(key string) GroupFunc {
	return func(s *ts.Series) string {
		v, ok := s.Tags[key]
		if !ok {
			return "*{" + key + "=NULL}"
		}
		return "*{" + key + "=" + v + "}"
	}
}

// BuildFamilies aligns series onto a regular grid over r at the given step,
// interpolates gaps, and groups columns into families using groupBy; within
// a family the columns keep the order of series. Families are returned
// sorted by name for determinism; all of them share one grid (see
// Family.Index).
func BuildFamilies(series []*ts.Series, groupBy GroupFunc, r ts.TimeRange, step time.Duration) ([]*Family, error) {
	fams, _, err := buildFamilies(1, func(visit visitFunc) int {
		for _, s := range series {
			visit(0, "", s, s.Samples)
		}
		return len(series)
	}, groupBy, r, step)
	return fams, err
}

// BuildFamiliesFromStore is BuildFamilies over every series of db with a
// sample in r, read in place (tsdb.DB.Visit): each shard's series are
// averaged onto the grid under that shard's read lock, with no copy of the
// store's samples. The families are bitwise those of BuildFamilies over
// db.Run's result for r, at any shard count. It also returns the number of
// series read.
func BuildFamiliesFromStore(db *tsdb.DB, groupBy GroupFunc, r ts.TimeRange, step time.Duration) ([]*Family, int, error) {
	return buildFamilies(db.NumShards(), func(visit visitFunc) int { return db.Visit(r, visit) }, groupBy, r, step)
}

// visitFunc receives one series of a build: the source part (goroutine)
// handing it over, its ID ("" to render it), the series and the samples to
// average (any order; the grid range-checks each).
type visitFunc func(part int, id string, s *ts.Series, in []ts.Sample)

// buildFamilies is the one family builder. visitAll hands every series to
// its visitFunc, concurrently across parts and serially within one, and
// returns how many it handed over; the source's order is each part's own
// order, merged across parts by ID.
//
// Phase 1, inside the visit (for a store, under the shard's lock): groupBy
// names the series' family and the grid averages the series onto a column
// of its own, with scratch per part. Columns with no observation are
// dropped on the spot. Phase 2: the columns are put in the source's order,
// grouped by family (sorted by name, columns in source order), gap-filled
// and laid out T x F; a single column is its family's matrix, uncopied.
func buildFamilies(parts int, visitAll func(visitFunc) int, groupBy GroupFunc, r ts.TimeRange, step time.Duration) ([]*Family, int, error) {
	grid, gridErr := ts.NewGrid(r, step)
	ps := make([]familyPart, parts)
	n := visitAll(func(part int, id string, s *ts.Series, in []ts.Sample) {
		ps[part].add(grid, id, groupBy(s), s, in)
	})
	lists := make([][]column, parts)
	for i := range ps {
		lists[i] = ps[i].cols
	}
	cols := tsdb.MergeByID(lists, func(c column) string { return c.id })
	if gridErr != nil {
		if len(cols) == 0 {
			return []*Family{}, n, nil
		}
		first := cols[0].family
		for _, c := range cols {
			first = min(first, c.family)
		}
		return nil, n, fmt.Errorf("core: aligning family %q: %w", first, gridErr)
	}
	for k := range cols {
		cols[k].seq = k
	}
	slices.SortFunc(cols, func(a, b column) int {
		if c := strings.Compare(a.family, b.family); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	families := make([]*Family, 0)
	for lo := 0; lo < len(cols); {
		hi := lo + 1
		for hi < len(cols) && cols[hi].family == cols[lo].family {
			hi++
		}
		families = append(families, newFamily(grid, cols[lo].family, cols[lo:hi]))
		lo = hi
	}
	return families, n, nil
}

// column is one series averaged onto the build's grid.
type column struct {
	id, family string
	data       []float64 // Rows() cells; nil when the build has no grid
	seq        int       // position in the source's order
}

// familyPart is one part's phase-1 state: its grid scratch and the columns
// it kept, in the part's order.
type familyPart struct {
	grid *ts.Grid
	cols []column
}

// add averages one series into a column of the family named family ("":
// dropped). Without a grid only the family name is kept, for the error.
func (p *familyPart) add(grid *ts.Grid, id, family string, s *ts.Series, in []ts.Sample) {
	switch {
	case family == "":
		return
	case grid == nil:
		p.cols = append(p.cols, column{family: family})
		return
	case p.grid == nil:
		p.grid = grid.Fork()
	}
	data := make([]float64, grid.Rows())
	if !p.grid.Average(data, 1, 0, in) {
		return
	}
	if id == "" {
		id = s.ID()
	}
	p.cols = append(p.cols, column{id: id, family: family, data: data})
}

// newFamily lays one family out from its columns, in order: each column's
// gaps are filled with the nearest observation and the columns interleaved
// row-major T x F. A single column is the matrix itself, not a copy.
func newFamily(grid *ts.Grid, name string, cols []column) *Family {
	rows, k := grid.Rows(), len(cols)
	names := make([]string, k)
	data := cols[0].data
	if k > 1 {
		data = make([]float64, rows*k)
	}
	for j, c := range cols {
		names[j] = c.id
		grid.Fill(c.data, 1, 0)
		if k > 1 {
			for i, v := range c.data {
				data[i*k+j] = v
			}
		}
	}
	return &Family{
		Name:    name,
		Columns: names,
		Index:   grid.Index,
		Matrix:  &linalg.Matrix{Rows: rows, Cols: k, Data: data},
	}
}

// FamilyFromColumns builds a family directly from named columns of values
// (all the same length).
func FamilyFromColumns(name string, cols map[string][]float64) (*Family, error) {
	keys := make([]string, 0, len(cols))
	for k := range cols {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	data := make([][]float64, 0, len(keys))
	for _, k := range keys {
		data = append(data, cols[k])
	}
	m, err := linalg.FromColumns(data)
	if err != nil {
		return nil, fmt.Errorf("core: family %q: %w", name, err)
	}
	return &Family{Name: name, Columns: keys, Matrix: m}, nil
}

// FamiliesFromRelation pivots a SQL result into feature families: rows are
// keyed by (timeCol, keyCol); every remaining numeric column becomes one
// feature of the family named by keyCol's value. This is the bridge from
// stage-1 SQL queries (Appendix C) to the scoring pipeline — the Feature
// Family Table of Figure 4. Missing (time, key) combinations are
// interpolated to the closest observation.
func FamiliesFromRelation(rel *sqlexec.Relation, timeCol, keyCol string, r ts.TimeRange, step time.Duration) ([]*Family, error) {
	famNames, groups, err := pivotRelation(rel, timeCol, keyCol)
	if err != nil {
		return nil, err
	}
	var families []*Family
	if len(famNames) == 0 {
		return families, nil
	}
	grid, err := ts.NewGrid(r, step)
	if err != nil {
		return nil, err
	}
	var p familyPart
	for _, name := range famNames {
		display := name
		if display == "" {
			display = "*"
		}
		p.cols = p.cols[:0]
		for _, s := range groups[name] {
			p.add(grid, "", display, s, s.Samples)
		}
		if len(p.cols) > 0 {
			families = append(families, newFamily(grid, display, p.cols))
		}
	}
	return families, nil
}

// pivotRelation turns a relation into one sorted synthetic series per
// (key, feature) pair, grouped by key; the keys are returned sorted.
func pivotRelation(rel *sqlexec.Relation, timeCol, keyCol string) ([]string, map[string][]*ts.Series, error) {
	tIdx := rel.ColumnIndex("", timeCol)
	if tIdx < 0 {
		return nil, nil, fmt.Errorf("core: relation has no time column %q", timeCol)
	}
	kIdx := -1
	if keyCol != "" {
		kIdx = rel.ColumnIndex("", keyCol)
		if kIdx < 0 {
			return nil, nil, fmt.Errorf("core: relation has no key column %q", keyCol)
		}
	}
	// Feature columns: everything except time and key.
	var featIdx []int
	var featNames []string
	for i, c := range rel.Cols {
		if i == tIdx || i == kIdx {
			continue
		}
		featIdx = append(featIdx, i)
		featNames = append(featNames, c)
	}
	if len(featIdx) == 0 {
		return nil, nil, fmt.Errorf("core: relation has no feature columns")
	}
	// Build one synthetic series per (key, feature) pair.
	seriesByID := make(map[string]*ts.Series)
	var order []string
	for _, row := range rel.Rows {
		tv := row[tIdx]
		var at time.Time
		switch tv.Kind {
		case sqlexec.KTime:
			at = tv.T
		case sqlexec.KNumber:
			at = time.Unix(int64(tv.F), 0).UTC()
		default:
			continue // NULL timestamps from outer joins are dropped
		}
		key := ""
		if kIdx >= 0 {
			if row[kIdx].IsNull() {
				continue
			}
			key = row[kIdx].AsString()
		}
		for fi, ci := range featIdx {
			v := row[ci]
			if v.IsNull() {
				continue
			}
			f, ok := v.AsFloat()
			if !ok {
				continue
			}
			id := key + "\x1f" + featNames[fi]
			s, ok := seriesByID[id]
			if !ok {
				s = &ts.Series{Name: featNames[fi], Tags: ts.Tags{"family": key}}
				seriesByID[id] = s
				order = append(order, id)
			}
			s.Append(at, f)
		}
	}
	sort.Strings(order)
	groups := make(map[string][]*ts.Series)
	var famNames []string
	for _, id := range order {
		s := seriesByID[id]
		s.Sort()
		key := s.Tags["family"]
		if _, ok := groups[key]; !ok {
			famNames = append(famNames, key)
		}
		groups[key] = append(groups[key], s)
	}
	sort.Strings(famNames)
	return famNames, groups, nil
}

// ConcatFamilies merges several families into one (for multi-family Z
// conditioning sets). All families must share the same row count.
func ConcatFamilies(name string, fams []*Family) (*Family, error) {
	if len(fams) == 0 {
		return nil, fmt.Errorf("core: no families to concatenate")
	}
	mats := make([]*linalg.Matrix, len(fams))
	var cols []string
	for i, f := range fams {
		mats[i] = f.Matrix
		for _, c := range f.Columns {
			cols = append(cols, f.Name+"/"+c)
		}
	}
	m, err := linalg.HStack(mats...)
	if err != nil {
		return nil, fmt.Errorf("core: concatenating families: %w", err)
	}
	return &Family{Name: name, Columns: cols, Index: fams[0].Index, Matrix: m}, nil
}

// SliceRows returns a copy of the family restricted to rows [from, to).
func (f *Family) SliceRows(from, to int) (*Family, error) {
	m, err := f.Matrix.SliceRows(from, to)
	if err != nil {
		return nil, err
	}
	var idx []time.Time
	if f.Index != nil {
		idx = f.Index[from:to]
	}
	return &Family{Name: f.Name, Columns: f.Columns, Index: idx, Matrix: m}, nil
}

// RowsInRange returns the row indices whose timestamps fall within r.
// Families without an index return nil.
func (f *Family) RowsInRange(r ts.TimeRange) []int {
	if f.Index == nil {
		return nil
	}
	var rows []int
	for i, at := range f.Index {
		if r.Contains(at) {
			rows = append(rows, i)
		}
	}
	return rows
}
