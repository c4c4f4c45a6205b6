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
	"sort"
	"sync"
	"time"

	"explainit/internal/linalg"
	"explainit/internal/sqlexec"
	ts "explainit/internal/timeseries"
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

// viz returns the sparkline of the family's lead column, rendered once.
func (f *Family) viz() string {
	f.vizOnce.Do(func() { f.sparkline = Sparkline(f.Matrix.Col(0), vizWidth) })
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
// series from the grouping.
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
// interpolates gaps, and groups columns into families using groupBy.
// Families are returned sorted by name for determinism; all of them share
// one grid (see Family.Index).
func BuildFamilies(series []*ts.Series, groupBy GroupFunc, r ts.TimeRange, step time.Duration) ([]*Family, error) {
	names, groups := groupSeries(series, groupBy)
	families := make([]*Family, 0, len(names))
	if len(names) == 0 {
		return families, nil
	}
	grid, err := ts.NewGrid(r, step)
	if err != nil {
		return nil, fmt.Errorf("core: aligning family %q: %w", names[0], err)
	}
	for _, name := range names {
		if fam := materialise(grid, name, groups[name]); fam != nil {
			families = append(families, fam)
		}
	}
	return families, nil
}

// groupSeries buckets series by family name in arrival order, dropping
// those groupBy maps to "", and returns the names sorted.
func groupSeries(series []*ts.Series, groupBy GroupFunc) ([]string, map[string][]*ts.Series) {
	groups := make(map[string][]*ts.Series)
	var names []string
	for _, s := range series {
		g := groupBy(s)
		if g == "" {
			continue
		}
		if _, ok := groups[g]; !ok {
			names = append(names, g)
		}
		groups[g] = append(groups[g], s)
	}
	sort.Strings(names)
	return names, groups
}

// materialise builds one family from its series on the build's shared grid:
// the samples are averaged straight into the family's matrix, all-missing
// columns dropped and gaps filled in place. It returns nil when no series
// has an observation in range.
func materialise(grid *ts.Grid, name string, series []*ts.Series) *Family {
	data, keep := grid.Dense(series)
	if len(keep) == 0 {
		return nil
	}
	cols := make([]string, len(keep))
	for nj, j := range keep {
		cols[nj] = series[j].ID()
	}
	return &Family{
		Name:    name,
		Columns: cols,
		Index:   grid.Index,
		Matrix:  &linalg.Matrix{Rows: grid.Rows(), Cols: len(keep), Data: data},
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
	for _, name := range famNames {
		display := name
		if display == "" {
			display = "*"
		}
		if fam := materialise(grid, display, groups[name]); fam != nil {
			families = append(families, fam)
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
