package timeseries

import (
	"fmt"
	"math"
	"time"

	"explainit/internal/linalg"
)

// Frame is a set of named columns aligned on a shared time index: the dense
// multivariate representation that hypothesis scoring consumes. Missing
// observations are NaN until Interpolate fills them.
type Frame struct {
	Index   []time.Time // shared, strictly increasing time grid
	Columns []string    // column identifiers (series IDs)
	values  []float64   // row-major: values[i*len(Columns)+j]
}

// NewFrame allocates a frame with the given index and columns, all NaN.
func NewFrame(index []time.Time, columns []string) *Frame {
	f := &Frame{
		Index:   index,
		Columns: columns,
		values:  make([]float64, len(index)*len(columns)),
	}
	for i := range f.values {
		f.values[i] = math.NaN()
	}
	return f
}

// Rows returns the number of time points.
func (f *Frame) Rows() int { return len(f.Index) }

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.Columns) }

// At returns the value at row i, column j.
func (f *Frame) At(i, j int) float64 { return f.values[i*len(f.Columns)+j] }

// Set assigns the value at row i, column j.
func (f *Frame) Set(i, j int, v float64) { f.values[i*len(f.Columns)+j] = v }

// Column returns a copy of column j's values.
func (f *Frame) Column(j int) []float64 {
	out := make([]float64, f.Rows())
	for i := range out {
		out[i] = f.At(i, j)
	}
	return out
}

// ColumnByName returns a copy of the named column and whether it exists.
func (f *Frame) ColumnByName(name string) ([]float64, bool) {
	for j, c := range f.Columns {
		if c == name {
			return f.Column(j), true
		}
	}
	return nil, false
}

// Matrix converts the frame into a dense linalg matrix (copying values).
func (f *Frame) Matrix() *linalg.Matrix {
	m := linalg.NewMatrix(f.Rows(), f.NumCols())
	copy(m.Data, f.values)
	return m
}

// Interpolate fills NaN gaps per column with the closest non-null
// observation (nearest-neighbour, ties resolved toward the earlier sample),
// matching the missing-value policy in Appendix C of the paper. Columns that
// are entirely NaN are filled with zero.
func (f *Frame) Interpolate() {
	var obs []int
	for j := 0; j < f.NumCols(); j++ {
		obs = fillNearest(f.values, f.Rows(), f.NumCols(), j, obs)
	}
}

// SliceRange returns a sub-frame restricted to rows whose timestamps fall in
// the given range (sharing no storage with f).
func (f *Frame) SliceRange(r TimeRange) *Frame {
	lo, hi := 0, f.Rows()
	for lo < hi && !r.Contains(f.Index[lo]) {
		lo++
	}
	for hi > lo && !r.Contains(f.Index[hi-1]) {
		hi--
	}
	out := NewFrame(f.Index[lo:hi], f.Columns)
	copy(out.values, f.values[lo*f.NumCols():hi*f.NumCols()])
	return out
}

// Lag returns a new frame whose columns are shifted forward by k steps
// (values at row i come from row i-k); the first k rows of each column are
// filled with the earliest available value. This implements the SQL LAG
// feature used to prepare lagged predictors (§3.5 footnote).
func (f *Frame) Lag(k int) *Frame {
	if k <= 0 {
		out := NewFrame(f.Index, f.Columns)
		copy(out.values, f.values)
		return out
	}
	cols := make([]string, f.NumCols())
	for j, c := range f.Columns {
		cols[j] = fmt.Sprintf("lag%d(%s)", k, c)
	}
	out := NewFrame(f.Index, cols)
	for i := 0; i < f.Rows(); i++ {
		src := i - k
		if src < 0 {
			src = 0
		}
		for j := 0; j < f.NumCols(); j++ {
			out.Set(i, j, f.At(src, j))
		}
	}
	return out
}
