// Package linalg implements dense linear algebra on row-major matrices.
//
// It is the "dense array" substrate of ExplainIt! (§4.2 of the paper): all
// feature-family data is materialised into contiguous row-major float64
// buffers before any regression or correlation is computed. The package is
// deliberately small: matrices, products, symmetric solves (Cholesky) and
// Gaussian sampling are all that the scoring pipeline needs.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Data is stored in a single
// contiguous slice so that row i, column j lives at Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// ErrShape is returned (wrapped) when matrix dimensions do not conform.
var ErrShape = errors.New("linalg: dimension mismatch")

// ErrSingular is returned when a factorisation meets a non-positive pivot.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// FromColumns builds a matrix whose j-th column is cols[j]. All columns must
// have equal length. The data is copied.
func FromColumns(cols [][]float64) (*Matrix, error) {
	if len(cols) == 0 {
		return NewMatrix(0, 0), nil
	}
	rows := len(cols[0])
	m := NewMatrix(rows, len(cols))
	for j, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("%w: column %d has %d rows, want %d", ErrShape, j, len(c), rows)
		}
		for i, v := range c {
			m.Data[i*m.Cols+j] = v
		}
	}
	return m, nil
}

// Resize reshapes m in place to a zeroed rows x cols matrix and returns it,
// reusing the backing array when it is large enough — how scratch matrices
// in hot loops are recycled without allocating.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	m.Data = growFloats(m.Data, rows*cols)
	clear(m.Data)
	m.Rows, m.Cols = rows, cols
	return m
}

// growFloats returns buf resliced to length n, reallocating only when its
// capacity is too small. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	return m.ColInto(j, make([]float64, m.Rows))
}

// ColInto copies column j into dst (which must have length m.Rows) and
// returns dst. It is the allocation-free variant of Col for hot loops that
// reuse a scratch buffer.
func (m *Matrix) ColInto(j int, dst []float64) []float64 {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: ColInto dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m * b. Large products run cache-blocked
// across GOMAXPROCS goroutines; each output cell always accumulates over k
// in ascending order, so results are identical at any worker count.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	out := new(Matrix)
	if err := m.MulInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto is Mul writing the product into out, which is resized to fit.
func (m *Matrix) MulInto(b, out *Matrix) error {
	if m.Cols != b.Rows {
		return fmt.Errorf("%w: (%dx%d) * (%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out.Resize(m.Rows, b.Cols)
	if workers := kernelWorkers(m.Rows * m.Cols * b.Cols); workers > 1 {
		parallelRows(m.Rows, workers, func(lo, hi int) {
			mulRange(m, b, out, lo, hi)
		})
	} else {
		mulRange(m, b, out, 0, m.Rows)
	}
	return nil
}

// MulT returns m^T * b without materialising the transpose.
func (m *Matrix) MulT(b *Matrix) (*Matrix, error) {
	out := new(Matrix)
	if err := m.MulTInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MulTInto is MulT writing the product into out, which is resized to fit.
func (m *Matrix) MulTInto(b, out *Matrix) error {
	if m.Rows != b.Rows {
		return fmt.Errorf("%w: (%dx%d)^T * (%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out.Resize(m.Cols, b.Cols)
	if workers := kernelWorkers(m.Rows * m.Cols * b.Cols); workers > 1 {
		parallelRows(m.Cols, workers, func(lo, hi int) {
			mulTRange(m, b, out, lo, hi)
		})
	} else {
		mulTRange(m, b, out, 0, m.Cols)
	}
	return nil
}

// Gram returns m^T * m, the p x p Gram matrix (p = m.Cols).
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	// Upper triangle only: roughly half the full product's flops.
	workers := kernelWorkers(m.Rows * m.Cols * m.Cols / 2)
	parallelTriangleRows(m.Cols, workers, func(lo, hi int) {
		gramRange(m, out, lo, hi)
	})
	mirrorUpper(out)
	return out
}

// GramOuter returns m * m^T, the n x n outer Gram matrix (n = m.Rows). Used
// by the dual-form ridge solver when features outnumber observations.
func (m *Matrix) GramOuter() *Matrix {
	out := NewMatrix(m.Rows, m.Rows)
	workers := kernelWorkers(m.Rows * m.Rows * m.Cols / 2)
	parallelTriangleRows(m.Rows, workers, func(lo, hi int) {
		gramOuterRange(m, out, lo, hi)
	})
	mirrorUpper(out)
	return out
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: (%dx%d) + (%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: (%dx%d) - (%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddDiag adds v to every diagonal element in place and returns m. It is how
// the ridge penalty λI enters the normal equations.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// SliceRows returns a new matrix holding rows [from, to).
func (m *Matrix) SliceRows(from, to int) (*Matrix, error) {
	if from < 0 || to > m.Rows || from > to {
		return nil, fmt.Errorf("%w: rows [%d,%d) of %dx%d", ErrShape, from, to, m.Rows, m.Cols)
	}
	out := NewMatrix(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out, nil
}

// SelectRows returns a new matrix holding the given rows, in order.
func (m *Matrix) SelectRows(idx []int) (*Matrix, error) {
	out := NewMatrix(len(idx), m.Cols)
	for i, r := range idx {
		if r < 0 || r >= m.Rows {
			return nil, fmt.Errorf("%w: row %d of %dx%d", ErrShape, r, m.Rows, m.Cols)
		}
		copy(out.Row(i), m.Row(r))
	}
	return out, nil
}

// HStack concatenates matrices horizontally (same row count).
func HStack(ms ...*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return NewMatrix(0, 0), nil
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			return nil, fmt.Errorf("%w: hstack rows %d vs %d", ErrShape, m.Rows, rows)
		}
		cols += m.Cols
	}
	out := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out, nil
}

// ColMeans returns the mean of each column. An empty matrix yields nil.
func (m *Matrix) ColMeans() []float64 {
	if m.Rows == 0 {
		return nil
	}
	return m.ColMeansInto(make([]float64, m.Cols))
}

// ColMeansInto is ColMeans writing into means (length m.Cols), which it
// returns; an empty matrix yields zeros.
func (m *Matrix) ColMeansInto(means []float64) []float64 {
	clear(means)
	if m.Rows == 0 {
		return means
	}
	// One flat pass with a running column index: each column still sums its
	// rows in ascending order, without a per-row inner loop to set up.
	j := 0
	for _, v := range m.Data {
		means[j] += v
		if j++; j == len(means) {
			j = 0
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// ColStds returns the population standard deviation of each column given the
// column means.
func (m *Matrix) ColStds(means []float64) []float64 {
	stds := make([]float64, m.Cols)
	if m.Rows == 0 {
		return stds
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] * inv)
	}
	return stds
}

// CenterColumns subtracts the given per-column means in place and returns m.
func (m *Matrix) CenterColumns(means []float64) *Matrix {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
	return m
}

// StandardizeColumns centres each column and divides by its standard
// deviation (columns with ~zero variance are left centred only). It returns
// the means and stds used so the transform can be applied to held-out data.
func (m *Matrix) StandardizeColumns() (means, stds []float64) {
	means = m.ColMeans()
	stds = m.ColStds(means)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
			if stds[j] > 1e-12 {
				row[j] /= stds[j]
			}
		}
	}
	return means, stds
}

// ApplyStandardization applies a previously computed column transform.
func (m *Matrix) ApplyStandardization(means, stds []float64) *Matrix {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
			if stds[j] > 1e-12 {
				row[j] /= stds[j]
			}
		}
	}
	return m
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and all elements are
// within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)", m.Rows, m.Cols)
	if m.Rows > maxShow || m.Cols > maxShow {
		return b.String()
	}
	for i := 0; i < m.Rows; i++ {
		b.WriteString("\n  [")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}
