package timeseries

import (
	"fmt"
	"math"
	"time"
)

// TimeGrid builds a regular grid over [r.From, r.To) at the given step. The
// grid is wall-clock only: monotonic clock readings on the range are
// stripped, so an in-memory store's time.Now()-stamped range and a durable
// store's reopened one yield identical grids.
func TimeGrid(r TimeRange, step time.Duration) []time.Time {
	from := r.From.Round(0)
	span := r.To.Round(0).Sub(from)
	if step <= 0 || span <= 0 {
		return nil
	}
	n := int(span / step)
	if span%step != 0 {
		n++
	}
	grid := make([]time.Time, n)
	for i := range grid {
		grid[i] = from.Add(time.Duration(i) * step)
	}
	return grid
}

// Grid is one regular time grid plus the scratch to materialise series onto
// it: the single bucketing/averaging and gap-filling implementation behind
// Align, Frame.Interpolate and the feature-family build. One Grid serves
// every family of a build, so Index is allocated once and shared, read-only,
// by all of them. A Grid is not safe for concurrent use; its Index is.
//
// Bucketing is wall-clock integer arithmetic: a sample at ts lands in row
// (ts.UnixNano() − From.UnixNano()) / step, truncated toward zero, so a
// monotonic reading on a sample or on the range never moves a sample.
type Grid struct {
	Index []time.Time // the grid points; never written after NewGrid

	r      TimeRange // the range, monotonic readings stripped
	from   int64     // r.From in Unix nanoseconds
	step   int64
	counts []int32 // scratch: samples seen per cell of the current block
	keep   []int   // scratch: columns of the current block with data
	obs    []int   // scratch: observed rows of the column being filled
}

// NewGrid builds the grid over r at the given step (see TimeGrid).
func NewGrid(r TimeRange, step time.Duration) (*Grid, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %v", step)
	}
	wall := TimeRange{From: r.From.Round(0), To: r.To.Round(0)}
	return &Grid{
		Index: TimeGrid(wall, step),
		r:     wall,
		from:  wall.From.UnixNano(),
		step:  int64(step),
	}, nil
}

// Rows returns the number of grid points.
func (g *Grid) Rows() int { return len(g.Index) }

// average buckets every series' in-range samples onto the grid and averages
// them in place: dst is row-major Rows() x len(series), one column per
// series in order, and its prior contents are ignored. Duplicates in a cell
// are summed in arrival order and divided by their count; a cell that no
// sample reached is NaN. A cell whose average is NaN (a NaN sample, or
// +Inf and -Inf together) is therefore indistinguishable from an empty one:
// NaN is the single meaning of "missing".
func (g *Grid) average(dst []float64, series []*Series) {
	rows, c := int64(g.Rows()), len(series)
	if rows == 0 {
		return // an empty or inverted range: Slice would not be well defined
	}
	if cap(g.counts) < len(dst) {
		g.counts = make([]int32, len(dst))
	}
	counts := g.counts[:len(dst)]
	clear(counts)
	for j, s := range series {
		for _, smp := range s.Slice(g.r) {
			// Slice bounds the range only on a sorted series; the row check
			// keeps an unsorted one's strays out.
			i := (smp.TS.UnixNano() - g.from) / g.step
			if i < 0 || i >= rows {
				continue
			}
			idx := int(i)*c + j
			if counts[idx] == 0 {
				dst[idx] = smp.Value
			} else {
				dst[idx] += smp.Value
			}
			counts[idx]++
		}
	}
	for idx, n := range counts {
		switch {
		case n == 0:
			dst[idx] = math.NaN()
		case n > 1:
			dst[idx] /= float64(n)
		}
	}
}

// Dense materialises one block of series as a gap-free row-major matrix
// payload: average onto the grid, drop the columns with no observed cell,
// then fill every remaining gap with the nearest observation — all on one
// freshly allocated buffer, which is returned. keep lists the indices of
// the series that kept a column, in order; it is scratch owned by the Grid
// and valid until the next call. When no series has an observed cell both
// results are nil.
func (g *Grid) Dense(series []*Series) (data []float64, keep []int) {
	rows, c := g.Rows(), len(series)
	data = make([]float64, rows*c)
	g.average(data, series)
	keep = g.keep[:0]
	for j := 0; j < c; j++ {
		for i := j; i < len(data); i += c {
			if !math.IsNaN(data[i]) {
				keep = append(keep, j)
				break
			}
		}
	}
	g.keep = keep
	k := len(keep)
	if k == 0 {
		return nil, nil
	}
	if k < c {
		// Compact in place: row i, kept column nj moves from i*c+j down to
		// i*k+nj, never past a cell still to be read.
		for i := 0; i < rows; i++ {
			for nj, j := range keep {
				data[i*k+nj] = data[i*c+j]
			}
		}
		data = data[:rows*k]
	}
	for j := 0; j < k; j++ {
		g.obs = fillNearest(data, rows, k, j, g.obs)
	}
	return data, keep
}

// Align places the given series onto a regular grid over r with the given
// step. Each sample is bucketed to its flooring grid point; multiple samples
// in a bucket are averaged. Grid points with no samples are NaN.
func Align(series []*Series, r TimeRange, step time.Duration) (*Frame, error) {
	g, err := NewGrid(r, step)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(series))
	for j, s := range series {
		cols[j] = s.ID()
	}
	f := &Frame{Index: g.Index, Columns: cols, values: make([]float64, g.Rows()*len(cols))}
	g.average(f.values, series)
	return f, nil
}

// fillNearest fills the NaN gaps of column j of a row-major rows x stride
// buffer with the closest observed (non-NaN) value in that column:
// nearest-neighbour, ties resolved toward the earlier sample, matching the
// missing-value policy in Appendix C of the paper. A column with no
// observation is filled with zero. obs is scratch for the observed row
// indices; the (possibly grown) slice is returned for reuse.
func fillNearest(data []float64, rows, stride, j int, obs []int) []int {
	obs = obs[:0]
	for i := 0; i < rows; i++ {
		if !math.IsNaN(data[i*stride+j]) {
			obs = append(obs, i)
		}
	}
	if len(obs) == 0 {
		for i := 0; i < rows; i++ {
			data[i*stride+j] = 0
		}
		return obs
	}
	if len(obs) == rows {
		return obs
	}
	k := 0 // index into obs of the nearest observation at or before i
	for i := 0; i < rows; i++ {
		if !math.IsNaN(data[i*stride+j]) {
			continue
		}
		for k+1 < len(obs) && obs[k+1] < i {
			k++
		}
		// Candidates: obs[k] (could be after i when i precedes all
		// observations) and the next observation.
		best := obs[k]
		if k+1 < len(obs) {
			next := obs[k+1]
			if abs(next-i) < abs(best-i) {
				best = next
			}
		}
		data[i*stride+j] = data[best*stride+j]
	}
	return obs
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
