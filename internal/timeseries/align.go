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
// by all of them. A Grid is not safe for concurrent use; its Index is, and
// Fork gives each goroutine its own scratch over the same Index.
//
// Bucketing is wall-clock integer arithmetic over the half-open range
// [From, To): a sample at ts belongs to the grid only if From <= ts < To,
// compared in Unix nanoseconds, and then lands in row
// (ts.UnixNano() − From.UnixNano()) / step, so a monotonic reading on a
// sample or on the range never moves a sample. Samples may arrive in any
// order: every one is range-checked, so no caller needs to sort first.
type Grid struct {
	Index []time.Time // the grid points; never written after NewGrid

	from   int64 // the range in Unix nanoseconds, monotonic readings stripped
	to     int64
	step   int64
	counts []int32 // scratch: samples seen per row of the current column
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
		from:  wall.From.UnixNano(),
		to:    wall.To.UnixNano(),
		step:  int64(step),
	}, nil
}

// Fork returns a Grid over the same points, sharing Index, with scratch of
// its own, so several goroutines can average onto one grid at once.
func (g *Grid) Fork() *Grid {
	return &Grid{Index: g.Index, from: g.from, to: g.to, step: g.step}
}

// Rows returns the number of grid points.
func (g *Grid) Rows() int { return len(g.Index) }

// Average buckets one series' samples onto the grid and averages them in
// place into column j of dst, a row-major Rows() x stride buffer; the
// column's prior contents are ignored. Duplicates in a cell are summed in
// arrival order and divided by their count; a cell that no sample reached
// is NaN. A cell whose average is NaN (a NaN sample, or +Inf and -Inf
// together) is therefore indistinguishable from an empty one: NaN is the
// single meaning of "missing". It reports whether any cell of the column
// holds an observation.
func (g *Grid) Average(dst []float64, stride, j int, samples []Sample) (observed bool) {
	rows := int64(g.Rows())
	if rows == 0 {
		return false
	}
	if cap(g.counts) < int(rows) {
		g.counts = make([]int32, rows)
	}
	counts := g.counts[:rows]
	clear(counts)
	// Row i spans [lo, hi) nanoseconds. Sorted samples mostly land in the
	// same row as the last or the next one, which needs no division; any
	// other sample is placed by dividing, to the same row.
	i, lo, hi := int64(-1), g.from, g.from
	for _, smp := range samples {
		ns := smp.TS.UnixNano()
		if ns < g.from || ns >= g.to {
			continue
		}
		switch {
		case ns >= lo && ns < hi:
		case ns >= hi && ns-hi < g.step:
			i, lo, hi = i+1, hi, hi+g.step
		default:
			i = (ns - g.from) / g.step
			lo = g.from + i*g.step
			hi = lo + g.step
		}
		idx := int(i)*stride + j
		if counts[i] == 0 {
			dst[idx] = smp.Value
		} else {
			dst[idx] += smp.Value
		}
		counts[i]++
	}
	for i, n := range counts {
		idx := i*stride + j
		switch {
		case n == 0:
			dst[idx] = math.NaN()
			continue
		case n > 1:
			dst[idx] /= float64(n)
		}
		observed = observed || !math.IsNaN(dst[idx])
	}
	return observed
}

// Fill fills the NaN gaps of column j of dst, a row-major Rows() x stride
// buffer, with the nearest observation (see fillNearest).
func (g *Grid) Fill(dst []float64, stride, j int) {
	g.obs = fillNearest(dst, g.Rows(), stride, j, g.obs)
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
	for j, s := range series {
		g.Average(f.values, len(cols), j, s.Samples)
	}
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
	gap := 0
	for gap < rows && !math.IsNaN(data[gap*stride+j]) {
		gap++
	}
	if gap == rows {
		return obs // no gap: the common case, checked without listing rows
	}
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
