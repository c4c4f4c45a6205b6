package timeseries

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Columns holds one series' samples as two index-aligned, pointer-free
// columns: timestamps in Unix nanoseconds and values, 16 B per sample with
// nothing for the garbage collector to scan. It is how the store keeps a
// series and the form Grid.Average reads.
//
// The canonical sample order is by timestamp, then by the value's bits
// (math.Float64bits). It is total on samples, so duplicates of one
// timestamp — a primary-key violation the store keeps rather than
// rejects — have a single order whatever order they arrived in: a grid
// cell sums them in that order, and a scan returns them as rows in it.
type Columns struct {
	NS  []int64
	Val []float64
}

// Len returns the number of samples.
func (c *Columns) Len() int { return len(c.NS) }

// minGrowth is the capacity a first sample gets, and the least a full pair
// of columns grows by.
const minGrowth = 8

// Append adds one sample and reports whether the columns are still in
// canonical order after it, given that they were before. Full columns grow
// by a quarter of their length into new ones, not by append's doubling: a
// stored series holds at most about 1.25x its length (append leaves 1.78x
// at 288 samples). slices.Grow on a nil slice allocates the size rounded
// up to the allocator's size class and keeps the rounding as capacity, so
// the columns use every byte they hold.
func (c *Columns) Append(ns int64, v float64) (inOrder bool) {
	n := len(c.NS)
	if n == cap(c.NS) || n == cap(c.Val) {
		size := n + max(n/4, minGrowth)
		c.NS = append(slices.Grow([]int64(nil), size), c.NS...)
		c.Val = append(slices.Grow([]float64(nil), size), c.Val...)
	}
	inOrder = n == 0 || !before(ns, v, c.NS[n-1], c.Val[n-1])
	c.NS = append(c.NS, ns)
	c.Val = append(c.Val, v)
	return inOrder
}

// before reports whether sample (ns, v) precedes sample (ns2, v2) in the
// canonical order.
func before(ns int64, v float64, ns2 int64, v2 float64) bool {
	return ns < ns2 || ns == ns2 && math.Float64bits(v) < math.Float64bits(v2)
}

// Sort puts the samples in canonical order. Columns already in order, the
// store's steady state, cost one pass.
func (c *Columns) Sort() {
	for i := 1; i < len(c.NS); i++ {
		if before(c.NS[i], c.Val[i], c.NS[i-1], c.Val[i-1]) {
			sort.Sort(canonical(*c))
			return
		}
	}
}

// canonical sorts Columns in canonical order.
type canonical Columns

func (c canonical) Len() int { return len(c.NS) }
func (c canonical) Less(i, j int) bool {
	return before(c.NS[i], c.Val[i], c.NS[j], c.Val[j])
}
func (c canonical) Swap(i, j int) {
	c.NS[i], c.NS[j] = c.NS[j], c.NS[i]
	c.Val[i], c.Val[j] = c.Val[j], c.Val[i]
}

// Span returns the bounds [lo, hi) of the samples inside r, for columns in
// canonical order. An inverted range is empty; a bound beyond the int64
// nanosecond range is clamped to it (UnixNanos).
func (c *Columns) Span(r TimeRange) (lo, hi int) {
	lo, _ = slices.BinarySearch(c.NS, UnixNanos(r.From))
	hi, _ = slices.BinarySearch(c.NS, UnixNanos(r.To))
	return lo, max(lo, hi)
}

// Keep drops every sample outside [lo, hi), moving the rest into exactly
// sized columns of their own.
func (c *Columns) Keep(lo, hi int) {
	c.NS = append([]int64(nil), c.NS[lo:hi]...)
	c.Val = append([]float64(nil), c.Val[lo:hi]...)
}

// Samples materialises samples [lo, hi) as Samples, stamped in UTC with no
// monotonic reading, as a durable store returns them.
func (c *Columns) Samples(lo, hi int) []Sample {
	out := make([]Sample, hi-lo)
	for i := range out {
		out[i] = Sample{TS: time.Unix(0, c.NS[lo+i]).UTC(), Value: c.Val[lo+i]}
	}
	return out
}

// Load replaces the contents with samples, in canonical order, reusing the
// columns' memory: how a caller holding []Sample hands them to
// Grid.Average.
func (c *Columns) Load(samples []Sample) {
	n := len(samples)
	c.NS, c.Val = slices.Grow(c.NS[:0], n)[:n], slices.Grow(c.Val[:0], n)[:n]
	for k, smp := range samples {
		c.NS[k], c.Val[k] = smp.TS.UnixNano(), smp.Value
	}
	c.Sort()
}

var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// UnixNanos returns t in Unix nanoseconds, clamped to the int64 range
// (where UnixNano is undefined), so an open-ended bound such as "forever"
// still bounds every stored sample.
func UnixNanos(t time.Time) int64 {
	switch {
	case t.After(maxNanoTime):
		return math.MaxInt64
	case t.Before(minNanoTime):
		return math.MinInt64
	}
	return t.UnixNano()
}
