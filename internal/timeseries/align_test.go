package timeseries

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestAlignWallClock: a range and samples stamped by time.Now() carry
// monotonic clock readings, a durable store's reopened data does not. Both
// must align identically — same grid, bit for bit, and same cells — so an
// in-memory store and a durable one materialise the same families.
func TestAlignWallClock(t *testing.T) {
	from := time.Now()
	if from == from.Round(0) {
		t.Skip("the clock reports no monotonic reading")
	}
	step := 10 * time.Millisecond
	r := TimeRange{From: from, To: from.Add(25 * step)}
	mono := &Series{Name: "m"}
	for i := 0; i < 40; i++ {
		// Offsets straddle bucket edges and both range ends.
		mono.Append(from.Add(time.Duration(i-5)*3*time.Millisecond+time.Duration(i%3)), float64(i))
	}
	mono.Append(time.Now(), 99) // a genuine second clock reading
	wall := &Series{Name: "m"}
	for _, smp := range mono.Samples {
		wall.Append(smp.TS.Round(0), smp.Value)
	}
	got, err := Align([]*Series{mono}, r, step)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Align([]*Series{wall}, TimeRange{From: r.From.Round(0), To: r.To.Round(0)}, step)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("%d rows, wall-clock twin %d", got.Rows(), want.Rows())
	}
	for i := range got.Index {
		if got.Index[i] != want.Index[i] {
			t.Fatalf("index[%d] = %#v, wall-clock twin %#v", i, got.Index[i], want.Index[i])
		}
	}
	for i := range got.values {
		if math.Float64bits(got.values[i]) != math.Float64bits(want.values[i]) {
			t.Fatalf("cell %d = %v, wall-clock twin %v", i, got.values[i], want.values[i])
		}
	}
}

// TestGridAverageAndFill: Average buckets and averages one column of a
// row-major block, reports whether it holds an observation (no sample, or
// only samples averaging to NaN, is none) and leaves the other columns
// alone; Fill closes the gaps nearest-neighbour.
func TestGridAverageAndFill(t *testing.T) {
	g, err := NewGrid(TimeRange{From: t0, To: t0.Add(4 * time.Minute)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Series{Name: "empty"}
	nan := &Series{Name: "nan"}
	nan.Append(t0, math.Inf(1))
	nan.Append(t0.Add(time.Second), math.Inf(-1))
	a := &Series{Name: "a"}
	a.Append(t0.Add(time.Minute), 2)
	a.Append(t0.Add(time.Minute+time.Second), 4)
	b := minuteSeries("b", nil, 1, math.NaN(), 3, 4)
	average := func(data []float64, j int, s *Series) bool {
		var in Columns
		in.Load(s.Samples)
		return g.Average(data, 2, j, in.NS, in.Val)
	}
	data := make([]float64, 4*2)
	for j, s := range []*Series{empty, nan} {
		if average(data, j, s) {
			t.Fatalf("%s: observed", s.Name)
		}
	}
	if !average(data, 0, a) || !average(data, 1, b) {
		t.Fatal("an observed column reported none")
	}
	if want := "[NaN 1 3 NaN NaN 3 NaN 4]"; fmt.Sprint(data) != want {
		t.Fatalf("averaged %v, want %v", data, want)
	}
	g.Fill(data, 2, 0)
	g.Fill(data, 2, 1)
	if want := "[3 1 3 1 3 3 3 4]"; fmt.Sprint(data) != want {
		t.Fatalf("filled %v, want %v", data, want)
	}
}

// TestGridAverageUnsorted: the range is checked on every sample, so
// unsorted columns average exactly as their canonical copy does and a
// stray in (From - step, From) stays out of row 0. A binary search of the
// range assumes sorted input: on these samples it dropped the 2 at +60s
// and folded the 8 at -30s into row 0.
func TestGridAverageUnsorted(t *testing.T) {
	g, err := NewGrid(TimeRange{From: t0, To: t0.Add(3 * time.Minute)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int64{t0.Add(time.Minute).UnixNano(), t0.Add(-30 * time.Second).UnixNano(), t0.UnixNano()}
	val := []float64{2, 8, 1}
	sorted := Columns{NS: slices.Clone(ns), Val: slices.Clone(val)}
	sorted.Sort()
	for _, c := range []Columns{{NS: ns, Val: val}, sorted} {
		col := make([]float64, g.Rows())
		g.Average(col, 1, 0, c.NS, c.Val)
		if want := "[1 2 NaN]"; fmt.Sprint(col) != want {
			t.Fatalf("averaged %v, want %v", col, want)
		}
	}
}

// TestSeriesIDMatchesNaive pins the single-allocation ID rendering to the
// obvious concatenation, including tag sets too large for its stack buffer.
func TestSeriesIDMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 3, 8, 9, 20} {
		tags := Tags{}
		for i := 0; i < n; i++ {
			tags[fmt.Sprintf("k%02d", (i*7)%n)] = fmt.Sprintf("v%d", i)
		}
		keys := make([]string, 0, n)
		for k := range tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + tags[k]
		}
		want := "m{" + strings.Join(parts, ",") + "}"
		if got := (&Series{Name: "m", Tags: tags}).ID(); got != want {
			t.Fatalf("%d tags: ID %q, want %q", n, got, want)
		}
	}
}
