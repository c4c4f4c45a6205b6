package timeseries

import (
	"fmt"
	"math"
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

// TestGridDenseDropsAndFills: Dense averages, drops the all-missing
// columns (no sample, or only samples averaging to NaN), compacts the kept
// ones in place and fills their gaps nearest-neighbour.
func TestGridDenseDropsAndFills(t *testing.T) {
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
	data, keep := g.Dense([]*Series{empty, a, nan, b})
	if fmt.Sprint(keep) != "[1 3]" {
		t.Fatalf("kept %v, want [1 3]", keep)
	}
	want := []float64{3, 1, 3, 1, 3, 3, 3, 4} // row-major, columns a and b
	if fmt.Sprint(data) != fmt.Sprint(want) {
		t.Fatalf("data %v, want %v", data, want)
	}
	if data, keep := g.Dense([]*Series{empty, nan}); data != nil || keep != nil {
		t.Fatalf("all-missing block gave %v, %v", data, keep)
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
