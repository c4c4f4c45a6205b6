package timeseries

import (
	"math"
	"testing"
	"time"
)

func TestTimeGrid(t *testing.T) {
	r := TimeRange{From: t0, To: t0.Add(5 * time.Minute)}
	grid := TimeGrid(r, time.Minute)
	if len(grid) != 5 || !grid[4].Equal(t0.Add(4*time.Minute)) {
		t.Fatalf("grid %v", grid)
	}
	if TimeGrid(r, 0) != nil {
		t.Fatal("zero step must yield nil")
	}
	if TimeGrid(TimeRange{From: t0, To: t0}, time.Minute) != nil {
		t.Fatal("empty range must yield nil grid")
	}
}

func TestAlignBasic(t *testing.T) {
	a := minuteSeries("a", nil, 1, 2, 3, 4)
	b := minuteSeries("b", nil, 10, 20, 30, 40)
	f, err := Align([]*Series{a, b}, TimeRange{From: t0, To: t0.Add(4 * time.Minute)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 4 || f.NumCols() != 2 {
		t.Fatalf("shape %dx%d", f.Rows(), f.NumCols())
	}
	if f.At(2, 0) != 3 || f.At(3, 1) != 40 {
		t.Fatal("misaligned values")
	}
	if f.Columns[0] != "a{}" {
		t.Fatalf("column id %q", f.Columns[0])
	}
}

func TestAlignAveragesBucket(t *testing.T) {
	s := &Series{Name: "m"}
	s.Append(t0, 1)
	s.Append(t0.Add(10*time.Second), 3)
	f, err := Align([]*Series{s}, TimeRange{From: t0, To: t0.Add(time.Minute)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(0, 0) != 2 {
		t.Fatalf("bucket average %g, want 2", f.At(0, 0))
	}
}

func TestAlignMissingIsNaN(t *testing.T) {
	s := &Series{Name: "m"}
	s.Append(t0, 5)
	f, err := Align([]*Series{s}, TimeRange{From: t0, To: t0.Add(3 * time.Minute)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.At(1, 0)) || !math.IsNaN(f.At(2, 0)) {
		t.Fatal("gaps must be NaN before interpolation")
	}
}

func TestAlignRejectsBadStep(t *testing.T) {
	if _, err := Align(nil, TimeRange{From: t0, To: t0.Add(time.Minute)}, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestInterpolateNearest(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(6 * time.Minute)}, time.Minute), []string{"c"})
	f.Set(1, 0, 10)
	f.Set(5, 0, 50)
	f.Interpolate()
	// Row 0 takes the value at row 1; rows 2,3 are closest to row 1
	// (ties toward earlier); row 4 is closest to row 5.
	want := []float64{10, 10, 10, 10, 50, 50}
	for i, w := range want {
		if f.At(i, 0) != w {
			t.Fatalf("row %d = %g, want %g", i, f.At(i, 0), w)
		}
	}
}

func TestInterpolateAllNaNColumn(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(3 * time.Minute)}, time.Minute), []string{"c"})
	f.Interpolate()
	for i := 0; i < 3; i++ {
		if f.At(i, 0) != 0 {
			t.Fatal("all-NaN column must fill with zero")
		}
	}
}

func TestFrameMatrix(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(2 * time.Minute)}, time.Minute), []string{"a", "b"})
	f.Set(0, 0, 1)
	f.Set(0, 1, 2)
	f.Set(1, 0, 3)
	f.Set(1, 1, 4)
	m := f.Matrix()
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 1) != 4 {
		t.Fatalf("matrix %v", m)
	}
	// Mutating the matrix must not affect the frame.
	m.Set(0, 0, 99)
	if f.At(0, 0) != 1 {
		t.Fatal("matrix must copy")
	}
}

func TestColumnByName(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(time.Minute)}, time.Minute), []string{"x", "y"})
	f.Set(0, 1, 7)
	col, ok := f.ColumnByName("y")
	if !ok || col[0] != 7 {
		t.Fatalf("col %v ok %v", col, ok)
	}
	if _, ok := f.ColumnByName("zzz"); ok {
		t.Fatal("missing column must report false")
	}
}

func TestSliceRange(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(5 * time.Minute)}, time.Minute), []string{"c"})
	for i := 0; i < 5; i++ {
		f.Set(i, 0, float64(i))
	}
	sub := f.SliceRange(TimeRange{From: t0.Add(time.Minute), To: t0.Add(4 * time.Minute)})
	if sub.Rows() != 3 || sub.At(0, 0) != 1 || sub.At(2, 0) != 3 {
		t.Fatalf("subframe rows=%d", sub.Rows())
	}
}

func TestLag(t *testing.T) {
	f := NewFrame(TimeGrid(TimeRange{From: t0, To: t0.Add(4 * time.Minute)}, time.Minute), []string{"c"})
	for i := 0; i < 4; i++ {
		f.Set(i, 0, float64(i+1))
	}
	lagged := f.Lag(2)
	want := []float64{1, 1, 1, 2}
	for i, w := range want {
		if lagged.At(i, 0) != w {
			t.Fatalf("lag row %d = %g want %g", i, lagged.At(i, 0), w)
		}
	}
	if lagged.Columns[0] != "lag2(c)" {
		t.Fatalf("lag column name %q", lagged.Columns[0])
	}
	zero := f.Lag(0)
	if zero.At(3, 0) != 4 {
		t.Fatal("lag 0 must be identity")
	}
}
