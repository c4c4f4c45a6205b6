package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference triple loop the kernels must agree with.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func maxAbsDiff(a, b *Matrix) float64 {
	var max float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ n, p, q int }{{3, 2, 4}, {17, 9, 5}, {130, 70, 33}, {257, 40, 1}} {
		a := GaussianMatrix(rng, shape.n, shape.p)
		b := GaussianMatrix(rng, shape.p, shape.q)
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, naiveMul(a, b)); d > 1e-10 {
			t.Fatalf("Mul %dx%dx%d differs from naive by %g", shape.n, shape.p, shape.q, d)
		}
	}
}

func TestMulTAndGramMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, shape := range []struct{ n, p int }{{5, 3}, {41, 17}, {120, 64}, {30, 90}} {
		m := GaussianMatrix(rng, shape.n, shape.p)
		b := GaussianMatrix(rng, shape.n, 7)
		want := naiveMul(m.T(), b)
		got, err := m.MulT(b)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("MulT %dx%d differs from naive by %g", shape.n, shape.p, d)
		}
		wantGram := naiveMul(m.T(), m)
		if d := maxAbsDiff(m.Gram(), wantGram); d > 1e-10 {
			t.Fatalf("Gram %dx%d differs from naive by %g", shape.n, shape.p, d)
		}
		wantOuter := naiveMul(m, m.T())
		if d := maxAbsDiff(m.GramOuter(), wantOuter); d > 1e-10 {
			t.Fatalf("GramOuter %dx%d differs from naive by %g", shape.n, shape.p, d)
		}
	}
}

// TestKernelsWorkerCountInvariant pins the determinism contract: a kernel
// must produce bitwise-identical output at any fan-out width, because each
// output cell's summation order never depends on the partition.
func TestKernelsWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := GaussianMatrix(rng, 150, 90)
	b := GaussianMatrix(rng, 90, 40)
	serial := NewMatrix(150, 40)
	mulRange(a, b, serial, 0, 150)
	for _, workers := range []int{2, 3, 8} {
		par := NewMatrix(150, 40)
		parallelRows(150, workers, func(lo, hi int) { mulRange(a, b, par, lo, hi) })
		if maxAbsDiff(par, serial) != 0 {
			t.Fatalf("mulRange differs at %d workers", workers)
		}
	}

	c := GaussianMatrix(rng, 200, 60)
	gSerial := NewMatrix(60, 60)
	gramRange(c, gSerial, 0, 60)
	for _, workers := range []int{2, 5, 60} {
		gPar := NewMatrix(60, 60)
		parallelTriangleRows(60, workers, func(lo, hi int) { gramRange(c, gPar, lo, hi) })
		if maxAbsDiff(gPar, gSerial) != 0 {
			t.Fatalf("gramRange differs at %d workers", workers)
		}
	}

	d := GaussianMatrix(rng, 120, 50)
	e := GaussianMatrix(rng, 120, 30)
	tSerial := NewMatrix(50, 30)
	mulTRange(d, e, tSerial, 0, 50)
	for _, workers := range []int{2, 7} {
		tPar := NewMatrix(50, 30)
		parallelRows(50, workers, func(lo, hi int) { mulTRange(d, e, tPar, lo, hi) })
		if maxAbsDiff(tPar, tSerial) != 0 {
			t.Fatalf("mulTRange differs at %d workers", workers)
		}
	}
}

func TestColInto(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := GaussianMatrix(rng, 9, 4)
	buf := make([]float64, 9)
	for j := 0; j < 4; j++ {
		got := m.ColInto(j, buf)
		want := m.Col(j)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("col %d row %d: %g vs %g", j, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskySPDMatchesSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := GaussianMatrix(rng, 40, 10)
	a := x.Gram().AddDiag(0.5)
	b := GaussianMatrix(rng, 10, 2)
	l, err := CholeskySPD(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCholesky(l, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(got, want) != 0 {
		t.Fatal("CholeskySPD+SolveCholesky differs from SolveSPD")
	}
}
