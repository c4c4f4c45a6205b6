package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD returns a random symmetric positive definite n x n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := GaussianMatrix(rng, n+5, n)
	return a.Gram().AddDiag(0.5)
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !l.GramOuter().Equal(a, 1e-8) {
			t.Fatalf("L L^T != A for n=%d", n)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatal("cholesky factor not lower triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	b := NewMatrix(2, 3)
	if _, err := Cholesky(b); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

// A NaN cell makes a pivot NaN, which "d <= 0" would let through into a NaN
// factor: both Cholesky and the jittered retries of CholeskySPD must report
// ErrSingular instead.
func TestCholeskyRejectsNaN(t *testing.T) {
	for _, cell := range [][2]int{{0, 0}, {1, 0}, {2, 2}} {
		a := randomSPD(rand.New(rand.NewSource(18)), 3)
		a.Set(cell[0], cell[1], math.NaN())
		a.Set(cell[1], cell[0], math.NaN())
		if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
			t.Fatalf("Cholesky with NaN at %v: want ErrSingular, got %v", cell, err)
		}
		if _, err := CholeskySPD(a); !errors.Is(err, ErrSingular) {
			t.Fatalf("CholeskySPD with NaN at %v: want ErrSingular, got %v", cell, err)
		}
	}
}

func TestSolveCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 6)
	x := GaussianMatrix(rng, 6, 3)
	b, err := a.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCholesky(l, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x, 1e-7) {
		t.Fatal("cholesky solve did not recover x")
	}
}

func TestSolveSPDJitterRecovery(t *testing.T) {
	// A singular Gram matrix (duplicate feature) should still be solvable
	// thanks to the jitter fallback.
	x, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	g := x.Gram() // rank 1
	b := NewMatrix(2, 1)
	b.Set(0, 0, 1)
	b.Set(1, 0, 1)
	if _, err := SolveSPD(g, b); err != nil {
		t.Fatalf("jittered solve failed: %v", err)
	}
}

// Property: for any SPD system, SolveSPD(a, a*x) ~ x.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		x := GaussianMatrix(rng, n, 1+rng.Intn(3))
		b, err := a.Mul(x)
		if err != nil {
			return false
		}
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return got.Equal(x, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionMatrixScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p, d := 400, 50
	proj := ProjectionMatrix(rng, p, d)
	if proj.Rows != p || proj.Cols != d {
		t.Fatalf("shape %dx%d", proj.Rows, proj.Cols)
	}
	// Column variance should be ~1/d so that ||x P||^2 ~ ||x||^2.
	var ss float64
	for _, v := range proj.Data {
		ss += v * v
	}
	meanSq := ss / float64(p*d)
	if math.Abs(meanSq-1.0/float64(d)) > 0.3/float64(d) {
		t.Fatalf("mean squared entry %g, want ~%g", meanSq, 1.0/float64(d))
	}
}

func TestGaussianMatrixMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := GaussianMatrix(rng, 100, 100)
	var sum, ss float64
	for _, v := range m.Data {
		sum += v
		ss += v * v
	}
	n := float64(len(m.Data))
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("mean %g var %g", mean, variance)
	}
}
