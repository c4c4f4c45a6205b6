package regress

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"explainit/internal/linalg"
)

func randMatrix(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b *linalg.Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestExtendDesignMatchesScratch pins the incremental-conditioning design
// against a from-scratch build of the stacked matrix: residualizations (the
// operation Investigation steps actually reuse) must agree within 1e-9.
func TestExtendDesignMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 120
	z1 := randMatrix(rng, n, 6)
	z2 := randMatrix(rng, n, 4)
	y := randMatrix(rng, n, 3)

	prev, err := NewRidgeDesign(z1)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendDesign(prev, z2)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := linalg.HStack(z1, z2)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRidgeDesign(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Cols() != scratch.Cols() || ext.Rows() != scratch.Rows() {
		t.Fatalf("extended design is %dx%d, scratch %dx%d", ext.Rows(), ext.Cols(), scratch.Rows(), scratch.Cols())
	}
	for _, lambda := range DefaultLambdaGrid {
		re, err := ext.Residualize(y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := scratch.Residualize(y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(re, rs); d > 1e-9 {
			t.Errorf("λ=%g: extended residualization deviates from scratch by %g", lambda, d)
		}
	}
}

// TestExtendDesignChain extends twice (the shape of a three-step
// investigation) and checks against a single scratch build.
func TestExtendDesignChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 90
	blocks := []*linalg.Matrix{
		randMatrix(rng, n, 5),
		randMatrix(rng, n, 3),
		randMatrix(rng, n, 2),
	}
	y := randMatrix(rng, n, 2)

	d, err := NewRidgeDesign(blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[1:] {
		if d, err = ExtendDesign(d, b); err != nil {
			t.Fatal(err)
		}
	}
	stacked, err := linalg.HStack(blocks...)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRidgeDesign(stacked)
	if err != nil {
		t.Fatal(err)
	}
	re, err := d.Residualize(y, 10)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scratch.Residualize(y, 10)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(re, rs); diff > 1e-9 {
		t.Errorf("chained extension deviates from scratch by %g", diff)
	}
}

// TestExtendDesignReusesParentFactor asserts the structural claim, not just
// the numerical one: factoring the extended design at a fresh λ populates
// the parent's factor cache (the prefix block was factored exactly once, by
// the parent) rather than refactoring the whole stacked Gram.
func TestExtendDesignReusesParentFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 80
	prev, err := NewRidgeDesign(randMatrix(rng, n, 8))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendDesign(prev, randMatrix(rng, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ext.parent != prev {
		t.Fatal("extended design did not retain its parent")
	}
	const lambda = 10.0
	if _, err := ext.factor(lambda); err != nil {
		t.Fatal(err)
	}
	l11 := prev.cachedFactor(lambda)
	if l11 == nil {
		t.Fatal("extending did not populate the parent factor cache")
	}
	l := ext.cachedFactor(lambda)
	// The prefix block of the extended factor must be the parent's factor
	// verbatim (copied, not recomputed — bitwise equal).
	for i := 0; i < l11.Rows; i++ {
		for j := 0; j <= i; j++ {
			if l.At(i, j) != l11.At(i, j) {
				t.Fatalf("factor prefix (%d,%d) = %g, parent has %g", i, j, l.At(i, j), l11.At(i, j))
			}
		}
	}
}

// TestExtendDesignDualFallback covers the wide regime where the stacked
// design leaves primal form: the extension must still match scratch.
func TestExtendDesignDualFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	z1 := randMatrix(rng, n, 10)
	z2 := randMatrix(rng, n, 25) // 35 cols > 30 rows: dual
	y := randMatrix(rng, n, 2)

	prev, err := NewRidgeDesign(z1)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendDesign(prev, z2)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := linalg.HStack(z1, z2)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRidgeDesign(stacked)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ext.Residualize(y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scratch.Residualize(y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(re, rs); diff > 1e-9 {
		t.Errorf("dual-fallback extension deviates from scratch by %g", diff)
	}
}

// TestCrossValidateRidgeCtxCancel: a pre-cancelled context aborts the fold
// sweep with ctx.Err().
func TestCrossValidateRidgeCtxCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 60, 4)
	y := randMatrix(rng, 60, 2)
	folds, err := TimeSeriesFoldRanges(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CrossValidateRidgeCtx(ctx, x, y, DefaultLambdaGrid, folds); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := CrossValidatedScoreCtx(ctx, x, y, nil, 5); err != context.Canceled {
		t.Fatalf("score: got %v, want context.Canceled", err)
	}
}

// TestFactorCacheConcurrent: scoring workers hit a shared design's factor
// cache from many goroutines at once. Every penalty must be factored
// exactly once (all callers see one factor per λ) on a design and on the
// parent it extends, with no lock on the hit path for the race detector to
// find fault with.
func TestFactorCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, goroutines = 60, 8
	prev, err := NewRidgeDesign(randMatrix(rng, n, 4))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ExtendDesign(prev, randMatrix(rng, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*linalg.Matrix, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, lambda := range WideLambdaGrid {
					l, err := ext.factor(lambda)
					if err != nil {
						t.Error(err)
						return
					}
					if round == 0 {
						got[g] = append(got[g], l)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range WideLambdaGrid {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got its own factor for λ=%g", g, WideLambdaGrid[i])
			}
		}
	}
	for _, d := range []*RidgeDesign{prev, ext} {
		if cached := len(*d.factors.Load()); cached != len(WideLambdaGrid) {
			t.Fatalf("%d factors cached for %d penalties", cached, len(WideLambdaGrid))
		}
	}
}
