package regress

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
)

// These tests pin the factorization-cached ridge pipeline (RidgeDesign,
// CrossValidateRidge) to the refit-from-scratch reference path (FitRidge,
// CrossValidate): caching may only remove redundancy, never change scores
// beyond float64 rounding.

const equivTol = 1e-9

func matricesClose(t *testing.T, name string, a, b *linalg.Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			t.Fatalf("%s: element %d differs: %g vs %g", name, i, v, b.Data[i])
		}
	}
}

func TestRidgeDesignMatchesFitRidge(t *testing.T) {
	cases := []struct {
		name    string
		n, p, q int
	}{
		{"primal", 60, 8, 1},
		{"primal-multitarget", 80, 12, 3},
		{"dual", 20, 40, 1},
		{"square", 16, 16, 2},
	}
	grid := []float64{0.1, 10, 1000}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			x := linalg.GaussianMatrix(rng, tc.n, tc.p)
			y := linalg.GaussianMatrix(rng, tc.n, tc.q)
			design, err := NewRidgeDesign(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, lambda := range grid {
				want, err := FitRidge(x, y, lambda)
				if err != nil {
					t.Fatal(err)
				}
				got, err := design.Fit(y, lambda)
				if err != nil {
					t.Fatal(err)
				}
				matricesClose(t, "coef", got.Coef, want.Coef, equivTol)
				for j := range want.YMeans {
					if got.YMeans[j] != want.YMeans[j] {
						t.Fatalf("yMeans[%d]: %g vs %g", j, got.YMeans[j], want.YMeans[j])
					}
				}
				if got.Lambda != want.Lambda || got.TrainRowsCount != want.TrainRowsCount {
					t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
				}
			}
		})
	}
}

func TestRidgeDesignResidualizeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, pz, q int }{{100, 5, 1}, {50, 4, 20}, {12, 30, 2}} {
		z := linalg.GaussianMatrix(rng, shape.n, shape.pz)
		y := linalg.GaussianMatrix(rng, shape.n, shape.q)
		model, err := FitRidge(z, y, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Residuals(z, y)
		if err != nil {
			t.Fatal(err)
		}
		design, err := NewRidgeDesign(z)
		if err != nil {
			t.Fatal(err)
		}
		got, err := design.Residualize(y, 10)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, "residuals", got, want, equivTol)
	}
}

// naiveCrossValidateRidge is the seed implementation: refit-from-scratch
// per (λ, fold) through the generic CrossValidate loop.
func naiveCrossValidateRidge(x, y *linalg.Matrix, grid []float64, k int) (CVResult, error) {
	folds, err := TimeSeriesFolds(x.Rows, k)
	if err != nil {
		return CVResult{}, err
	}
	return CrossValidate(RidgeFitter, x, y, grid, folds)
}

func TestCrossValidateRidgeMatchesNaive(t *testing.T) {
	cases := []struct {
		name    string
		n, p, k int
		grid    []float64
	}{
		{"tall", 120, 8, 5, DefaultLambdaGrid},
		{"tall-k3", 60, 10, 3, DefaultLambdaGrid},
		{"wide-dual", 40, 100, 4, DefaultLambdaGrid},
		{"tiny", 30, 2, 2, WideLambdaGrid},
		{"near-square", 48, 30, 5, DefaultLambdaGrid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n * tc.p)))
			x := linalg.GaussianMatrix(rng, tc.n, tc.p)
			// Give the target real structure so BestLambda is not a toss-up.
			y := linalg.NewMatrix(tc.n, 1)
			for i := 0; i < tc.n; i++ {
				y.Data[i] = x.At(i, 0) - 0.5*x.At(i, tc.p-1) + 0.3*rng.NormFloat64()
			}
			want, err := naiveCrossValidateRidge(x, y, tc.grid, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := TimeSeriesFoldRanges(x.Rows, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CrossValidateRidge(x, y, tc.grid, ranges)
			if err != nil {
				t.Fatal(err)
			}
			if got.BestLambda != want.BestLambda {
				t.Fatalf("BestLambda %g vs %g", got.BestLambda, want.BestLambda)
			}
			if math.Abs(got.Score-want.Score) > equivTol {
				t.Fatalf("Score %g vs %g", got.Score, want.Score)
			}
			for i := range want.PerLambda {
				if math.Abs(got.PerLambda[i]-want.PerLambda[i]) > equivTol {
					t.Fatalf("PerLambda[%d] %g vs %g", i, got.PerLambda[i], want.PerLambda[i])
				}
			}
		})
	}
}

func TestCrossValidateRidgeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := linalg.GaussianMatrix(rng, 20, 2)
	y := linalg.GaussianMatrix(rng, 20, 1)
	ranges, _ := TimeSeriesFoldRanges(20, 2)
	if _, err := CrossValidateRidge(x, y, nil, ranges); err == nil {
		t.Fatal("expected error on empty grid")
	}
	if _, err := CrossValidateRidge(x, y, []float64{1}, nil); err == nil {
		t.Fatal("expected error on no folds")
	}
	if _, err := CrossValidateRidge(x, y, []float64{1}, []FoldRange{{From: 5, To: 30}}); err == nil {
		t.Fatal("expected error on out-of-range fold")
	}
}

func TestProjectionCacheDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := linalg.GaussianMatrix(rng, 30, 200)
	var c ProjectionCache
	a := c.Project(99, m, 20)
	b := c.Project(99, m, 20)
	if a.Rows != 30 || a.Cols != 20 {
		t.Fatalf("projected shape %dx%d", a.Rows, a.Cols)
	}
	matricesClose(t, "same seed", a, b, 0)
	other := c.Project(100, m, 20)
	if a.Equal(other, 1e-12) {
		t.Fatal("different seeds must give different draws")
	}
	// Narrow matrices pass through untouched.
	narrow := linalg.GaussianMatrix(rng, 10, 5)
	if c.Project(99, narrow, 20) != narrow {
		t.Fatal("narrow matrix should be returned unchanged")
	}
}

// indexFolds is the materialised-index form of arbitrary fold ranges: each
// range validates on [From, To) and trains on every other row — what the
// generic CrossValidate oracle needs to mirror CrossValidateRidge.
func indexFolds(n int, ranges []FoldRange) []Fold {
	folds := make([]Fold, len(ranges))
	for f, r := range ranges {
		for i := 0; i < n; i++ {
			if i >= r.From && i < r.To {
				folds[f].ValIdx = append(folds[f].ValIdx, i)
			} else {
				folds[f].TrainIdx = append(folds[f].TrainIdx, i)
			}
		}
	}
	return folds
}

// checkFoldMomentCV pins CrossValidateRidge to the refit-from-scratch
// oracle on one input: Score, every PerLambda and BestLambda.
func checkFoldMomentCV(t *testing.T, x, y *linalg.Matrix, grid []float64, ranges []FoldRange) {
	t.Helper()
	want, err := CrossValidate(RidgeFitter, x, y, grid, indexFolds(x.Rows, ranges))
	if err != nil {
		t.Fatal(err)
	}
	checkFoldMomentCVAgainst(t, want, x, y, grid, ranges)
}

func checkFoldMomentCVAgainst(t *testing.T, want CVResult, x, y *linalg.Matrix, grid []float64, ranges []FoldRange) {
	t.Helper()
	got, err := CrossValidateRidge(x, y, grid, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerLambda {
		if math.Abs(got.PerLambda[i]-want.PerLambda[i]) > equivTol {
			t.Fatalf("PerLambda[%d] %.12g vs %.12g", i, got.PerLambda[i], want.PerLambda[i])
		}
	}
	if math.Abs(got.Score-want.Score) > equivTol {
		t.Fatalf("Score %.12g vs %.12g", got.Score, want.Score)
	}
	if got.BestLambda != want.BestLambda {
		t.Fatalf("BestLambda %g vs %g (per-λ %v)", got.BestLambda, want.BestLambda, want.PerLambda)
	}
}

// structuredData draws an n x p Gaussian design and q targets that each
// load on a few of its columns plus noise, so the λ grid has a clear winner.
func structuredData(rng *rand.Rand, n, p, q int) (x, y *linalg.Matrix) {
	x = linalg.GaussianMatrix(rng, n, p)
	y = linalg.NewMatrix(n, q)
	for i := 0; i < n; i++ {
		for c := 0; c < q; c++ {
			v := 0.5 * rng.NormFloat64()
			for j := c % p; j < p; j += 7 {
				v += x.At(i, j) / float64(1+j/7)
			}
			y.Set(i, c, v)
		}
	}
	return x, y
}

// TestFoldMomentCVMatchesOracleShapes sweeps the engine's shapes: narrow
// and wide candidates, single and multi-column targets, short and long
// windows — including p = 64 at n = 40, where every fold is dual.
func TestFoldMomentCVMatchesOracleShapes(t *testing.T) {
	for _, n := range []int{40, 288, 1440} {
		for _, p := range []int{1, 5, 20, 64} {
			for _, q := range []int{1, 3, 20} {
				rng := rand.New(rand.NewSource(int64(n*1000 + p*10 + q)))
				x, y := structuredData(rng, n, p, q)
				ranges, err := TimeSeriesFoldRanges(n, 5)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("n%d_p%d_q%d", n, p, q), func(t *testing.T) {
					checkFoldMomentCV(t, x, y, DefaultLambdaGrid, ranges)
				})
			}
		}
	}
}

// TestFoldMomentCVHostileNumerics covers the inputs where moment-space
// arithmetic is most likely to part ways with a fit on the rows themselves.
func TestFoldMomentCVHostileNumerics(t *testing.T) {
	const n, k = 100, 5 // folds of 20 rows, 80 training rows each
	partition, err := TimeSeriesFoldRanges(n, k)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		p, q   int
		mutate func(x, y *linalg.Matrix)
		folds  []FoldRange
	}{
		{name: "constant-in-training", p: 3, q: 1, mutate: func(x, y *linalg.Matrix) {
			// Column 1 moves only inside the last fold: constant on that
			// fold's 80 training rows, varying on its validation rows —
			// all of its variance sits in the block being held out.
			for i := 0; i < 80; i++ {
				x.Set(i, 1, 2.5)
			}
		}},
		{name: "all-constant-column", p: 4, q: 2, mutate: func(x, y *linalg.Matrix) {
			for i := 0; i < n; i++ {
				x.Set(i, 2, -7)
			}
		}},
		{name: "constant-validation-target", p: 2, q: 2, mutate: func(x, y *linalg.Matrix) {
			for i := 40; i < 60; i++ {
				y.Set(i, 0, 1.25)
			}
		}},
		{name: "step-in-last-fold", p: 2, q: 1, mutate: func(x, y *linalg.Matrix) {
			// Cause and effect jump together during the last fold and
			// barely move inside it: the validation scatter is tiny next
			// to the fold's distance from the training mean.
			for i := 80; i < n; i++ {
				x.Set(i, 0, 1000+1e-3*x.At(i, 0))
				y.Set(i, 0, 1000+1e-3*x.At(i, 0)+1e-4*y.At(i, 0))
			}
		}},
		// 80 training rows: the last primal width, and the first dual one.
		{name: "primal-boundary", p: 80, q: 1},
		{name: "dual-boundary", p: 81, q: 1},
		// Caller-made ranges that are not a partition: a gap, an overlap,
		// uneven sizes — and one short enough that only it stays primal
		// at p = 70 while the others go dual.
		{name: "gappy-folds", p: 3, q: 2, folds: []FoldRange{{0, 10}, {30, 55}, {90, 100}}},
		{name: "overlapping-folds", p: 3, q: 2, folds: []FoldRange{{0, 40}, {20, 60}, {50, 100}}},
		{name: "mixed-regimes", p: 70, q: 1, folds: []FoldRange{{0, 20}, {20, 60}, {60, 100}}},
		{name: "whole-range-fold", p: 2, q: 1, folds: []FoldRange{{0, 100}, {0, 50}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)*131 + tc.p)))
			x, y := structuredData(rng, n, tc.p, tc.q)
			if tc.mutate != nil {
				tc.mutate(x, y)
			}
			folds := tc.folds
			if folds == nil {
				folds = partition
			}
			checkFoldMomentCV(t, x, y, WideLambdaGrid, folds)
		})
	}
}

// TestFoldMomentCVBurstColumn: a counter-like column that sits on a flat
// baseline and bursts to ~1e9 (or 1e12) inside one fold only. Held out, that
// fold trains on rows where the column does not move at all, so the oracle
// sees a standard deviation of (near) zero and centres the column without
// scaling it; the moment path must reach the same verdict although the
// burst drags the column's overall mean eight orders of magnitude away from
// every training row. Baselines: exactly zero, an exactly constant non-zero
// value, 1e-15-sized jitter (below the 1e-12 cutoff, yet not constant) —
// and a large flat one, 123456789, where the oracle itself goes wrong: its
// row-space mean of 230 equal values is off by a rounding, the "spread"
// about it (~1e-8) passes the cutoff, and it scales a constant up to unit
// variance. There the oracle is run on the twin with the baseline removed,
// which is what a flat column amounts to.
func TestFoldMomentCVBurstColumn(t *testing.T) {
	const n, k = 288, 5
	ranges, err := TimeSeriesFoldRanges(n, k)
	if err != nil {
		t.Fatal(err)
	}
	baselines := []struct {
		name          string
		level, jitter float64
		twin          bool
	}{
		{name: "zero"},
		{name: "constant", level: 2.5},
		{name: "jitter", jitter: 1e-15},
		{name: "large-flat", level: 123456789, twin: true},
	}
	for _, base := range baselines {
		for _, burst := range []float64{1e9, 1e12} {
			for _, shape := range []struct{ p, q int }{{1, 1}, {3, 1}, {4, 2}} {
				t.Run(fmt.Sprintf("%s_%g_p%d_q%d", base.name, burst, shape.p, shape.q), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(shape.p*7 + shape.q)))
					x, y := structuredData(rng, n, shape.p, shape.q)
					col, f := shape.p/2, ranges[2]
					for i := 0; i < n; i++ {
						x.Set(i, col, base.level+base.jitter*rng.NormFloat64())
						if i >= f.From && i < f.To {
							x.Set(i, col, burst*(1+rng.Float64()))
						}
					}
					oracleX := x
					if base.twin {
						oracleX = x.Clone()
						for i := 0; i < n; i++ {
							oracleX.Set(i, col, x.At(i, col)-base.level)
						}
					}
					want, err := CrossValidate(RidgeFitter, oracleX, y, WideLambdaGrid, indexFolds(n, ranges))
					if err != nil {
						t.Fatal(err)
					}
					checkFoldMomentCVAgainst(t, want, x, y, WideLambdaGrid, ranges)
				})
			}
		}
	}
}

// TestFoldMomentCVShiftInvariant pins the global centring: a column riding
// on a mean of 1e9 with unit noise must score as its offset-free twin does.
// The refit-from-scratch oracle is run on the twin, because at 1e9 its own
// row-space means are only good to ~1e-6 and its scores to ~1e-8; x+1e9−1e9
// is exact in float64, so the twin carries exactly the offset data's
// information and the score is shift-invariant.
func TestFoldMomentCVShiftInvariant(t *testing.T) {
	const n = 288
	rng := rand.New(rand.NewSource(23))
	x, y := structuredData(rng, n, 3, 2)
	twinX, twinY := x.Clone(), y.Clone()
	for i := 0; i < n; i++ {
		x.Set(i, 0, x.At(i, 0)+1e9)
		twinX.Set(i, 0, x.At(i, 0)-1e9)
		y.Set(i, 1, y.At(i, 1)-1e9)
		twinY.Set(i, 1, y.At(i, 1)+1e9)
	}
	ranges, err := TimeSeriesFoldRanges(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CrossValidate(RidgeFitter, twinX, twinY, WideLambdaGrid, indexFolds(n, ranges))
	if err != nil {
		t.Fatal(err)
	}
	if want.Score < 0.5 {
		t.Fatalf("twin scores %g: the case must carry signal to be a pin", want.Score)
	}
	checkFoldMomentCVAgainst(t, want, x, y, WideLambdaGrid, ranges)
}

// TestScratchReuseIsStateless: a Scratch carried across candidates of
// different shapes must score each exactly as a fresh one does.
func TestScratchReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var warm Scratch
	for _, shape := range []struct{ n, p, q int }{{120, 6, 2}, {60, 1, 1}, {40, 50, 1}, {200, 12, 3}, {60, 1, 1}} {
		x, y := structuredData(rng, shape.n, shape.p, shape.q)
		ranges, err := TimeSeriesFoldRanges(shape.n, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CrossValidateRidge(x, y, DefaultLambdaGrid, ranges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.CrossValidateRidge(context.Background(), x, y, DefaultLambdaGrid, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || got.BestLambda != want.BestLambda {
			t.Fatalf("%dx%d->%d: warm scratch %+v, fresh %+v", shape.n, shape.p, shape.q, got, want)
		}
		design, err := NewRidgeDesign(x)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := design.Residualize(y, 10)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := design.ResidualizeInto(y, 10, &warm)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, "residuals", reused, fresh, 0)
	}
}

// The two shapes the benchmark of record leans on: rank_narrow scores 288x1
// candidates against a one-column target, session_wide 288x20 against 20.
func benchmarkCVRidge(b *testing.B, n, p, q int) {
	rng := rand.New(rand.NewSource(1))
	x, y := structuredData(rng, n, p, q)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CrossValidatedScore(context.Background(), x, y, DefaultLambdaGrid, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCVRidgeNarrow(b *testing.B) { benchmarkCVRidge(b, 288, 1, 1) }
func BenchmarkCVRidgeWide(b *testing.B)   { benchmarkCVRidge(b, 288, 20, 20) }
