package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
	"explainit/internal/stats"
)

// linearData generates y = X beta + noise with n rows and p features.
func linearData(rng *rand.Rand, n, p, q int, noise float64) (x, y *linalg.Matrix) {
	x = linalg.GaussianMatrix(rng, n, p)
	beta := linalg.GaussianMatrix(rng, p, q)
	y, _ = x.Mul(beta)
	for i := range y.Data {
		y.Data[i] += noise * rng.NormFloat64()
	}
	return x, y
}

func TestFitOLSRecoversSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	x, y := linearData(rng, 200, 5, 1, 0.01)
	model, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := stats.ExplainedVarianceMean(y, pred); r2 < 0.99 {
		t.Fatalf("OLS in-sample r2 %g", r2)
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(linalg.NewMatrix(0, 0), linalg.NewMatrix(0, 0)); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := FitOLS(linalg.NewMatrix(3, 2), linalg.NewMatrix(4, 1)); err == nil {
		t.Fatal("row mismatch must error")
	}
}

// The tests below pin the least-squares behaviours of FitOLS, the λ = 0
// ridge solve.

func TestFitOLSExact(t *testing.T) {
	// A consistent overdetermined system is reproduced in-sample.
	rng := rand.New(rand.NewSource(13))
	x, y := linearData(rng, 30, 4, 2, 0)
	model, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Equal(y, 1e-7) {
		t.Fatal("OLS did not reproduce a consistent system")
	}
}

func TestFitOLSResidualOrthogonality(t *testing.T) {
	// The residual is orthogonal to every standardized column.
	rng := rand.New(rand.NewSource(14))
	x := linalg.GaussianMatrix(rng, 40, 5)
	y := linalg.GaussianMatrix(rng, 40, 1)
	model, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	resid, err := model.Residuals(x, y)
	if err != nil {
		t.Fatal(err)
	}
	xs := x.Clone()
	xs.StandardizeColumns()
	xtr, err := xs.MulT(resid)
	if err != nil {
		t.Fatal(err)
	}
	if xtr.MaxAbs() > 1e-7 {
		t.Fatalf("residual not orthogonal to columns: %g", xtr.MaxAbs())
	}
}

func TestFitOLSUnderdetermined(t *testing.T) {
	// p > n (the dual path): a consistent system is interpolated.
	rng := rand.New(rand.NewSource(15))
	x, y := linearData(rng, 5, 12, 1, 0)
	model, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Equal(y, 1e-6) {
		t.Fatal("underdetermined OLS does not interpolate the system")
	}
}

// On a rank-deficient design the OLS coefficients are not unique, so only
// the predictions — the projection of y onto the column space — are pinned.
func TestFitOLSRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(16))

	// n = p: with the intercept the n standardized columns span every
	// centred target, so y is interpolated.
	x, y := linearData(rng, 30, 30, 1, 1)
	model, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Equal(y, 1e-6) {
		t.Fatal("n = p OLS does not interpolate y")
	}

	// A duplicated column leaves the column space, and so the fit, as it was.
	x = linalg.GaussianMatrix(rng, 40, 4)
	y = linalg.GaussianMatrix(rng, 40, 1)
	dup := linalg.NewMatrix(40, 5)
	for i := 0; i < 40; i++ {
		copy(dup.Row(i), x.Row(i))
		dup.Set(i, 4, x.At(i, 1))
	}
	full, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	deficient, err := FitOLS(dup, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := deficient.Predict(dup)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-7) {
		t.Fatal("a duplicated column changed the OLS predictions")
	}
}

// A NaN or ±Inf cell is a typed error from every fit, never a NaN model: in
// x it surfaces as a NaN Cholesky pivot, in y as a non-finite target mean.
func TestFitNonFiniteIsTypedError(t *testing.T) {
	fits := []struct {
		name string
		fit  func(x, y *linalg.Matrix) error
	}{
		{"FitOLS", func(x, y *linalg.Matrix) error { _, err := FitOLS(x, y); return err }},
		{"FitRidge", func(x, y *linalg.Matrix) error { _, err := FitRidge(x, y, 1); return err }},
		{"RidgeDesign.Fit", func(x, y *linalg.Matrix) error {
			d, err := NewRidgeDesign(x)
			if err == nil {
				_, err = d.Fit(y, 1)
			}
			return err
		}},
		{"RidgeDesign.Residualize", func(x, y *linalg.Matrix) error {
			d, err := NewRidgeDesign(x)
			if err == nil {
				_, err = d.Residualize(y, 1)
			}
			return err
		}},
	}
	for _, shape := range []struct{ n, p int }{{20, 2}, {5, 12}} { // primal, dual
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, inY := range []bool{false, true} {
				for _, f := range fits {
					x, y := linearData(rand.New(rand.NewSource(17)), shape.n, shape.p, 1, 0.1)
					want := linalg.ErrSingular
					if inY {
						y.Set(3, 0, v)
						want = ErrNonFinite
					} else {
						x.Set(3, 1, v)
					}
					if err := f.fit(x, y); !errors.Is(err, want) {
						t.Errorf("%s %dx%d, %g in y=%v: want %v, got %v", f.name, shape.n, shape.p, v, inY, want, err)
					}
				}
			}
		}
	}
}

func TestFitRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, y := linearData(rng, 100, 10, 1, 0.5)
	small, err := FitRidge(x, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	big, err := FitRidge(x, y, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if big.Coef.FrobeniusNorm() >= small.Coef.FrobeniusNorm() {
		t.Fatalf("large lambda must shrink coefficients: %g vs %g",
			big.Coef.FrobeniusNorm(), small.Coef.FrobeniusNorm())
	}
	// Extreme lambda predicts ~the mean.
	pred, err := big.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	yMean := stats.Mean(y.Col(0))
	for i := 0; i < pred.Rows; i++ {
		if math.Abs(pred.At(i, 0)-yMean) > 0.05*math.Abs(yMean)+0.5 {
			t.Fatalf("huge lambda prediction %g far from mean %g", pred.At(i, 0), yMean)
		}
	}
}

func TestRidgePrimalDualAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Tall (primal path) and wide (dual path) versions of the same problem
	// restricted to comparable shapes: fit the same 30x20 data through both
	// paths by transposing the decision — instead verify directly that a
	// wide fit equals the primal solution computed by explicit algebra.
	n, p := 25, 60 // wide: dual path
	x := linalg.GaussianMatrix(rng, n, p)
	beta := linalg.GaussianMatrix(rng, p, 1)
	y, _ := x.Mul(beta)
	lambda := 3.0

	model, err := FitRidge(x, y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit primal solve on the standardised data for reference.
	xs := x.Clone()
	xm, xstd := xs.StandardizeColumns()
	ys := y.Clone()
	ym := ys.ColMeans()
	ys.CenterColumns(ym)
	gram := xs.Gram().AddDiag(lambda + 1e-10)
	xty, _ := xs.MulT(ys)
	ref, err := linalg.SolveSPD(gram, xty)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Coef.Equal(ref, 1e-5) {
		t.Fatal("dual ridge disagrees with primal normal equations")
	}
	_ = xm
	_ = xstd
}

func TestRidgeHandlesConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := linalg.GaussianMatrix(rng, 50, 3)
	for i := 0; i < 50; i++ {
		x.Set(i, 1, 7) // constant feature
	}
	y := linalg.GaussianMatrix(rng, 50, 1)
	if _, err := FitRidge(x, y, 1); err != nil {
		t.Fatalf("constant column must not break ridge: %v", err)
	}
}

func TestModelPredictShapeError(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x, y := linearData(rng, 30, 4, 1, 0.1)
	model, err := FitRidge(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Predict(linalg.NewMatrix(5, 9)); err == nil {
		t.Fatal("feature mismatch must error")
	}
}

func TestModelResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x, y := linearData(rng, 120, 4, 2, 0.01)
	model, err := FitRidge(x, y, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	resid, err := model.Residuals(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if resid.FrobeniusNorm() > 0.1*y.FrobeniusNorm() {
		t.Fatalf("residual norm %g too large", resid.FrobeniusNorm())
	}
}

func TestRidgeRejectsNegativeLambda(t *testing.T) {
	if _, err := FitRidge(linalg.NewMatrix(5, 2), linalg.NewMatrix(5, 1), -1); err == nil {
		t.Fatal("negative lambda must error")
	}
}

func TestFitLassoSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n, p := 150, 20
	x := linalg.GaussianMatrix(rng, n, p)
	// Only features 0 and 3 matter.
	y := linalg.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, 3*x.At(i, 0)-2*x.At(i, 3)+0.05*rng.NormFloat64())
	}
	model, err := FitLasso(x, y, 0.1, 500, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	nz := NonZeroCoefficients(model, 0.05)
	if nz[0] > 4 {
		t.Fatalf("lasso should be sparse, got %d active features", nz[0])
	}
	if math.Abs(model.Coef.At(0, 0)) < 0.5 || math.Abs(model.Coef.At(3, 0)) < 0.5 {
		t.Fatal("lasso must keep the true features")
	}
	pred, _ := model.Predict(x)
	if r2 := stats.ExplainedVarianceMean(y, pred); r2 < 0.9 {
		t.Fatalf("lasso r2 %g", r2)
	}
}

func TestFitLassoHeavyPenaltyZeroesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x, y := linearData(rng, 80, 5, 1, 0.1)
	model, err := FitLasso(x, y, 1e4, 100, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if nz := NonZeroCoefficients(model, 1e-9); nz[0] != 0 {
		t.Fatalf("huge penalty must zero all coefficients, got %d", nz[0])
	}
}

func TestFitLassoErrors(t *testing.T) {
	if _, err := FitLasso(linalg.NewMatrix(0, 0), linalg.NewMatrix(0, 0), 1, 10, 1e-6); !errors.Is(err, ErrNoData) {
		t.Fatal("want ErrNoData")
	}
	if _, err := FitLasso(linalg.NewMatrix(3, 1), linalg.NewMatrix(2, 1), 1, 10, 1e-6); err == nil {
		t.Fatal("row mismatch")
	}
	if _, err := FitLasso(linalg.NewMatrix(3, 1), linalg.NewMatrix(3, 1), -1, 10, 1e-6); err == nil {
		t.Fatal("negative lambda")
	}
}

func TestLassoMatchesRidgeAtLowPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	x, y := linearData(rng, 200, 3, 1, 0.01)
	lasso, err := FitLasso(x, y, 1e-6, 2000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	ols, err := FitOLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !lasso.Coef.Equal(ols.Coef, 1e-2) {
		t.Fatal("tiny-penalty lasso should approach OLS")
	}
}
