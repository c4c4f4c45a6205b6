package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"explainit/internal/linalg"
)

func TestMeanVarianceStd(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(vs) != 5 {
		t.Fatalf("mean %g", Mean(vs))
	}
	if Variance(vs) != 4 {
		t.Fatalf("variance %g", Variance(vs))
	}
	if Std(vs) != 2 {
		t.Fatalf("std %g", Std(vs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slices must yield 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive corr: %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative corr: %g", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("constant x must yield 0, got %g", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1}); r != 0 {
		t.Fatal("length mismatch must yield 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return math.Abs(Pearson(x, y)-Pearson(y, x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	// Column 0 of X equals column 0 of Y; column 1 is independent noise.
	rng := rand.New(rand.NewSource(20))
	n := 200
	shared := make([]float64, n)
	noiseX := make([]float64, n)
	noiseY := make([]float64, n)
	for i := 0; i < n; i++ {
		shared[i] = rng.NormFloat64()
		noiseX[i] = rng.NormFloat64()
		noiseY[i] = rng.NormFloat64()
	}
	x, _ := linalg.FromColumns([][]float64{shared, noiseX})
	y, _ := linalg.FromColumns([][]float64{shared, noiseY})
	c := CorrelationMatrix(x, y)
	if c.Rows != 2 || c.Cols != 2 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
	if math.Abs(c.At(0, 0)-1) > 1e-9 {
		t.Fatalf("identical columns corr %g", c.At(0, 0))
	}
	if math.Abs(c.At(1, 1)) > 0.25 {
		t.Fatalf("independent columns corr %g", c.At(1, 1))
	}
	// Cross-check against the scalar Pearson.
	if math.Abs(c.At(1, 0)-Pearson(noiseX, shared)) > 1e-9 {
		t.Fatal("matrix entry disagrees with Pearson")
	}
}

func TestCorrelationMatrixShapeMismatch(t *testing.T) {
	x := linalg.NewMatrix(5, 2)
	y := linalg.NewMatrix(6, 2)
	c := CorrelationMatrix(x, y)
	if c.Rows != 0 || c.Cols != 0 {
		t.Fatal("mismatched rows must return empty matrix")
	}
}

func TestAbsMeanMax(t *testing.T) {
	m, _ := linalg.FromRows([][]float64{{-0.5, 0.25}, {0.75, -1}})
	mean, max := AbsMeanMax(m)
	if math.Abs(mean-0.625) > 1e-12 || max != 1 {
		t.Fatalf("mean %g max %g", mean, max)
	}
	if mean, max := AbsMeanMax(linalg.NewMatrix(0, 0)); mean != 0 || max != 0 {
		t.Fatal("empty matrix")
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r2 := RSquared(y, y); math.Abs(r2-1) > 1e-12 {
		t.Fatalf("perfect fit r2 %g", r2)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	if r2 := RSquared(y, meanPred); math.Abs(r2) > 1e-12 {
		t.Fatalf("mean predictor r2 %g", r2)
	}
	terrible := []float64{100, 100, 100, 100}
	if r2 := RSquared(y, terrible); r2 >= 0 {
		t.Fatalf("bad predictor should be negative, got %g", r2)
	}
	if RSquared([]float64{5, 5}, []float64{5, 5}) != 0 {
		t.Fatal("zero-variance target must return 0")
	}
	if RSquared(nil, nil) != 0 {
		t.Fatal("empty input")
	}
}

func TestAdjustedRSquared(t *testing.T) {
	// With many predictors the adjustment must shrink the score.
	raw := 0.5
	adj := AdjustedRSquared(raw, 100, 50)
	if adj >= raw {
		t.Fatalf("adjusted %g should be below raw %g", adj, raw)
	}
	// Exact Wherry value: 1 - 0.5 * 99/50.
	want := 1 - 0.5*99.0/50.0
	if math.Abs(adj-want) > 1e-12 {
		t.Fatalf("adj %g want %g", adj, want)
	}
	if AdjustedRSquared(0.9, 10, 10) != 0 {
		t.Fatal("n <= p must yield 0")
	}
	if AdjustedRSquared(0.9, 1, 0) != 0 {
		t.Fatal("degenerate n must yield 0")
	}
}

func TestExplainedVarianceMean(t *testing.T) {
	y, _ := linalg.FromColumns([][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}})
	perfect := y.Clone()
	if v := ExplainedVarianceMean(y, perfect); math.Abs(v-1) > 1e-12 {
		t.Fatalf("perfect %g", v)
	}
	awful := linalg.NewMatrix(4, 2) // all-zero predictions
	v := ExplainedVarianceMean(y, awful)
	if v < 0 || v > 0.5 {
		t.Fatalf("awful predictor %g", v)
	}
	if ExplainedVarianceMean(y, linalg.NewMatrix(3, 2)) != 0 {
		t.Fatal("shape mismatch must yield 0")
	}
	// The in-place strided pass must be RSquared on extracted columns, bit
	// for bit, clamps included.
	rng := rand.New(rand.NewSource(4))
	obs, pred := linalg.GaussianMatrix(rng, 57, 5), linalg.GaussianMatrix(rng, 57, 5)
	for i := 0; i < obs.Rows; i++ {
		pred.Set(i, 1, obs.At(i, 1)+0.1*pred.At(i, 1)) // one good column among poor ones
		obs.Set(i, 3, 2)                               // one constant column
	}
	var want float64
	for j := 0; j < obs.Cols; j++ {
		want += math.Min(1, math.Max(0, RSquared(obs.Col(j), pred.Col(j))))
	}
	if got := ExplainedVarianceMean(obs, pred); got != want/float64(obs.Cols) {
		t.Fatalf("strided pass %v, column-wise reference %v", got, want/float64(obs.Cols))
	}
}
