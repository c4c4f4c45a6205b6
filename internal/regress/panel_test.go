package regress

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
)

// scoreOneAtATime is the one-candidate route ScorePanel replaces, kept as
// its bitwise oracle: residualize the candidate against the design, then
// CrossValidatedScore.
func scoreOneAtATime(x, y *linalg.Matrix, design *RidgeDesign, lambda float64, grid []float64, k int) (float64, error) {
	var s Scratch
	if design != nil {
		rx, err := design.ResidualizeInto(x, lambda, &s)
		if err != nil {
			return 0, err
		}
		x = rx
	}
	return s.CrossValidatedScore(context.Background(), x, y, grid, k)
}

// panelCase draws m candidates of width w, a q-column target that loads on
// some of them, and (pz > 0) a conditioning set both depend on.
func panelCase(rng *rand.Rand, n, m, w, q, pz int) (xs []*linalg.Matrix, y *linalg.Matrix, design *RidgeDesign, lambda float64) {
	z := linalg.GaussianMatrix(rng, n, max(pz, 1))
	for c := 0; c < m; c++ {
		x := linalg.GaussianMatrix(rng, n, w)
		for i := range x.Data {
			x.Data[i] += 0.7*z.Data[(i/w)*z.Cols] + float64(c%3)*40
		}
		xs = append(xs, x)
	}
	y = linalg.NewMatrix(n, q)
	for i := 0; i < n; i++ {
		for j := 0; j < q; j++ {
			y.Set(i, j, xs[j%m].At(i, 0)*0.5+z.At(i, 0)+rng.NormFloat64())
		}
	}
	if pz == 0 {
		return xs, y, nil, 0
	}
	design, err := NewRidgeDesign(z)
	if err != nil {
		panic(err)
	}
	lambda = DefaultLambdaGrid[len(DefaultLambdaGrid)/2]
	ry, err := design.Residualize(y, lambda)
	if err != nil {
		panic(err)
	}
	return xs, ry, design, lambda
}

// checkPanel scores xs as one panel and each candidate alone, and requires
// the same bits (or the same error) for every candidate.
func checkPanel(t *testing.T, s *Scratch, xs []*linalg.Matrix, y *linalg.Matrix, design *RidgeDesign, lambda float64, grid []float64, k int) {
	t.Helper()
	out := make([]PanelScore, len(xs))
	if err := s.ScorePanel(context.Background(), NewPanelTarget(y, design, lambda, grid, k), xs, out); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if !finite(x.Data) {
			if out[i].Err != ErrNonFiniteCell {
				t.Fatalf("candidate %d: non-finite cell gave %v", i, out[i].Err)
			}
			continue
		}
		want, werr := scoreOneAtATime(x, y, design, lambda, grid, k)
		if (werr == nil) != (out[i].Err == nil) || (werr != nil && werr.Error() != out[i].Err.Error()) {
			t.Fatalf("candidate %d: error %v, one at a time %v", i, out[i].Err, werr)
		}
		if math.Float64bits(out[i].Score) != math.Float64bits(want) {
			t.Fatalf("candidate %d: panel %.17g, one at a time %.17g", i, out[i].Score, want)
		}
	}
}

// TestScorePanelMatchesOneAtATime pins ScorePanel to the one-candidate route
// bit for bit across the engine's shapes: widths 1 and >1, one- and
// multi-column targets, with and without a conditioning set, windows too
// short for the folds, and a primal/dual mix.
func TestScorePanelMatchesOneAtATime(t *testing.T) {
	var s Scratch // reused across cases: the panel carries nothing over
	for _, tc := range []struct{ n, m, w, q, pz int }{
		{288, 64, 1, 1, 1}, {288, 17, 1, 1, 0}, {288, 9, 1, 3, 2}, {288, 3, 20, 20, 20},
		{288, 12, 5, 1, 1}, {288, 5, 5, 2, 0}, {8, 4, 1, 1, 1}, {8, 3, 2, 1, 0},
		{40, 3, 36, 1, 1}, {97, 7, 1, 1, 3},
	} {
		t.Run(fmt.Sprintf("n%d_m%d_w%d_q%d_z%d", tc.n, tc.m, tc.w, tc.q, tc.pz), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n*7 + tc.m*5 + tc.w*3 + tc.q + tc.pz)))
			xs, y, design, lambda := panelCase(rng, tc.n, tc.m, tc.w, tc.q, tc.pz)
			checkPanel(t, &s, xs, y, design, lambda, DefaultLambdaGrid, 5)
			checkPanel(t, &s, xs, y, design, lambda, WideLambdaGrid, 3)
		})
	}
}

// TestScorePanelNonFiniteAndDegenerate: a NaN or ±Inf cell takes only its
// own candidate out of the panel, and constant, zero and overflowing
// columns score (or fail) as they do alone.
func TestScorePanelNonFiniteAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pz := range []int{0, 1} {
		xs, y, design, lambda := panelCase(rng, 288, 8, 1, 1, pz)
		xs[1].Data[40] = math.NaN()
		xs[3].Data[0] = math.Inf(-1)
		for i := range xs[4].Data {
			xs[4].Data[i] = 2.5
		}
		clear(xs[5].Data)
		for i := range xs[6].Data {
			xs[6].Data[i] = math.MaxFloat64 // finite cells whose mean overflows
		}
		checkPanel(t, new(Scratch), xs, y, design, lambda, DefaultLambdaGrid, 5)
	}
}

// TestScorePanelCancelled: a cancelled context stops the panel with its
// error.
func TestScorePanelCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs, y, design, lambda := panelCase(rng, 288, 4, 1, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var s Scratch
	if err := s.ScorePanel(ctx, NewPanelTarget(y, design, lambda, nil, 5), xs, make([]PanelScore, len(xs))); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
