package core

import (
	"math"
	"math/rand"
	"testing"

	"explainit/internal/linalg"
	"explainit/internal/regress"
	"explainit/internal/stats"
)

// Reference implementations of the seed scoring pipeline: refit-from-scratch
// ridge per (λ, fold) and per residualization. The cached pipeline must
// reproduce these scores within 1e-9 across every shape the scorer sees.

const equivTol = 1e-9

func naiveResidualize(y, z *linalg.Matrix, lambda float64) (*linalg.Matrix, error) {
	model, err := regress.FitRidge(z, y, lambda)
	if err != nil {
		return nil, err
	}
	return model.Residuals(z, y)
}

func naiveCVScore(x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	folds, err := regress.TimeSeriesFolds(x.Rows, k)
	if err != nil {
		model, ferr := regress.FitRidge(x, y, grid[len(grid)/2])
		if ferr != nil {
			return 0, ferr
		}
		pred, ferr := model.Predict(x)
		if ferr != nil {
			return 0, ferr
		}
		raw := stats.ExplainedVarianceMean(y, pred)
		adj := stats.AdjustedRSquared(raw, x.Rows, x.Cols)
		if adj < 0 {
			adj = 0
		}
		return adj, nil
	}
	res, err := regress.CrossValidate(regress.RidgeFitter, x, y, grid, folds)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// naiveL2Score replicates the seed L2Scorer.scoreOnce for the unprojected
// scorer: residualize on Z via fresh ridge fits, then naive CV (or the
// explain-rows path: best λ by naive CV, full fit, evaluate on the range).
func naiveL2Score(x, y, z *linalg.Matrix, grid []float64, k int, explainRows []int) (float64, error) {
	if z != nil && z.Cols > 0 {
		ry, err := naiveResidualize(y, z, grid[len(grid)/2])
		if err != nil {
			return 0, err
		}
		rx, err := naiveResidualize(x, z, grid[len(grid)/2])
		if err != nil {
			return 0, err
		}
		x, y = rx, ry
	}
	if explainRows != nil {
		lambda := grid[len(grid)/2]
		if folds, err := regress.TimeSeriesFolds(x.Rows, k); err == nil {
			res, err := regress.CrossValidate(regress.RidgeFitter, x, y, grid, folds)
			if err != nil {
				return 0, err
			}
			lambda = res.BestLambda
		}
		model, err := regress.FitRidge(x, y, lambda)
		if err != nil {
			return 0, err
		}
		xe, err := x.SelectRows(explainRows)
		if err != nil {
			return 0, err
		}
		ye, err := y.SelectRows(explainRows)
		if err != nil {
			return 0, err
		}
		pred, err := model.Predict(xe)
		if err != nil {
			return 0, err
		}
		return stats.ExplainedVarianceMean(ye, pred), nil
	}
	return naiveCVScore(x, y, grid, k)
}

func TestL2ScorerMatchesNaivePipeline(t *testing.T) {
	type tcase struct {
		name        string
		n, p, pz    int
		explainFrom int // -1 disables explainRows
		explainTo   int
	}
	cases := []tcase{
		{"plain-tall", 120, 10, 0, -1, -1},
		{"plain-wide-dual", 40, 90, 0, -1, -1},
		{"conditional", 150, 12, 4, -1, -1},
		{"conditional-wide", 36, 80, 3, -1, -1},
		{"explain-range", 100, 8, 0, 60, 90},
		{"conditional-explain", 120, 9, 5, 30, 70},
		{"tiny-fallback", 8, 3, 0, -1, -1}, // too few rows for 5 folds
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.p)))
			x := linalg.GaussianMatrix(rng, tc.n, tc.p)
			y := linalg.NewMatrix(tc.n, 1)
			var z *linalg.Matrix
			if tc.pz > 0 {
				z = linalg.GaussianMatrix(rng, tc.n, tc.pz)
			}
			for i := 0; i < tc.n; i++ {
				y.Data[i] = 0.8*x.At(i, 0) + 0.4*rng.NormFloat64()
				if z != nil {
					y.Data[i] += 0.5 * z.At(i, 0)
				}
			}
			var explainRows []int
			if tc.explainFrom >= 0 {
				for i := tc.explainFrom; i < tc.explainTo; i++ {
					explainRows = append(explainRows, i)
				}
			}
			s := &L2Scorer{Seed: 1}
			got, err := s.Score(x, y, z, explainRows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naiveL2Score(x, y, z, regress.DefaultLambdaGrid, 5, explainRows)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > equivTol {
				t.Fatalf("score %.15g differs from naive %.15g", got, want)
			}
		})
	}
}

// TestEngineRankWorkerInvariantL2 extends the determinism contract to the
// ridge scorers, conditioning sets, and the shared conditioning cache: the
// table must be identical at 1, 2, 3, 7 and 8 workers, element for element.
func TestEngineRankWorkerInvariantL2(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	n := 160
	target := synthFamily("y", n, noiseGen(rng, 1))
	zfam := synthFamily("zc", n, noiseGen(rng, 1), noiseGen(rng, 1))
	var candidates []*Family
	for k := 0; k < 10; k++ {
		candidates = append(candidates, synthFamily("fam"+string(rune('a'+k)), n, noiseGen(rng, 1), noiseGen(rng, 1), noiseGen(rng, 1)))
	}
	scorers := map[string]func() Scorer{
		"L2":    func() Scorer { return &L2Scorer{Seed: 7} },
		"L2-P2": func() Scorer { return &L2Scorer{ProjectDim: 2, Seed: 7} },
	}
	for name, mk := range scorers {
		for _, withZ := range []bool{false, true} {
			run := func(workers int) []Result {
				req := Request{Target: target, Candidates: candidates}
				if withZ {
					req.Condition = []*Family{zfam}
				}
				eng := &Engine{Scorer: mk(), Workers: workers, KeepAll: true}
				table, err := eng.Rank(req)
				if err != nil {
					t.Fatal(err)
				}
				return table.Results
			}
			a := run(1)
			// Uneven splits of 10 candidates over the workers vary which
			// scratch (and what it last held) scores which candidate.
			for _, workers := range []int{2, 3, 7, 8} {
				b := run(workers)
				if len(a) != len(b) {
					t.Fatalf("%s withZ=%v: lengths %d vs %d", name, withZ, len(a), len(b))
				}
				for i := range a {
					if a[i].Family != b[i].Family || a[i].Score != b[i].Score || a[i].PValue != b[i].PValue || a[i].Viz != b[i].Viz {
						t.Fatalf("%s withZ=%v workers=%d row %d differs: %+v vs %+v", name, withZ, workers, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestEngineSharedCondPrepMatchesPerCandidate pins the request-level
// conditioning cache: scoring through Engine.Rank (shared prep) must equal
// calling the scorer directly (per-candidate prep).
func TestEngineSharedCondPrepMatchesPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n := 140
	target := synthFamily("y", n, noiseGen(rng, 1))
	zfam := synthFamily("zc", n, noiseGen(rng, 1))
	var candidates []*Family
	for k := 0; k < 6; k++ {
		candidates = append(candidates, synthFamily("fam"+string(rune('a'+k)), n, noiseGen(rng, 1), noiseGen(rng, 1)))
	}
	eng := &Engine{Scorer: &L2Scorer{Seed: 3}, KeepAll: true}
	table, err := eng.Rank(Request{Target: target, Condition: []*Family{zfam}, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	zcat, err := ConcatFamilies("Z", []*Family{zfam})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range table.Results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Family, res.Err)
		}
		var fam *Family
		for _, c := range candidates {
			if c.Name == res.Family {
				fam = c
			}
		}
		direct, err := (&L2Scorer{Seed: 3}).Score(fam.Matrix, target.Matrix, zcat.Matrix, nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct < 0 {
			direct = 0
		}
		if direct > 1 {
			direct = 1
		}
		if math.Abs(direct-res.Score) > equivTol {
			t.Fatalf("%s: engine %g vs direct %g", res.Family, res.Score, direct)
		}
	}
}

func TestLassoScorerExplainRows(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 120
	x := linalg.GaussianMatrix(rng, n, 4)
	y := linalg.NewMatrix(n, 1)
	// Dependence exists only in the second half of the range.
	for i := 0; i < n; i++ {
		if i >= n/2 {
			y.Data[i] = 2*x.At(i, 0) + 0.1*rng.NormFloat64()
		} else {
			y.Data[i] = rng.NormFloat64()
		}
	}
	s := &LassoScorer{Lambda: 0.01}
	linked := make([]int, 0, n/2)
	for i := n / 2; i < n; i++ {
		linked = append(linked, i)
	}
	unlinked := make([]int, 0, n/2)
	for i := 0; i < n/2; i++ {
		unlinked = append(unlinked, i)
	}
	linkedScore, err := s.Score(x, y, nil, linked)
	if err != nil {
		t.Fatal(err)
	}
	unlinkedScore, err := s.Score(x, y, nil, unlinked)
	if err != nil {
		t.Fatal(err)
	}
	if linkedScore <= unlinkedScore {
		t.Fatalf("explain range on the dependent half should score higher: %g vs %g", linkedScore, unlinkedScore)
	}
	if linkedScore < 0.5 {
		t.Fatalf("dependent half barely explained: %g", linkedScore)
	}
}
