package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"explainit/internal/ctxpoll"
	"explainit/internal/linalg"
	"explainit/internal/regress"
	"explainit/internal/stats"
)

// ErrDegenerate marks input on which a dependence score is undefined —
// empty or constant columns after alignment/interpolation, too few rows, a
// zero-width design — anything that would otherwise surface as a NaN score
// or a divide-by-zero. Callers branch with errors.Is: a degenerate
// candidate is reported, not ranked, and never poisons a score table.
var ErrDegenerate = errors.New("core: degenerate input, score undefined")

// checkFinite converts a non-finite score into a typed degenerate error so
// NaN can never escape a Scorer; sparse and irregular telemetry reduces to
// constant or empty columns after alignment, and every arithmetic guard
// downstream (zero-variance Pearson, tss<=0 r^2) is funnelled through here.
func checkFinite(name string, score float64) (float64, error) {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return 0, fmt.Errorf("%s: non-finite score: %w", name, ErrDegenerate)
	}
	return score, nil
}

// Scorer quantifies the dependence Y ~ X | Z on dense matrices, returning a
// value in [0, 1] — 0 means "X tells us nothing about Y beyond Z" (§3.5).
//
// explainRows, when non-nil, restricts the evaluation to the user's
// range-to-explain (Figure 2): models still train on the full range, but
// the reported explained variance is measured on those rows only.
type Scorer interface {
	Name() string
	Score(x, y, z *linalg.Matrix, explainRows []int) (float64, error)
}

// ContextScorer is a Scorer that supports cooperative cancellation. The
// engine prefers ScoreCtx when ranking under a context: a scorer should
// check the context at its natural work boundaries (per CV fold for the
// ridge scorers) and return ctx.Err() once cancelled, so an operator can
// abandon a mis-scoped ranking mid-candidate rather than waiting out the
// fold sweep.
type ContextScorer interface {
	Scorer
	ScoreCtx(ctx context.Context, x, y, z *linalg.Matrix, explainRows []int) (float64, error)
}

// CorrScorer implements the univariate scorers CorrMean and CorrMax: the
// mean (or max) absolute pairwise Pearson correlation between the columns
// of X and the columns of Y. It only looks at marginal dependencies and
// rejects conditioning sets; the engine swaps in a joint scorer when Z is
// non-empty, as the paper prescribes.
type CorrScorer struct {
	UseMax bool
}

// Name implements Scorer.
func (s *CorrScorer) Name() string {
	if s.UseMax {
		return "CorrMax"
	}
	return "CorrMean"
}

// Score implements Scorer.
func (s *CorrScorer) Score(x, y, z *linalg.Matrix, explainRows []int) (float64, error) {
	if z != nil && z.Cols > 0 {
		return 0, fmt.Errorf("core: %s cannot condition on Z; use a joint scorer", s.Name())
	}
	if x.Rows != y.Rows {
		return 0, fmt.Errorf("core: %s: X has %d rows, Y has %d", s.Name(), x.Rows, y.Rows)
	}
	if explainRows != nil {
		var err error
		if x, err = x.SelectRows(explainRows); err != nil {
			return 0, err
		}
		if y, err = y.SelectRows(explainRows); err != nil {
			return 0, err
		}
	}
	if x.Cols == 0 || y.Cols == 0 || x.Rows == 0 {
		return 0, fmt.Errorf("core: %s: empty design: %w", s.Name(), ErrDegenerate)
	}
	corr := stats.CorrelationMatrix(x, y)
	mean, max := stats.AbsMeanMax(corr)
	if s.UseMax {
		return checkFinite(s.Name(), max)
	}
	return checkFinite(s.Name(), mean)
}

// L2Scorer implements the joint/conditional ridge scorers of §3.5: L2 (no
// projection), L2-P50 and L2-P500 (random projection to at most ProjectDim
// dimensions before the penalised regression). Scores are k-fold
// time-series cross-validated explained variance, which Appendix A shows
// behaves like the adjusted r^2 under the NULL.
type L2Scorer struct {
	// ProjectDim caps the feature dimensionality via Gaussian random
	// projection; 0 disables projection (plain L2).
	ProjectDim int
	// ProjectionSamples is how many independent projections to average
	// (the paper uses 3 for its runtime figures, 1 for initial analysis).
	ProjectionSamples int
	// Grid is the ridge λ grid; nil uses regress.DefaultLambdaGrid.
	Grid []float64
	// Folds is k for cross-validation; 0 means 5.
	Folds int
	// Seed makes projection sampling reproducible across runs.
	Seed int64

	// projCache memoizes the Gaussian projection draws per (seed,
	// rows→dims): every candidate family of the same width reuses one
	// sample per draw index, which also makes projected rankings
	// independent of worker scheduling. Do not copy a scorer after use.
	projCache regress.ProjectionCache
}

// Large primes decorrelate the per-draw seeds of the X, Y and Z projections
// without consuming a shared RNG stream (which would couple the draw to
// scheduling order).
const (
	projSeedStride = 7919
	projRoleY      = 104729
	projRoleZ      = 2 * 104729
)

// Name implements Scorer.
func (s *L2Scorer) Name() string {
	if s.ProjectDim > 0 {
		return fmt.Sprintf("L2-P%d", s.ProjectDim)
	}
	return "L2"
}

func (s *L2Scorer) folds() int {
	if s.Folds <= 0 {
		return 5
	}
	return s.Folds
}

func (s *L2Scorer) grid() []float64 {
	if len(s.Grid) == 0 {
		return regress.DefaultLambdaGrid
	}
	return s.Grid
}

// Score implements Scorer.
func (s *L2Scorer) Score(x, y, z *linalg.Matrix, explainRows []int) (float64, error) {
	return s.score(context.Background(), x, y, z, nil, explainRows, new(regress.Scratch))
}

// ScoreCtx implements ContextScorer: the context is checked once per CV
// fold and per projection draw.
func (s *L2Scorer) ScoreCtx(ctx context.Context, x, y, z *linalg.Matrix, explainRows []int) (float64, error) {
	return s.score(ctx, x, y, z, nil, explainRows, new(regress.Scratch))
}

// condPrep caches the conditioning work that is identical for every
// candidate of a request: the factored Z design and the residualized
// target ry. Y and Z are fixed per request — only X varies — so the
// engine builds one condPrep and shares it across workers.
type condPrep struct {
	zDesign *regress.RidgeDesign
	ry      *linalg.Matrix
	lambda  float64
}

// prepareCond factors Z once and residualizes the target against it.
func (s *L2Scorer) prepareCond(y, z *linalg.Matrix) (*condPrep, error) {
	design, err := regress.NewRidgeDesign(z)
	if err != nil {
		return nil, err
	}
	lambda := s.grid()[len(s.grid())/2]
	ry, err := design.Residualize(y, lambda)
	if err != nil {
		return nil, err
	}
	return &condPrep{zDesign: design, ry: ry, lambda: lambda}, nil
}

// condCacheable reports whether one conditioning prep is valid for every
// projection draw: projection must leave Y and Z untouched (it only
// resamples matrices wider than ProjectDim).
func (s *L2Scorer) condCacheable(y, z *linalg.Matrix) bool {
	return s.ProjectDim <= 0 || (y.Cols <= s.ProjectDim && z.Cols <= s.ProjectDim)
}

// score is the scorer behind Score, ScoreCtx and the engine's workers.
// scratch is the calling goroutine's working memory: the candidate's
// residualization and its cross-validation both run in it, so a worker
// that scores thousands of candidates allocates its buffers once.
func (s *L2Scorer) score(ctx context.Context, x, y, z *linalg.Matrix, prep *condPrep, explainRows []int, scratch *regress.Scratch) (float64, error) {
	if err := s.checkShapes(x, y, z); err != nil {
		return 0, err
	}
	if z != nil && z.Cols > 0 && prep == nil && s.condCacheable(y, z) {
		var err error
		prep, err = s.prepareCond(y, z)
		if err != nil {
			return 0, err
		}
	}
	samples := 1
	if s.ProjectDim > 0 && s.ProjectionSamples > 1 && x.Cols > s.ProjectDim {
		samples = s.ProjectionSamples
	}
	// Hoisted Done read: a Background context makes the per-draw check free,
	// a cancellable one costs a channel poll instead of the context's lock.
	poll := ctxpoll.New(ctx, 1)
	var total float64
	for i := 0; i < samples; i++ {
		if err := poll.Check(); err != nil {
			return 0, err
		}
		px, py, pz := x, y, z
		if s.ProjectDim > 0 {
			base := s.Seed + projSeedStride*int64(i+1)
			px = s.projCache.Project(base, x, s.ProjectDim)
			py = s.projCache.Project(base+projRoleY, y, s.ProjectDim)
			if z != nil {
				pz = s.projCache.Project(base+projRoleZ, z, s.ProjectDim)
			}
		}
		score, err := s.scoreOnce(ctx, px, py, pz, prep, explainRows, scratch)
		if err != nil {
			return 0, err
		}
		total += score
	}
	return checkFinite(s.Name(), total/float64(samples))
}

// checkShapes is the shape check of every L2 scoring, before any
// arithmetic.
func (s *L2Scorer) checkShapes(x, y, z *linalg.Matrix) error {
	if x.Rows != y.Rows {
		return fmt.Errorf("core: %s: X has %d rows, Y has %d", s.Name(), x.Rows, y.Rows)
	}
	if z != nil && z.Rows != y.Rows {
		return fmt.Errorf("core: %s: Z has %d rows, Y has %d", s.Name(), z.Rows, y.Rows)
	}
	if x.Cols == 0 || y.Cols == 0 || x.Rows == 0 {
		return fmt.Errorf("core: %s: empty design: %w", s.Name(), ErrDegenerate)
	}
	return nil
}

// panelTarget prepares the target of a panel scoring: y itself, or with a
// conditioning set the target residualized in prep, whose design the
// candidates are then residualized against.
func (s *L2Scorer) panelTarget(y *linalg.Matrix, prep *condPrep) *regress.PanelTarget {
	if prep == nil {
		return regress.NewPanelTarget(y, nil, 0, s.grid(), s.folds())
	}
	return regress.NewPanelTarget(prep.ry, prep.zDesign, prep.lambda, s.grid(), s.folds())
}

// panelScore turns one candidate's panel outcome into the scorer's result:
// a score, or the error — a non-finite cell is a degenerate input.
func (s *L2Scorer) panelScore(out regress.PanelScore) (float64, error) {
	if errors.Is(out.Err, regress.ErrNonFiniteCell) {
		return 0, fmt.Errorf("core: %s: X has a non-finite cell: %w", s.Name(), ErrDegenerate)
	}
	if out.Err != nil {
		return 0, out.Err
	}
	return checkFinite(s.Name(), out.Score)
}

func (s *L2Scorer) scoreOnce(ctx context.Context, x, y, z *linalg.Matrix, prep *condPrep, explainRows []int, scratch *regress.Scratch) (float64, error) {
	// Conditional scoring (§3.5, Appendix B): residualise both X and Y on
	// Z, then score the residual-on-residual regression. A zero score then
	// certifies X ⊥ Y | Z under joint normality. Z is standardized and
	// factored once (prep), not once per residualization.
	if z != nil && z.Cols > 0 {
		if prep == nil {
			// A projected Z differs per draw, so the factorization is
			// shared only between this draw's Y and X residualizations.
			var err error
			prep, err = s.prepareCond(y, z)
			if err != nil {
				return 0, err
			}
		}
	}
	if explainRows == nil {
		// The one-candidate panel: the engine's path, at m = 1.
		var out [1]regress.PanelScore
		if err := scratch.ScorePanel(ctx, s.panelTarget(y, prep), []*linalg.Matrix{x}, out[:]); err != nil {
			return 0, err
		}
		return s.panelScore(out[0])
	}
	if prep != nil {
		// rx lives in scratch until the next candidate; prep.ry was
		// residualized into memory of its own and outlives it.
		rx, err := prep.zDesign.ResidualizeInto(x, prep.lambda, scratch)
		if err != nil {
			return 0, err
		}
		x, y = rx, prep.ry
	}
	// Train on everything, report explained variance on the explain range
	// only.
	lambda, err := bestLambda(ctx, x, y, s.grid(), s.folds(), scratch)
	if err != nil {
		return 0, err
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

// residualizeBoth residualizes y then x on the same conditioning set,
// standardizing and factoring Z only once.
func residualizeBoth(x, y, z *linalg.Matrix, lambda float64) (rx, ry *linalg.Matrix, err error) {
	design, err := regress.NewRidgeDesign(z)
	if err != nil {
		return nil, nil, err
	}
	if ry, err = design.Residualize(y, lambda); err != nil {
		return nil, nil, err
	}
	if rx, err = design.Residualize(x, lambda); err != nil {
		return nil, nil, err
	}
	return rx, ry, nil
}

// bestLambda runs the CV grid search and returns the winning penalty.
func bestLambda(ctx context.Context, x, y *linalg.Matrix, grid []float64, k int, scratch *regress.Scratch) (float64, error) {
	folds, err := regress.TimeSeriesFoldRanges(x.Rows, k)
	if err != nil {
		return grid[len(grid)/2], nil // too little data: middle of the grid
	}
	res, err := scratch.CrossValidateRidge(ctx, x, y, grid, folds)
	if err != nil {
		return 0, err
	}
	return res.BestLambda, nil
}

// LassoScorer is the L1-penalised variant the paper experimented with
// before settling on ridge for speed (§3.5). Provided for the ablation
// comparisons.
type LassoScorer struct {
	Lambda float64 // 0 means 0.01
	Folds  int
}

// Name implements Scorer.
func (s *LassoScorer) Name() string { return "L1" }

// Score implements Scorer.
func (s *LassoScorer) Score(x, y, z *linalg.Matrix, explainRows []int) (float64, error) {
	if x.Rows != y.Rows {
		return 0, fmt.Errorf("core: L1: X has %d rows, Y has %d", x.Rows, y.Rows)
	}
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 0.01
	}
	if z != nil && z.Cols > 0 {
		rx, ry, err := residualizeBoth(x, y, z, 1)
		if err != nil {
			return 0, err
		}
		x, y = rx, ry
	}
	if explainRows != nil {
		// Match the L2 range-to-explain semantics: train on the full range,
		// report explained variance on the explain rows only.
		model, err := regress.FitLasso(x, y, lambda, 200, 1e-6)
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
	k := s.Folds
	if k <= 0 {
		k = 5
	}
	folds, err := regress.TimeSeriesFolds(x.Rows, k)
	if err != nil {
		model, ferr := regress.FitLasso(x, y, lambda, 200, 1e-6)
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
	res, err := regress.CrossValidate(regress.LassoFitter, x, y, []float64{lambda}, folds)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// DefaultScorers returns the five scorers evaluated in Table 6 of the
// paper, with the given seed for the projection-based ones.
func DefaultScorers(seed int64) []Scorer {
	return []Scorer{
		&CorrScorer{UseMax: false},
		&CorrScorer{UseMax: true},
		&L2Scorer{Seed: seed},
		&L2Scorer{ProjectDim: 50, Seed: seed},
		&L2Scorer{ProjectDim: 500, Seed: seed},
	}
}
