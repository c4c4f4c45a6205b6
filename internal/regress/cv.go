package regress

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"explainit/internal/ctxpoll"
	"explainit/internal/linalg"
	"explainit/internal/stats"
)

// Fold is a train/validation split expressed as row index ranges. ExplainIt!
// uses contiguous time blocks so the validation range never overlaps the
// training range (§3.5, citing Arlot & Celisse): shuffled folds would leak
// autocorrelated samples between train and validation and inflate scores.
type Fold struct {
	TrainIdx, ValIdx []int
}

// FoldRange is the range form of a time-series fold: validation rows are
// the contiguous block [From, To) and training rows are the complement
// [0, From) ∪ [To, n). Representing folds as ranges lets the CV loop build
// each train matrix with two block copies instead of per-row index gathers.
type FoldRange struct {
	From, To int
}

// TimeSeriesFoldRanges cuts n rows into k consecutive validation blocks,
// one fold per block. Same validation rules as TimeSeriesFolds.
func TimeSeriesFoldRanges(n, k int) ([]FoldRange, error) {
	return appendFoldRanges(nil, n, k)
}

// appendFoldRanges appends TimeSeriesFoldRanges(n, k) to dst.
func appendFoldRanges(dst []FoldRange, n, k int) ([]FoldRange, error) {
	if k < 2 {
		return nil, fmt.Errorf("regress: need k >= 2 folds, got %d", k)
	}
	if n < 2*k {
		return nil, fmt.Errorf("regress: %d rows too few for %d folds", n, k)
	}
	for f := 0; f < k; f++ {
		dst = append(dst, FoldRange{From: f * n / k, To: (f + 1) * n / k})
	}
	return dst, nil
}

// TimeSeriesFolds builds k contiguous folds over n rows: the rows are cut
// into k consecutive blocks; each block serves as the validation set once,
// with all remaining rows used for training. It is the materialised-index
// form of TimeSeriesFoldRanges, kept for fitters that need arbitrary index
// folds (lasso CV, shuffled-fold ablations).
func TimeSeriesFolds(n, k int) ([]Fold, error) {
	ranges, err := TimeSeriesFoldRanges(n, k)
	if err != nil {
		return nil, err
	}
	folds := make([]Fold, len(ranges))
	for f, r := range ranges {
		val := make([]int, 0, r.To-r.From)
		train := make([]int, 0, n-(r.To-r.From))
		for i := 0; i < n; i++ {
			if i >= r.From && i < r.To {
				val = append(val, i)
			} else {
				train = append(train, i)
			}
		}
		folds[f] = Fold{TrainIdx: train, ValIdx: val}
	}
	return folds, nil
}

// ShuffledFolds builds k random folds (used only by the ablation bench that
// demonstrates leakage on autocorrelated data; production scoring always
// uses TimeSeriesFolds). The permutation is derived deterministically from
// seed so experiments are reproducible.
func ShuffledFolds(n, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("regress: need k >= 2 folds, got %d", k)
	}
	if n < 2*k {
		return nil, fmt.Errorf("regress: %d rows too few for %d folds", n, k)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// xorshift-based Fisher-Yates to avoid importing math/rand here.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		val := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds[f] = Fold{TrainIdx: train, ValIdx: val}
	}
	return folds, nil
}

// Fitter fits a model on (x, y) with the given penalty.
type Fitter func(x, y *linalg.Matrix, lambda float64) (*Model, error)

// RidgeFitter adapts FitRidge to the Fitter signature.
func RidgeFitter(x, y *linalg.Matrix, lambda float64) (*Model, error) {
	return FitRidge(x, y, lambda)
}

// LassoFitter adapts FitLasso with default iteration controls.
func LassoFitter(x, y *linalg.Matrix, lambda float64) (*Model, error) {
	return FitLasso(x, y, lambda, 200, 1e-6)
}

// CVResult reports a cross-validated model selection outcome.
type CVResult struct {
	BestLambda float64
	// Score is the cross-validated explained-variance estimate in [0, 1]
	// for the best lambda: the out-of-sample analogue of adjusted r^2
	// (Appendix A shows CV'd ridge r^2 behaves like OLS r2_adj).
	Score float64
	// PerLambda holds the CV score for every grid point, aligned with the
	// grid passed to CrossValidate.
	PerLambda []float64
}

// CrossValidate selects the penalty from grid by k-fold time-series CV and
// returns the cross-validated score. The score for one fold is the
// explained variance of the validation rows (clamped at 0); fold scores are
// averaged. This is the model-selection loop the paper runs per hypothesis
// (k = 5, L = |grid| values of λ).
func CrossValidate(fit Fitter, x, y *linalg.Matrix, grid []float64, folds []Fold) (CVResult, error) {
	if len(grid) == 0 {
		return CVResult{}, fmt.Errorf("regress: empty lambda grid")
	}
	if len(folds) == 0 {
		return CVResult{}, fmt.Errorf("regress: no folds")
	}
	res := CVResult{PerLambda: make([]float64, len(grid)), BestLambda: grid[0], Score: -1}
	for gi, lambda := range grid {
		var total float64
		var used int
		for _, fold := range folds {
			xTrain, err := x.SelectRows(fold.TrainIdx)
			if err != nil {
				return CVResult{}, err
			}
			yTrain, err := y.SelectRows(fold.TrainIdx)
			if err != nil {
				return CVResult{}, err
			}
			xVal, err := x.SelectRows(fold.ValIdx)
			if err != nil {
				return CVResult{}, err
			}
			yVal, err := y.SelectRows(fold.ValIdx)
			if err != nil {
				return CVResult{}, err
			}
			model, err := fit(xTrain, yTrain, lambda)
			if err != nil {
				continue // singular fold: skip, not fatal
			}
			pred, err := model.Predict(xVal)
			if err != nil {
				continue
			}
			total += stats.ExplainedVarianceMean(yVal, pred)
			used++
		}
		if used == 0 {
			res.PerLambda[gi] = 0
			continue
		}
		score := total / float64(used)
		res.PerLambda[gi] = score
		if score > res.Score {
			res.Score = score
			res.BestLambda = lambda
		}
	}
	if res.Score < 0 {
		res.Score = 0
	}
	return res, nil
}

// Scratch is the working memory of one scoring goroutine: the buffers that
// RidgeDesign.ResidualizeInto and the ridge cross-validation write into
// instead of allocating per candidate. The zero value is ready to use. A
// Scratch must not be shared between goroutines, and a matrix handed out
// of it stays valid only until the next call of the same kind on it.
type Scratch struct {
	// ResidualizeInto.
	centred, solved, coef, resid linalg.Matrix
	yMeans                       []float64

	// Cross-validation: fold bookkeeping, the target's and the candidate's
	// per-segment moments, and the p x p working set of one fold's λ sweep.
	folds      []FoldRange
	totals     []float64
	used       []int
	cuts       []int
	tsegs      []linalg.TargetBlock
	tile       linalg.Matrix
	segs       []linalg.MomentBlock
	parts      []*linalg.MomentBlock
	train, val linalg.MomentBlock
	scale      []float64
	gram, rhs  linalg.Matrix // standardized training Gram and Xᵀy, penalty-free
	ridge      linalg.Matrix // gram + (λ+jitter)I
	chol       linalg.Matrix
	beta       linalg.Matrix // coefficients in raw (unstandardized) units
	vbeta      linalg.Matrix // validation scatter times beta

	// ScorePanel: the gathered panel, one candidate's residual copied out
	// of it, and the width-1 lanes — their columns and, per segment and
	// lane, the reference, mean, scatter and cross-scatter with the target.
	panel, cand         linalg.Matrix
	lanes               []int
	cols                [][]float64
	laneTile            []float64
	refX, meanX, xx, xy []float64
	xyTrain, rhsLane    []float64
}

// CrossValidateRidge is the ridge CV path of every scorer: fold-moment
// cross-validation. One pass over the candidate summarizes each contiguous
// row segment between fold boundaries as a centred moment block (row count,
// means, XᵀX, XᵀY, diag YᵀY about the block's mean — linalg.MomentBlock).
// A fold's training statistics are the merge of the blocks outside it, so
// no train matrix is ever assembled, standardized or Grammed: the training
// means and standard deviations sit in the merged block, the standardized
// Gram and Xᵀy are a rescale of it, each λ costs one p x p Cholesky plus
// triangular solves, and the held-out r² comes from the validation block's
// own moments. Every row is crossed once instead of once per fold it trains.
//
// Scores match CrossValidate(RidgeFitter, ...) over the equivalent index
// folds to 1e-9 (the same standardization rule, jitter policy and clamps,
// evaluated in moment space). Folds whose training rows number fewer than
// the features take the dual form, where the Gram is n x n and has no
// moment-space shortcut; they keep the assemble-and-factor path, the same
// shape switch FitRidge makes.
func CrossValidateRidge(x, y *linalg.Matrix, grid []float64, folds []FoldRange) (CVResult, error) {
	return CrossValidateRidgeCtx(context.Background(), x, y, grid, folds)
}

// CrossValidateRidgeCtx is CrossValidateRidge with cooperative cancellation:
// the context is polled before every segment's moment pass and every fold's
// λ sweep (the units of non-trivial work), so a cancelled ranking abandons
// a candidate within one fold's worth of compute. A cancelled run returns
// ctx.Err(), including for a context cancelled before the first fold. The
// Done channel is hoisted out of the loops (ctxpoll), so an uncancellable
// context costs nothing and a cancellable one a lock-free channel poll.
func CrossValidateRidgeCtx(ctx context.Context, x, y *linalg.Matrix, grid []float64, folds []FoldRange) (CVResult, error) {
	return new(Scratch).CrossValidateRidge(ctx, x, y, grid, folds)
}

// CrossValidateRidge is CrossValidateRidgeCtx on s's buffers: with a warm
// Scratch only the returned PerLambda slice is allocated.
func (s *Scratch) CrossValidateRidge(ctx context.Context, x, y *linalg.Matrix, grid []float64, folds []FoldRange) (CVResult, error) {
	if err := s.sweepFolds(ctx, x, y, grid, folds); err != nil {
		return CVResult{}, err
	}
	res := CVResult{PerLambda: make([]float64, len(grid))}
	res.BestLambda, res.Score = s.selectLambda(grid, res.PerLambda)
	return res, nil
}

// selectLambda averages the fold scores sweepFolds left in s per grid
// point, writes them to perLambda when non-nil, and returns the winning
// penalty with its score (clamped at 0; grid[0] when no fold was usable).
func (s *Scratch) selectLambda(grid, perLambda []float64) (best, score float64) {
	best, score = grid[0], -1
	for gi, lambda := range grid {
		if s.used[gi] == 0 {
			continue
		}
		mean := s.totals[gi] / float64(s.used[gi])
		if perLambda != nil {
			perLambda[gi] = mean
		}
		if mean > score {
			best, score = lambda, mean
		}
	}
	if score < 0 {
		score = 0
	}
	return best, score
}

// sweepFolds runs the fold loop, leaving in s.totals / s.used the summed
// held-out score and the number of usable folds per grid point.
func (s *Scratch) sweepFolds(ctx context.Context, x, y *linalg.Matrix, grid []float64, folds []FoldRange) error {
	if len(grid) == 0 {
		return fmt.Errorf("regress: empty lambda grid")
	}
	if len(folds) == 0 {
		return fmt.Errorf("regress: no folds")
	}
	if x.Rows != y.Rows {
		return fmt.Errorf("regress: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	n, p := x.Rows, x.Cols
	primal := false
	for _, f := range folds {
		if f.From < 0 || f.To > n || f.From >= f.To {
			return fmt.Errorf("%w: fold [%d,%d) of %d rows", linalg.ErrShape, f.From, f.To, n)
		}
		if nTrain := n - (f.To - f.From); p > 0 && p <= nTrain {
			primal = true
		}
	}
	s.totals = growZeroed(s.totals, len(grid))
	s.used = growZeroed(s.used, len(grid))
	poll := ctxpoll.New(ctx, 1)
	if primal {
		s.cutSegments(n, folds)
		for len(s.tsegs) < len(s.cuts)-1 {
			s.tsegs = append(s.tsegs, linalg.TargetBlock{})
		}
		for i := 0; i+1 < len(s.cuts); i++ {
			s.tsegs[i].Reset(y, s.cuts[i], s.cuts[i+1])
		}
		if err := s.segmentMoments(&poll, x, s.tsegs); err != nil {
			return err
		}
	}
	return s.foldLoop(&poll, x, y, grid, folds)
}

// foldLoop scores every fold once the segment moments are in s (when any
// fold is primal), adding each fold's per-λ held-out score to s.totals.
func (s *Scratch) foldLoop(poll *ctxpoll.Poll, x, y *linalg.Matrix, grid []float64, folds []FoldRange) error {
	n, p := x.Rows, x.Cols
	for _, f := range folds {
		if err := poll.Check(); err != nil {
			return err
		}
		switch nTrain := n - (f.To - f.From); {
		case nTrain == 0 || p == 0:
			// Nothing to train on: skip, not fatal (matches CrossValidate).
		case p > nTrain:
			s.dualFold(x, y, grid, f)
		default:
			s.momentFold(grid, f)
		}
	}
	return nil
}

// growZeroed returns buf resliced to n zeroed elements, reallocating only
// when its capacity is too small.
func growZeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// cutSegments cuts n rows at every fold boundary into s.cuts. Time-series
// folds partition the rows, so the segments are the folds themselves;
// arbitrary caller ranges (gaps, overlaps) still decompose, because every
// fold and every fold's complement is a union of segments.
func (s *Scratch) cutSegments(n int, folds []FoldRange) {
	cuts := append(s.cuts[:0], 0, n)
	for _, f := range folds {
		cuts = append(cuts, f.From, f.To)
	}
	sort.Ints(cuts)
	s.cuts = slices.Compact(cuts)
}

// segmentMoments summarizes each segment of x between s.cuts as one moment
// block, pairing it with the target's half of that segment from tsegs.
func (s *Scratch) segmentMoments(poll *ctxpoll.Poll, x *linalg.Matrix, tsegs []linalg.TargetBlock) error {
	for len(s.segs) < len(s.cuts)-1 {
		s.segs = append(s.segs, linalg.MomentBlock{})
	}
	for i := 0; i+1 < len(s.cuts); i++ {
		if err := poll.Check(); err != nil {
			return err
		}
		tsegs[i].Block(x, &s.segs[i], &s.tile)
	}
	return nil
}

// momentFold scores one primal-regime fold in moment space and adds its
// per-λ held-out score to s.totals.
func (s *Scratch) momentFold(grid []float64, f FoldRange) {
	// Segments never straddle a fold boundary: each lies wholly inside the
	// validation range or wholly outside it.
	parts := s.parts[:0]
	for i := 0; i+1 < len(s.cuts); i++ {
		if s.cuts[i] < f.From || s.cuts[i] >= f.To {
			parts = append(parts, &s.segs[i])
		}
	}
	nOutside := len(parts)
	for i := 0; i+1 < len(s.cuts); i++ {
		if s.cuts[i] >= f.From && s.cuts[i] < f.To {
			parts = append(parts, &s.segs[i])
		}
	}
	s.parts = parts
	tr, vl := &s.train, parts[nOutside]
	tr.Merge(parts[:nOutside])
	if len(parts) > nOutside+1 {
		vl = &s.val
		vl.Merge(parts[nOutside:])
	}

	// The standardized training Gram and Xᵀy are a rescale of the centred
	// scatter: variances sit on its diagonal, and the divisor rule is
	// StandardizeColumns' (near-constant columns are centred, not scaled).
	p, q := tr.XX.Rows, tr.XY.Cols
	s.scale = growZeroed(s.scale, p)
	for j := range s.scale {
		s.scale[j] = effStd(math.Sqrt(tr.XX.At(j, j) / float64(tr.N)))
	}
	gram, rhs := s.gram.Resize(p, p), s.rhs.Resize(p, q)
	for i := 0; i < p; i++ {
		src, dst := tr.XX.Row(i), gram.Row(i)
		for j, v := range src {
			dst[j] = v / (s.scale[i] * s.scale[j])
		}
		src, dst = tr.XY.Row(i), rhs.Row(i)
		for j, v := range src {
			dst[j] = v / s.scale[i]
		}
	}
	for gi, lambda := range grid {
		if lambda < 0 {
			continue // unusable grid point: skip, as a failed fit is
		}
		ridge := s.ridge.Resize(p, p)
		copy(ridge.Data, gram.Data)
		ridge.AddDiag(lambda + 1e-10)
		if err := linalg.CholeskySPDInto(ridge, &s.chol); err != nil {
			continue
		}
		if err := linalg.SolveCholeskyInto(&s.chol, rhs, &s.beta); err != nil {
			continue
		}
		for i := 0; i < p; i++ {
			row := s.beta.Row(i)
			for j := range row {
				row[j] /= s.scale[i]
			}
		}
		s.totals[gi] += s.heldOutScore(tr, vl)
		s.used[gi]++
	}
}

// heldOutScore is stats.ExplainedVarianceMean of the validation rows under
// the model (train means, s.beta), evaluated from moments. The residual of
// validation row i splits as u_i + off, where u_i = (y_i − ȳ_v) − βᵀ(x_i −
// x̄_v) sums to zero over the fold and off = (ȳ_v − ȳ_t) − βᵀ(x̄_v − x̄_t)
// is the fold mean's own prediction error, so
//
//	rss = [Σ(y−ȳ_v)² − 2βᵀΣ(x−x̄_v)(y−ȳ_v) + βᵀΣ(x−x̄_v)(x−x̄_v)ᵀβ] + n_v·off²
//
// — a quadratic form in the validation scatter plus a non-negative offset
// term — and tss is the validation block's Σ(y−ȳ_v)² itself.
func (s *Scratch) heldOutScore(tr, vl *linalg.MomentBlock) float64 {
	p, q := s.beta.Rows, s.beta.Cols
	if q == 0 {
		return 0
	}
	if err := vl.XX.MulInto(&s.beta, &s.vbeta); err != nil {
		return 0
	}
	var total float64
	for c := 0; c < q; c++ {
		tss := vl.YY[c]
		if tss <= 0 {
			continue
		}
		off := vl.MeanYFrom(tr, c)
		rss := tss
		for j := 0; j < p; j++ {
			b := s.beta.At(j, c)
			off -= b * vl.MeanXFrom(tr, j)
			rss += b * (s.vbeta.At(j, c) - 2*vl.XY.At(j, c))
		}
		rss += float64(vl.N) * off * off
		if r2 := 1 - rss/tss; r2 > 1 {
			total++
		} else if r2 > 0 {
			total += r2
		}
	}
	return total / float64(q)
}

// dualFold scores one fold whose training rows number fewer than the
// features: the train matrix is assembled from the two contiguous blocks
// around the validation range, standardized and outer-Grammed once, and
// the λ grid swept at one Cholesky + triangular solve per point.
func (s *Scratch) dualFold(x, y *linalg.Matrix, grid []float64, f FoldRange) {
	xVal, err := x.SliceRows(f.From, f.To)
	if err != nil {
		return
	}
	yVal, err := y.SliceRows(f.From, f.To)
	if err != nil {
		return
	}
	design, err := NewRidgeDesign(excludeRows(x, f.From, f.To))
	if err != nil {
		return // degenerate fold: skip, not fatal (matches CrossValidate)
	}
	target, err := design.Prepare(excludeRows(y, f.From, f.To))
	if err != nil {
		return
	}
	// One prediction buffer per fold, reused across the λ grid.
	pred := linalg.NewMatrix(xVal.Rows, y.Cols)
	for gi, lambda := range grid {
		model, err := target.Fit(lambda)
		if err != nil {
			continue
		}
		if err := model.PredictInto(xVal, pred); err != nil {
			continue
		}
		s.totals[gi] += stats.ExplainedVarianceMean(yVal, pred)
		s.used[gi]++
	}
}

// excludeRows copies all rows of m except the block [from, to) into a new
// matrix: two contiguous copies instead of a per-row gather.
func excludeRows(m *linalg.Matrix, from, to int) *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows-(to-from), m.Cols)
	copy(out.Data, m.Data[:from*m.Cols])
	copy(out.Data[from*m.Cols:], m.Data[to*m.Cols:])
	return out
}

// CrossValidatedScore is k-fold time-series CV of ridge regression of y on
// x over the grid (nil: the default grid), returning the out-of-sample
// explained variance in [0, 1]. If there are too few rows for k folds it
// falls back to an in-sample adjusted r^2. The scorers run the same CV
// through ScorePanel, which returns this score, bit for bit, for every
// candidate of a panel.
func CrossValidatedScore(x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	return CrossValidatedScoreCtx(context.Background(), x, y, grid, k)
}

// CrossValidatedScoreCtx is CrossValidatedScore with per-fold cooperative
// cancellation (see CrossValidateRidgeCtx).
func CrossValidatedScoreCtx(ctx context.Context, x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	return new(Scratch).CrossValidatedScore(ctx, x, y, grid, k)
}

// CrossValidatedScore is CrossValidatedScoreCtx on s's buffers: with a warm
// Scratch the CV path allocates nothing.
func (s *Scratch) CrossValidatedScore(ctx context.Context, x, y *linalg.Matrix, grid []float64, k int) (float64, error) {
	if len(grid) == 0 {
		grid = DefaultLambdaGrid
	}
	// One hoisted poll instead of ctx.Err(): the pre-fold check inside
	// sweepFolds covers the common path; this entry check keeps the
	// too-few-rows fallback (which never reaches the fold loop) prompt.
	entry := ctxpoll.New(ctx, 1)
	if err := entry.Check(); err != nil {
		return 0, err
	}
	folds, err := appendFoldRanges(s.folds[:0], x.Rows, k)
	if err != nil {
		return inSampleScore(x, y, grid[len(grid)/2])
	}
	s.folds = folds
	if err := s.sweepFolds(ctx, x, y, grid, folds); err != nil {
		return 0, err
	}
	_, score := s.selectLambda(grid, nil)
	return score, nil
}

// inSampleScore is the score when there are too few rows for CV: fit once
// at lambda and adjust the in-sample explained variance for predictors.
func inSampleScore(x, y *linalg.Matrix, lambda float64) (float64, error) {
	model, err := FitRidge(x, y, lambda)
	if err != nil {
		return 0, err
	}
	pred, err := model.Predict(x)
	if err != nil {
		return 0, err
	}
	raw := stats.ExplainedVarianceMean(y, pred)
	adj := stats.AdjustedRSquared(raw, x.Rows, x.Cols)
	if adj < 0 {
		adj = 0
	}
	return adj, nil
}
