// Package regress implements the regression estimators behind ExplainIt!'s
// joint and conditional scorers (§3.5): ordinary least squares, ridge
// regression (with the dual form for wide matrices and a λ grid search),
// lasso via coordinate descent, time-aware k-fold cross-validation, and
// Gaussian random projections.
package regress

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"explainit/internal/linalg"
)

// ErrNoData is returned when a fit is requested on an empty design matrix.
var ErrNoData = errors.New("regress: empty design matrix")

// ErrNonFinite is returned when a target column holds a NaN or ±Inf. A
// non-finite cell of x already fails the Cholesky pivot (linalg.ErrSingular),
// but the target never reaches a pivot and would yield a NaN model.
var ErrNonFinite = errors.New("regress: non-finite target")

// checkTargetMeans rejects a target whose column means are not finite, which
// is the case exactly when a column holds a NaN or ±Inf (or its sum
// overflows).
func checkTargetMeans(means []float64) error {
	for j, m := range means {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("%w: column %d has mean %g", ErrNonFinite, j, m)
		}
	}
	return nil
}

// Model is a fitted linear model. Predictions are computed as
// (x - xMeans)/xStds * Coef + yMeans, i.e. the model standardises inputs
// with the training transform and predicts centred targets.
type Model struct {
	Coef           *linalg.Matrix // p x q coefficient matrix
	XMeans, XStds  []float64
	YMeans         []float64
	Lambda         float64 // ridge/lasso penalty used (0 for OLS)
	TrainRowsCount int
}

// Predict applies the model to raw (unstandardised) inputs. The
// standardization is fused into the product row by row, so no standardized
// copy of x is materialised.
func (m *Model) Predict(x *linalg.Matrix) (*linalg.Matrix, error) {
	pred := linalg.NewMatrix(x.Rows, m.Coef.Cols)
	if err := m.PredictInto(x, pred); err != nil {
		return nil, err
	}
	return pred, nil
}

// PredictInto writes the prediction into out (which must be x.Rows by
// m.Coef.Cols), overwriting its contents — the scratch-buffer variant of
// Predict for hot loops.
func (m *Model) PredictInto(x, out *linalg.Matrix) error {
	if x.Cols != m.Coef.Rows {
		return fmt.Errorf("regress: predict with %d features, model has %d", x.Cols, m.Coef.Rows)
	}
	if out.Rows != x.Rows || out.Cols != m.Coef.Cols {
		return fmt.Errorf("regress: prediction is %dx%d, out is %dx%d", x.Rows, m.Coef.Cols, out.Rows, out.Cols)
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		prow := out.Row(i)
		for k, v := range xrow {
			v -= m.XMeans[k]
			if m.XStds[k] > 1e-12 {
				v /= m.XStds[k]
			}
			if v == 0 {
				continue
			}
			crow := m.Coef.Row(k)
			for j, c := range crow {
				prow[j] += v * c
			}
		}
		for j := range prow {
			prow[j] += m.YMeans[j]
		}
	}
	return nil
}

// Residuals returns y - Predict(x), reusing the prediction buffer for the
// subtraction instead of allocating a third matrix.
func (m *Model) Residuals(x, y *linalg.Matrix) (*linalg.Matrix, error) {
	pred, err := m.Predict(x)
	if err != nil {
		return nil, err
	}
	if y.Rows != pred.Rows || y.Cols != pred.Cols {
		return nil, fmt.Errorf("%w: (%dx%d) - (%dx%d)", linalg.ErrShape, y.Rows, y.Cols, pred.Rows, pred.Cols)
	}
	for i, v := range y.Data {
		pred.Data[i] = v - pred.Data[i]
	}
	return pred, nil
}

// FitOLS fits ordinary least squares on standardised features and centred
// targets: the λ = 0 case of FitRidge, with its 1e-10 diagonal jitter and
// jittered-Cholesky retries. On a rank-deficient design the coefficients are
// not unique; the predictions are.
func FitOLS(x, y *linalg.Matrix) (*Model, error) {
	return FitRidge(x, y, 0)
}

// FitRidge fits ridge regression with penalty lambda, choosing the primal
// (p x p) or dual (n x n) normal equations depending on which is smaller —
// the dual form makes p >> n feature families tractable, mirroring the
// asymptotic cost O(ny * min(T n^2, T^2 n)) from Table 2 of the paper.
func FitRidge(x, y *linalg.Matrix, lambda float64) (*Model, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, ErrNoData
	}
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("regress: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("regress: negative lambda %g", lambda)
	}
	xs := x.Clone()
	xMeans, xStds := xs.StandardizeColumns()
	ys := y.Clone()
	yMeans := ys.ColMeans()
	if err := checkTargetMeans(yMeans); err != nil {
		return nil, err
	}
	ys.CenterColumns(yMeans)

	var coef *linalg.Matrix
	var err error
	if xs.Cols <= xs.Rows {
		// Primal: (X^T X + λI) β = X^T y.
		gram := xs.Gram().AddDiag(lambda + 1e-10)
		xty, e := xs.MulT(ys)
		if e != nil {
			return nil, e
		}
		coef, err = linalg.SolveSPD(gram, xty)
	} else {
		// Dual: β = X^T (X X^T + λI)^{-1} y.
		outer := xs.GramOuter().AddDiag(lambda + 1e-10)
		w, e := linalg.SolveSPD(outer, ys)
		if e != nil {
			return nil, e
		}
		coef, err = xs.MulT(w)
	}
	if err != nil {
		return nil, err
	}
	return &Model{Coef: coef, XMeans: xMeans, XStds: xStds, YMeans: yMeans, Lambda: lambda, TrainRowsCount: x.Rows}, nil
}

// RidgeDesign caches everything about a fixed design matrix that does not
// depend on the ridge penalty or the target: the standardized copy of X,
// its Gram (primal, p <= n) or outer Gram (dual, p > n), and the Cholesky
// factors of (G + λI) per λ. FitRidge recomputes all of that from scratch
// on every call; across a CV λ grid, repeated residualizations against the
// same conditioning set, or an engine request where only the target varies,
// the Gram is by far the dominant cost and is identical every time. With a
// design in hand, each additional (y, λ) fit costs one cross-product and
// two triangular solves. Results match FitRidge to float64 rounding because
// the arithmetic (standardization, Gram accumulation order, jittered
// Cholesky) is exactly the same — only the redundancy is gone.
//
// A RidgeDesign is safe for concurrent use by multiple goroutines.
type RidgeDesign struct {
	xs            *linalg.Matrix // standardized copy of X
	xMeans, xStds []float64
	primal        bool
	gram          *linalg.Matrix // p x p (primal) or n x n (dual), penalty-free

	// parent, when non-nil, is the design this one extends: its columns are
	// the first parentCols columns of xs, its Gram is the top-left block of
	// gram, and its per-λ Cholesky factors are the top-left blocks of this
	// design's factors (see ExtendDesign).
	parent     *RidgeDesign
	parentCols int

	// factors is an immutable snapshot of the per-λ Cholesky factors of
	// gram + (λ+jitter)I: readers load it without locking; a miss computes
	// the factor under mu and publishes a copy with the new entry appended.
	// The grid is a handful of penalties, so a linear scan beats a map.
	mu      sync.Mutex
	factors atomic.Pointer[[]lambdaFactor]
}

type lambdaFactor struct {
	lambda float64
	l      *linalg.Matrix
}

// cachedFactor scans the current snapshot for lambda.
func (d *RidgeDesign) cachedFactor(lambda float64) *linalg.Matrix {
	if snap := d.factors.Load(); snap != nil {
		for _, f := range *snap {
			if f.lambda == lambda {
				return f.l
			}
		}
	}
	return nil
}

// NewRidgeDesign standardizes x once and computes its (outer) Gram once.
func NewRidgeDesign(x *linalg.Matrix) (*RidgeDesign, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, ErrNoData
	}
	xs := x.Clone()
	xMeans, xStds := xs.StandardizeColumns()
	d := &RidgeDesign{
		xs:     xs,
		xMeans: xMeans,
		xStds:  xStds,
		primal: xs.Cols <= xs.Rows,
	}
	if d.primal {
		d.gram = xs.Gram()
	} else {
		d.gram = xs.GramOuter()
	}
	return d, nil
}

// Rows returns the number of observations the design was built on.
func (d *RidgeDesign) Rows() int { return d.xs.Rows }

// Cols returns the number of features in the design.
func (d *RidgeDesign) Cols() int { return d.xs.Cols }

// factor returns the cached Cholesky factor of (gram + λI), computing and
// memoizing it on first use. The same jitter policy as FitRidge/SolveSPD
// applies, so the factor is bit-identical to what a fresh fit would use.
// An extended design (ExtendDesign) first tries the one-block incremental
// factorization against its parent's cached factor and only falls back to
// factoring the whole matrix when that fails. A cached penalty — every
// call after the first, from every scoring worker — is a lock-free read;
// misses serialize on mu, so each factor is still computed exactly once.
func (d *RidgeDesign) factor(lambda float64) (*linalg.Matrix, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("regress: negative lambda %g", lambda)
	}
	if l := d.cachedFactor(lambda); l != nil {
		return l, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l := d.cachedFactor(lambda); l != nil {
		return l, nil // another goroutine factored it while we waited
	}
	var l *linalg.Matrix
	if d.parent != nil {
		l = d.extendFactor(lambda)
	}
	if l == nil {
		g := d.gram.Clone().AddDiag(lambda + 1e-10)
		var err error
		l, err = linalg.CholeskySPD(g)
		if err != nil {
			return nil, err
		}
	}
	var next []lambdaFactor
	if snap := d.factors.Load(); snap != nil {
		next = append(next, *snap...)
	}
	next = append(next, lambdaFactor{lambda, l})
	d.factors.Store(&next)
	return l, nil
}

// extendFactor builds chol(gram + (λ+jitter)I) from the parent's factor via
// one block step: with A = [[A11, A12], [A12ᵀ, A22]] and A11 = L11·L11ᵀ
// already factored, L = [[L11, 0], [Yᵀ, chol(A22 − YᵀY)]] where
// Y = L11⁻¹·A12. Only the (small) delta block is ever factored — the
// unchanged conditioning prefix is reused as-is, per λ. Returns nil when
// the parent factor or the Schur complement is unavailable; the caller then
// falls back to the full factorization. Caller holds d.mu (the parent's
// lock is acquired independently; locks only ever nest child → parent, so
// the order is acyclic).
func (d *RidgeDesign) extendFactor(lambda float64) *linalg.Matrix {
	l11, err := d.parent.factor(lambda)
	if err != nil {
		return nil
	}
	p1 := d.parentCols
	p := d.gram.Rows
	m := p - p1
	a12 := linalg.NewMatrix(p1, m)
	for i := 0; i < p1; i++ {
		copy(a12.Row(i), d.gram.Row(i)[p1:])
	}
	y, err := linalg.ForwardSubst(l11, a12)
	if err != nil {
		return nil
	}
	s := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		copy(s.Row(i), d.gram.Row(p1 + i)[p1:])
	}
	s.AddDiag(lambda + 1e-10)
	yty := y.Gram()
	for i := range s.Data {
		s.Data[i] -= yty.Data[i]
	}
	l22, err := linalg.Cholesky(s)
	if err != nil {
		return nil // Schur block not SPD under plain Cholesky: full refactor
	}
	l := linalg.NewMatrix(p, p)
	for i := 0; i < p1; i++ {
		copy(l.Row(i)[:p1], l11.Row(i))
	}
	for i := 0; i < m; i++ {
		row := l.Row(p1 + i)
		for j := 0; j < p1; j++ {
			row[j] = y.At(j, i)
		}
		copy(row[p1:], l22.Row(i))
	}
	return l
}

// ExtendDesign returns the design of the horizontally stacked matrix
// [prev | xNew], reusing prev's standardized columns and Gram block and —
// lazily, per λ — its Cholesky factors: only the delta columns are
// standardized, crossed and factored. This is what lets an iterative
// investigation that grows its conditioning set by one family per step pay
// only for the delta at step k+1 instead of refactoring the whole set.
// Results match NewRidgeDesign on the stacked raw columns to float64
// rounding (well within 1e-9 for conditioned Gram matrices): column-wise
// standardization and the Gram blocks are computed by the identical
// arithmetic, and the block Cholesky is algebraically exact.
//
// When the stacked design would leave the primal regime (columns > rows) —
// where the Gram is n x n and grows no block structure — the design is
// rebuilt from scratch on the stacked standardized matrix instead.
func ExtendDesign(prev *RidgeDesign, xNew *linalg.Matrix) (*RidgeDesign, error) {
	if prev == nil {
		return NewRidgeDesign(xNew)
	}
	if xNew == nil || xNew.Cols == 0 {
		return prev, nil
	}
	if xNew.Rows != prev.xs.Rows {
		return nil, fmt.Errorf("regress: extending %d-row design with %d rows", prev.xs.Rows, xNew.Rows)
	}
	xs2 := xNew.Clone()
	m2, s2 := xs2.StandardizeColumns()
	if !prev.primal || prev.xs.Cols+xs2.Cols > prev.xs.Rows {
		// Dual regime: the outer Gram admits no cheap column extension.
		// Restandardizing an already standardized column is an arithmetic
		// no-op, so stacking xs with the standardized delta matches the
		// scratch build.
		stacked, err := linalg.HStack(prev.xs, xs2)
		if err != nil {
			return nil, err
		}
		return NewRidgeDesign(stacked)
	}
	xs, err := linalg.HStack(prev.xs, xs2)
	if err != nil {
		return nil, err
	}
	p1, p2 := prev.xs.Cols, xs2.Cols
	cross, err := prev.xs.MulT(xs2) // p1 x p2 block X1ᵀX2
	if err != nil {
		return nil, err
	}
	g22 := xs2.Gram()
	gram := linalg.NewMatrix(p1+p2, p1+p2)
	for i := 0; i < p1; i++ {
		row := gram.Row(i)
		copy(row[:p1], prev.gram.Row(i))
		copy(row[p1:], cross.Row(i))
	}
	for i := 0; i < p2; i++ {
		row := gram.Row(p1 + i)
		for j := 0; j < p1; j++ {
			row[j] = cross.At(j, i)
		}
		copy(row[p1:], g22.Row(i))
	}
	return &RidgeDesign{
		xs:         xs,
		xMeans:     append(append([]float64(nil), prev.xMeans...), m2...),
		xStds:      append(append([]float64(nil), prev.xStds...), s2...),
		primal:     true,
		gram:       gram,
		parent:     prev,
		parentCols: p1,
	}, nil
}

// Prepare centres the target against this design and caches the λ-free
// cross-product, so that a whole λ grid can be swept with Fit at O(p²·q)
// per point instead of O(n·p²).
func (d *RidgeDesign) Prepare(y *linalg.Matrix) (*RidgeTarget, error) {
	if y.Rows != d.xs.Rows {
		return nil, fmt.Errorf("regress: x has %d rows, y has %d", d.xs.Rows, y.Rows)
	}
	ys := y.Clone()
	yMeans := ys.ColMeans()
	if err := checkTargetMeans(yMeans); err != nil {
		return nil, err
	}
	ys.CenterColumns(yMeans)
	t := &RidgeTarget{design: d, ys: ys, yMeans: yMeans}
	if d.primal {
		xty, err := d.xs.MulT(ys)
		if err != nil {
			return nil, err
		}
		t.xty = xty
	}
	return t, nil
}

// Fit solves the ridge problem for target y at penalty lambda against the
// cached design. Equivalent to FitRidge(x, y, lambda) up to float64
// rounding (identical in practice).
func (d *RidgeDesign) Fit(y *linalg.Matrix, lambda float64) (*Model, error) {
	t, err := d.Prepare(y)
	if err != nil {
		return nil, err
	}
	return t.Fit(lambda)
}

// Residualize returns y - ŷ where ŷ is the in-sample ridge prediction of y
// from the design's own rows at penalty lambda. It reuses the cached
// standardized X, so no per-call standardization or Gram is needed —
// this is the scorer's conditioning step (§3.5) done once per Z.
func (d *RidgeDesign) Residualize(y *linalg.Matrix, lambda float64) (*linalg.Matrix, error) {
	return d.ResidualizeInto(y, lambda, new(Scratch))
}

// ResidualizeInto is Residualize on s's buffers: the centred target, the
// solve, the prediction and the returned residual matrix all live in s, so
// a warm Scratch residualizes a candidate without allocating. The result
// is valid until the next ResidualizeInto on s. The arithmetic is that of
// Fit followed by y − (Xβ + ȳ), term for term.
func (d *RidgeDesign) ResidualizeInto(y *linalg.Matrix, lambda float64, s *Scratch) (*linalg.Matrix, error) {
	if y.Rows != d.xs.Rows {
		return nil, fmt.Errorf("regress: x has %d rows, y has %d", d.xs.Rows, y.Rows)
	}
	l, err := d.factor(lambda)
	if err != nil {
		return nil, err
	}
	s.yMeans = y.ColMeansInto(growZeroed(s.yMeans, y.Cols))
	if err := checkTargetMeans(s.yMeans); err != nil {
		return nil, err
	}
	ys := s.centred.Resize(y.Rows, y.Cols)
	copy(ys.Data, y.Data)
	ys.CenterColumns(s.yMeans)
	if d.primal {
		// β = (XᵀX + λI)⁻¹ Xᵀy.
		if err = d.xs.MulTInto(ys, &s.solved); err == nil {
			err = linalg.SolveCholeskyInto(l, &s.solved, &s.coef)
		}
	} else {
		// β = Xᵀ (XXᵀ + λI)⁻¹ y.
		if err = linalg.SolveCholeskyInto(l, ys, &s.solved); err == nil {
			err = d.xs.MulTInto(&s.solved, &s.coef)
		}
	}
	if err != nil {
		return nil, err
	}
	// The centred copy of y is spent: the prediction overwrites it.
	pred := &s.centred
	if err := d.xs.MulInto(&s.coef, pred); err != nil {
		return nil, err
	}
	out := s.resid.Resize(y.Rows, y.Cols)
	for i := 0; i < out.Rows; i++ {
		orow, yrow, prow := out.Row(i), y.Row(i), pred.Row(i)
		for j := range orow {
			orow[j] = yrow[j] - (prow[j] + s.yMeans[j])
		}
	}
	return out, nil
}

// RidgeTarget is a target prepared against a RidgeDesign; Fit sweeps λ
// values reusing every λ-independent intermediate.
type RidgeTarget struct {
	design *RidgeDesign
	ys     *linalg.Matrix // centred target
	yMeans []float64
	xty    *linalg.Matrix // X^T y, primal only
}

// Fit solves for the coefficients at the given penalty.
func (t *RidgeTarget) Fit(lambda float64) (*Model, error) {
	d := t.design
	l, err := d.factor(lambda)
	if err != nil {
		return nil, err
	}
	var coef *linalg.Matrix
	if d.primal {
		coef, err = linalg.SolveCholesky(l, t.xty)
	} else {
		var w *linalg.Matrix
		w, err = linalg.SolveCholesky(l, t.ys)
		if err == nil {
			coef, err = d.xs.MulT(w)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Model{
		Coef:           coef,
		XMeans:         d.xMeans,
		XStds:          d.xStds,
		YMeans:         t.yMeans,
		Lambda:         lambda,
		TrainRowsCount: d.xs.Rows,
	}, nil
}

// DefaultLambdaGrid is the L-point ridge penalty grid used in the paper's
// evaluation ("a grid search over 3 values of the ridge regression penalty
// hyper-parameter", Figure 10; up to L=5 in §4.3).
var DefaultLambdaGrid = []float64{0.1, 10, 1000}

// WideLambdaGrid is the 5-point grid for more careful model selection.
var WideLambdaGrid = []float64{0.01, 1, 100, 1e4, 1e6}
