package regress

import (
	"context"
	"errors"
	"fmt"
	"math"

	"explainit/internal/ctxpoll"
	"explainit/internal/linalg"
)

// ErrNonFiniteCell marks a candidate holding a NaN or ±Inf cell. ScorePanel
// finds it while gathering the panel and leaves it unscored.
var ErrNonFiniteCell = errors.New("regress: non-finite cell")

// PanelTarget is everything a ranking's candidates share: the target (the
// residualized one under a conditioning set), the factored conditioning
// design the candidates are residualized against, the λ grid and folds, and
// the target's moments over every fold. It is built once per ranking and
// only read afterwards, so every scoring goroutine can share it.
type PanelTarget struct {
	y      *linalg.Matrix
	design *RidgeDesign // nil: candidates are scored as given
	lambda float64      // the residualization penalty
	grid   []float64
	// folds is nil when y has too few rows for the folds; candidates then
	// take the in-sample fallback of CrossValidatedScore.
	folds []FoldRange
	// Time-series folds partition the rows, so the segments between fold
	// boundaries are the folds themselves: segs[f] summarizes fold f's rows
	// and cuts holds the boundaries, 0 and the row count included.
	cuts  []int
	segs  []linalg.TargetBlock
	train []laneTrain
}

// laneTrain is the target's side of one fold's training block as the
// width-1 lanes merge it: the merge weight of every training segment, each
// segment's target mean measured from the merged one, and the validation
// segment's target mean and scatter measured the way MomentBlock.Merge and
// the held-out score measure them.
type laneTrain struct {
	n       int       // training rows
	outside []int     // training segments, ascending
	w       []float64 // per training segment: its share of the rows
	dY      []float64 // per training segment, q values: MeanYFrom(train)
	off     []float64 // q: validation MeanYFrom(train)
	vYY     []float64 // q: validation scatter, by the 1 x q block's kernel
}

// NewPanelTarget prepares y for panel scoring over k time-series folds and
// grid (nil means DefaultLambdaGrid). design, when non-nil, is the
// conditioning design every candidate is residualized against at lambda;
// y must already be residualized against it.
func NewPanelTarget(y *linalg.Matrix, design *RidgeDesign, lambda float64, grid []float64, k int) *PanelTarget {
	if len(grid) == 0 {
		grid = DefaultLambdaGrid
	}
	t := &PanelTarget{y: y, design: design, lambda: lambda, grid: grid}
	folds, err := TimeSeriesFoldRanges(y.Rows, k)
	if err != nil {
		return t
	}
	q := y.Cols
	t.folds = folds
	t.cuts = []int{0}
	t.segs = make([]linalg.TargetBlock, len(folds))
	for f, r := range folds {
		t.cuts = append(t.cuts, r.To)
		t.segs[f].Reset(y, r.From, r.To)
	}
	t.train = make([]laneTrain, len(folds))
	for f := range folds {
		tr := &t.train[f]
		for g := range folds {
			if g != f {
				tr.outside = append(tr.outside, g)
				tr.n += t.segs[g].To - t.segs[g].From
			}
		}
		// The merged training block, Y side: reference of its first
		// segment, means re-measured from it and weighted by rows.
		ref := t.segs[tr.outside[0]].RefY
		mean := make([]float64, q)
		inv := 1 / float64(tr.n)
		for _, g := range tr.outside {
			sg := &t.segs[g]
			w := float64(sg.To-sg.From) * inv
			tr.w = append(tr.w, w)
			for j := range mean {
				mean[j] += w * ((sg.RefY[j] - ref[j]) + sg.MeanY[j])
			}
		}
		for _, g := range tr.outside {
			sg := &t.segs[g]
			for j := range mean {
				tr.dY = append(tr.dY, (sg.RefY[j]-ref[j])+(sg.MeanY[j]-mean[j]))
			}
		}
		vl := &t.segs[f]
		for j := range mean {
			tr.off = append(tr.off, (vl.RefY[j]-ref[j])+(vl.MeanY[j]-mean[j]))
		}
		// A width-1 lane's held-out scatter: the 1 x 1 path's dot for a
		// one-column target, the running sums otherwise.
		tr.vYY = vl.YY
		if q == 1 {
			tr.vYY = []float64{vl.YYDot}
		}
	}
	return t
}

// PanelScore is one candidate's outcome: its cross-validated score, or why
// it has none.
type PanelScore struct {
	Score float64
	Err   error
}

// ScorePanel scores a panel of candidates of one width against t, writing
// candidate i's outcome to out[i]: for each, the residualization against
// t's design and the k-fold ridge CV of CrossValidatedScore, bit for bit.
// The work is shared across the panel:
//
//   - the candidates are gathered into one T x m·w matrix, checking every
//     cell on the way (a candidate with a NaN or ±Inf cell gets
//     ErrNonFiniteCell and is scored as a zero column no one reads);
//   - the panel is residualized by one ResidualizeInto call;
//   - the target's fold moments come from t, computed once per ranking;
//   - width-1 candidates take one moment pass per segment across the panel
//     and a lane-wise λ sweep; wider ones run momentFold on their blocks.
//
// Every kernel on the way accumulates each output column on its own, in
// the order the one-candidate call would use, so a candidate's score never
// depends on its neighbours. The context is polled per segment and per
// fold; only a cancellation is returned as an error.
func (s *Scratch) ScorePanel(ctx context.Context, t *PanelTarget, xs []*linalg.Matrix, out []PanelScore) error {
	poll := ctxpoll.New(ctx, 1)
	if err := poll.Check(); err != nil {
		return err
	}
	if len(xs) == 0 {
		return nil
	}
	T, w := t.y.Rows, xs[0].Cols
	for i, x := range xs {
		out[i] = PanelScore{}
		switch {
		case x.Cols != w:
			out[i].Err = fmt.Errorf("regress: panel of width %d holds a %d-column candidate", w, x.Cols)
		case x.Rows != T:
			out[i].Err = fmt.Errorf("regress: x has %d rows, y has %d", x.Rows, T)
		}
	}
	var resid *linalg.Matrix
	if t.design != nil {
		s.gather(xs, T, w, out)
		var err error
		if resid, err = t.design.ResidualizeInto(&s.panel, t.lambda, s); err != nil {
			return s.scoreAlone(ctx, t, xs, out, err)
		}
	} else {
		for i, x := range xs {
			if out[i].Err == nil && !finite(x.Data) {
				out[i].Err = ErrNonFiniteCell
			}
		}
	}
	s.lanes = s.lanes[:0]
	for i := range xs {
		if out[i].Err == nil {
			s.lanes = append(s.lanes, i)
		}
	}
	if w == 1 && t.folds != nil {
		return s.scoreLanes(&poll, t, xs, resid, out)
	}
	for _, i := range s.lanes {
		x := xs[i]
		if resid != nil {
			x = s.candidate(resid, i, w)
		}
		score, err := s.scoreOne(&poll, t, x)
		if poll.Cancelled() {
			return ctx.Err()
		}
		out[i] = PanelScore{Score: score, Err: err}
	}
	return nil
}

// gather copies the candidates still in play into s.panel, candidate i in
// columns [i·w, (i+1)·w), and marks those holding a non-finite cell.
func (s *Scratch) gather(xs []*linalg.Matrix, T, w int, out []PanelScore) {
	m := len(xs) * w
	panel := s.panel.Resize(T, m)
	for i, x := range xs {
		if out[i].Err != nil {
			continue
		}
		// v*0 is 0 for every finite v and NaN otherwise, so one sum
		// flags the candidate without a branch per cell.
		var bad float64
		if w == 1 {
			dst := panel.Data[i:]
			for r, v := range x.Data[:T] {
				dst[r*m] = v
				bad += v * 0
			}
		} else {
			for r := 0; r < T; r++ {
				dst := panel.Data[r*m+i*w : r*m+(i+1)*w]
				for j, v := range x.Data[r*w : (r+1)*w] {
					dst[j] = v
					bad += v * 0
				}
			}
		}
		if bad != 0 {
			out[i].Err = ErrNonFiniteCell
			for r := 0; r < T; r++ {
				clear(panel.Data[r*m+i*w : r*m+(i+1)*w])
			}
		}
	}
}

// scoreAlone handles a panel whose residualization failed: each candidate
// is scored as a panel of its own, so the failure lands on the candidates
// that cause it, with the error the one-candidate call returns.
func (s *Scratch) scoreAlone(ctx context.Context, t *PanelTarget, xs []*linalg.Matrix, out []PanelScore, err error) error {
	if len(xs) == 1 {
		if out[0].Err == nil {
			out[0].Err = err
		}
		return nil
	}
	for i := range xs {
		if out[i].Err != nil {
			continue
		}
		if err := s.ScorePanel(ctx, t, xs[i:i+1], out[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(data []float64) bool {
	var bad float64
	for _, v := range data {
		bad += v * 0
	}
	return bad == 0
}

// candidate copies candidate i's w columns of the panel residual into
// s.cand.
func (s *Scratch) candidate(resid *linalg.Matrix, i, w int) *linalg.Matrix {
	c := s.cand.Resize(resid.Rows, w)
	for r := 0; r < resid.Rows; r++ {
		copy(c.Row(r), resid.Row(r)[i*w:(i+1)*w])
	}
	return c
}

// scoreOne is CrossValidatedScore of one candidate against t, reading the
// target's side of every segment from t.
func (s *Scratch) scoreOne(poll *ctxpoll.Poll, t *PanelTarget, x *linalg.Matrix) (float64, error) {
	if t.folds == nil {
		return inSampleScore(x, t.y, t.grid[len(t.grid)/2])
	}
	s.totals = growZeroed(s.totals, len(t.grid))
	s.used = growZeroed(s.used, len(t.grid))
	primal := false
	for _, f := range t.folds {
		if nTrain := x.Rows - (f.To - f.From); x.Cols > 0 && x.Cols <= nTrain {
			primal = true
		}
	}
	if primal {
		s.cuts = append(s.cuts[:0], t.cuts...)
		if err := s.segmentMoments(poll, x, t.segs); err != nil {
			return 0, err
		}
	}
	if err := s.foldLoop(poll, x, t.y, t.grid, t.folds); err != nil {
		return 0, err
	}
	_, score := s.selectLambda(t.grid, nil)
	return score, nil
}

// scoreLanes scores the width-1 candidates in s.lanes. One moment pass per
// segment summarizes every lane (TargetBlock.Lane); then each fold merges
// its training segments and sweeps the λ grid lane by lane. This is
// MomentBlock.Merge, momentFold and heldOutScore written out for p = 1 —
// the 1 x 1 Cholesky, its jitter ladder and the two triangular solves
// included — operation for operation, so every lane's score is the one
// CrossValidatedScore returns for that candidate alone.
func (s *Scratch) scoreLanes(poll *ctxpoll.Poll, t *PanelTarget, xs []*linalg.Matrix, resid *linalg.Matrix, out []PanelScore) error {
	L, T, q, nseg := len(s.lanes), t.y.Rows, t.y.Cols, len(t.segs)
	// Each lane's column, contiguous: the candidate itself, or its column
	// of the residual copied out once — into the gathered panel's storage
	// (T x m values, m ≥ L), which is spent once residualized.
	s.cols = s.cols[:0]
	for l, i := range s.lanes {
		if resid == nil {
			s.cols = append(s.cols, xs[i].Data)
			continue
		}
		col := s.panel.Data[l*T : (l+1)*T]
		for r := range col {
			col[r] = resid.Data[r*resid.Cols+i]
		}
		s.cols = append(s.cols, col)
	}
	s.refX = growZeroed(s.refX, nseg*L)
	s.meanX = growZeroed(s.meanX, nseg*L)
	s.xx = growZeroed(s.xx, nseg*L)
	s.xy = growZeroed(s.xy, nseg*L*q)
	s.laneTile = growZeroed(s.laneTile, T)
	for g := range t.segs {
		if err := poll.Check(); err != nil {
			return err
		}
		for l, col := range s.cols {
			k := g*L + l
			s.refX[k], s.meanX[k], s.xx[k] = t.segs[g].Lane(col, s.laneTile, s.xy[k*q:(k+1)*q])
		}
	}
	nG := len(t.grid)
	s.totals = growZeroed(s.totals, nG*L)
	s.used = growZeroed(s.used, nG*L)
	s.xyTrain = growZeroed(s.xyTrain, q)
	s.rhsLane = growZeroed(s.rhsLane, q)
	for f := range t.folds {
		if err := poll.Check(); err != nil {
			return err
		}
		for l := 0; l < L; l++ {
			s.laneFold(t, f, l)
		}
	}
	// selectLambda, per lane.
	for l, i := range s.lanes {
		score := -1.0
		for gi := 0; gi < nG; gi++ {
			k := gi*L + l
			if s.used[k] == 0 {
				continue
			}
			if mean := s.totals[k] / float64(s.used[k]); mean > score {
				score = mean
			}
		}
		if score < 0 {
			score = 0
		}
		out[i].Score = score
	}
	return nil
}

// laneFold is momentFold for lane l on fold f, adding the lane's per-λ
// held-out score to s.totals.
func (s *Scratch) laneFold(t *PanelTarget, f, l int) {
	L, q := len(s.lanes), t.y.Cols
	tr := &t.train[f]
	// Merge the training segments (MomentBlock.Merge at p = 1).
	g0 := tr.outside[0]*L + l
	ref := s.refX[g0]
	var mean float64
	for gi, g := range tr.outside {
		k := g*L + l
		mean += tr.w[gi] * ((s.refX[k] - ref) + s.meanX[k])
	}
	var xx float64
	xy := s.xyTrain
	clear(xy)
	for gi, g := range tr.outside {
		k := g*L + l
		n := float64(t.segs[g].To - t.segs[g].From)
		d := (s.refX[k] - ref) + (s.meanX[k] - mean)
		nd := n * d
		xx += s.xx[k] + nd*d
		gxy, dY := s.xy[k*q:(k+1)*q], tr.dY[gi*q:(gi+1)*q]
		for j := range xy {
			xy[j] += gxy[j] + nd*dY[j]
		}
	}
	// Standardize (momentFold's rescale of the centred scatter).
	scale := effStd(math.Sqrt(xx / float64(tr.n)))
	gram := xx / (scale * scale)
	rhs := s.rhsLane
	for j := range rhs {
		rhs[j] = xy[j] / scale
	}
	// The validation segment's side of heldOutScore.
	vk := f*L + l
	vl := &t.segs[f]
	vN := float64(vl.To - vl.From)
	vxx, vxy := s.xx[vk], s.xy[vk*q:(vk+1)*q]
	vmx := (s.refX[vk] - ref) + (s.meanX[vk] - mean)
	for gi, lambda := range t.grid {
		if lambda < 0 {
			continue
		}
		chol, ok := cholesky1(gram + (lambda + 1e-10))
		if !ok {
			continue
		}
		inv := 1 / chol
		var total float64
		for c := 0; c < q; c++ {
			b := ((rhs[c] * inv) * inv) / scale
			tss := tr.vYY[c]
			if tss <= 0 {
				continue
			}
			var vb float64
			if vxx != 0 {
				vb += vxx * b
			}
			off := tr.off[c]
			rss := tss
			off -= b * vmx
			rss += b * (vb - 2*vxy[c])
			rss += vN * off * off
			if r2 := 1 - rss/tss; r2 > 1 {
				total++
			} else if r2 > 0 {
				total += r2
			}
		}
		k := gi*L + l
		s.totals[k] += total / float64(q)
		s.used[k]++
	}
}

// cholesky1 is linalg.CholeskySPDInto on the 1 x 1 matrix [a]: the factor,
// or the first of the two jittered retries that succeeds, or false.
func cholesky1(a float64) (float64, bool) {
	if a > 0 {
		return math.Sqrt(a), true
	}
	scale := 0.0
	if abs := math.Abs(a); abs > scale {
		scale = abs
	}
	if scale == 0 {
		scale = 1
	}
	for _, jitter := range [2]float64{1e-8, 1e-4} {
		if d := a + scale*jitter; d > 0 {
			return math.Sqrt(d), true
		}
	}
	return 0, false
}
