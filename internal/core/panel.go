package core

import (
	"context"
	"errors"
	"strconv"
	"time"

	"explainit/internal/linalg"
	"explainit/internal/obs"
	"explainit/internal/regress"
)

// maxPanelCols caps the columns of one panel (candidates × width): 32
// one-column candidates share a residualization and a moment pass, while
// a wide candidate makes a panel of its own. BenchmarkRankPreparedNarrow
// ranked alike at 8, 16, 32 and 64 columns (7–9 ms on 2 vCPUs); a wider
// panel only holds more memory per worker.
const maxPanelCols = 32

// panelJobs groups the scorable candidates by width, widths in order of
// first appearance and candidates in candidate order within a width, and
// cuts each group of n into panels of near-equal size: as few as
// maxPanelCols allows, but at least min(n, workers), so no worker idles
// while another holds two panels of the same width. The larger panels come
// first, so a worker's buffers are sized by its first panel.
func panelJobs(cands []*Family, scorable []int, workers int) [][]int {
	var widths []int
	groups := make(map[int][]int)
	for _, i := range scorable {
		w := cands[i].NumFeatures()
		if _, seen := groups[w]; !seen {
			widths = append(widths, w)
		}
		groups[w] = append(groups[w], i)
	}
	var jobs [][]int
	for _, w := range widths {
		g := groups[w]
		per := max(1, maxPanelCols/max(w, 1))
		count := max((len(g)+per-1)/per, min(len(g), workers))
		size, extra := len(g)/count, len(g)%count
		for k, lo := 0, 0; k < count; k++ {
			hi := lo + size
			if k < extra {
				hi++
			}
			jobs = append(jobs, g[lo:hi])
			lo = hi
		}
	}
	return jobs
}

// panelRun is one ranking's panel scoring: the L2 scorer, the target and
// conditioning matrix, and the PanelTarget every worker shares read-only —
// or, when the shared conditioning preparation failed, its error, which
// every candidate then reports as the one-candidate call would.
type panelRun struct {
	l2      *L2Scorer
	y       *Family
	z       *linalg.Matrix
	target  *regress.PanelTarget
	prepErr error
}

// score scores the panel job (candidate indices of one width) into done,
// one Result per job entry, and sets skip for the candidates holding a
// non-finite cell. Each Result's Elapsed is its share of the panel's wall
// time. xs and out are the worker's reused buffers, returned grown.
func (p *panelRun) score(ctx context.Context, cands []*Family, job []int, scratch *regress.Scratch, done []Result, skip []bool, xs []*linalg.Matrix, out []regress.PanelScore) ([]*linalg.Matrix, []regress.PanelScore) {
	ctx, endSpan := obs.StartSpanName(ctx, "score panel w", strconv.Itoa(cands[job[0]].NumFeatures()))
	defer endSpan()
	start := time.Now()
	xs = xs[:0]
	for k, i := range job {
		fam := cands[i]
		done[k] = Result{Family: fam.Name, Features: fam.NumFeatures()}
		skip[k] = false
		err := p.l2.checkShapes(fam.Matrix, p.y.Matrix, p.z)
		if err == nil {
			err = p.prepErr
		}
		if err != nil {
			// A candidate that cannot be scored is still screened for
			// non-finite cells first, as an unscorable one always was.
			if skip[k] = !finite(fam.Matrix.Data); !skip[k] {
				done[k].Err = err
			}
			continue
		}
		xs = append(xs, fam.Matrix)
	}
	if len(out) < len(xs) {
		out = make([]regress.PanelScore, len(xs))
	}
	if err := scratch.ScorePanel(ctx, p.target, xs, out[:len(xs)]); err != nil {
		return xs, out // cancelled: the caller drops the panel
	}
	n, pos := 0, 0
	for k, i := range job {
		if done[k].Err == nil && !skip[k] {
			o := out[pos]
			pos++
			if errors.Is(o.Err, regress.ErrNonFiniteCell) {
				skip[k] = true
				continue
			}
			score, err := p.l2.panelScore(o)
			finish(&done[k], cands[i], p.y, cands[i].NumFeatures(), score, err)
		}
		if !skip[k] {
			n++
		}
	}
	share := time.Since(start) / time.Duration(max(n, 1))
	for k := range job {
		if !skip[k] {
			done[k].Elapsed = share
			metCandidates.Inc()
			metCandidateMs.Observe(float64(share) / float64(time.Millisecond))
		}
	}
	return xs, out
}
