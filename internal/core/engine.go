package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"explainit/internal/ctxpoll"
	"explainit/internal/linalg"
	"explainit/internal/obs"
	"explainit/internal/regress"
	"explainit/internal/stats"
	ts "explainit/internal/timeseries"
)

// Hypothesis is the causal triple of §3.3: does family X explain target Y
// once Z is controlled for? X and Y must be non-empty; Z may be nil.
type Hypothesis struct {
	X, Y *Family
	Z    *Family
}

// Validate enforces the structural rules of §3.3 (non-empty X and Y, no
// metric overlap between the three sets, equal row counts).
func (h *Hypothesis) Validate() error {
	if h.X == nil || h.Y == nil {
		return fmt.Errorf("core: hypothesis needs both X and Y")
	}
	if err := h.X.Validate(); err != nil {
		return err
	}
	if err := h.Y.Validate(); err != nil {
		return err
	}
	if h.X.NumFeatures() == 0 || h.Y.NumFeatures() == 0 {
		return fmt.Errorf("core: X and Y must contain at least one metric")
	}
	if h.X.NumRows() != h.Y.NumRows() {
		return fmt.Errorf("core: X has %d rows, Y has %d", h.X.NumRows(), h.Y.NumRows())
	}
	seen := make(map[string]string, h.Y.NumFeatures())
	for _, c := range h.Y.Columns {
		seen[c] = "Y"
	}
	for _, c := range h.X.Columns {
		if who, dup := seen[c]; dup {
			return fmt.Errorf("core: metric %q appears in both X and %s", c, who)
		}
		seen[c] = "X"
	}
	if h.Z != nil {
		if err := h.Z.Validate(); err != nil {
			return err
		}
		if h.Z.NumRows() != h.Y.NumRows() {
			return fmt.Errorf("core: Z has %d rows, Y has %d", h.Z.NumRows(), h.Y.NumRows())
		}
		for _, c := range h.Z.Columns {
			if who, dup := seen[c]; dup {
				return fmt.Errorf("core: metric %q appears in both Z and %s", c, who)
			}
		}
	}
	return nil
}

// Result is one scored hypothesis in the Score Table (Figure 4).
type Result struct {
	Family   string        // name of the X family
	Features int           // number of metrics in X
	Score    float64       // dependence score in [0, 1]
	PValue   float64       // Chebyshev bound on P(score | no dependence)
	Elapsed  time.Duration // scoring time for this family, its share of its panel's (Figure 10)
	Viz      string        // ASCII sparkline of the family's lead column
	Err      error         // non-nil when scoring failed
}

// ScoreTable is a ranked set of results, highest score first.
type ScoreTable struct {
	Results []Result
	// Skipped lists candidate families excluded from scoring (the target
	// itself, conditioning families, validation failures).
	Skipped []string
}

// Top returns the first k results (fewer if the table is shorter).
func (t *ScoreTable) Top(k int) []Result {
	if k > len(t.Results) {
		k = len(t.Results)
	}
	return t.Results[:k]
}

// RankOf returns the 1-based rank of the named family, or 0 if absent.
func (t *ScoreTable) RankOf(family string) int {
	for i, r := range t.Results {
		if r.Family == family {
			return i + 1
		}
	}
	return 0
}

// Engine scores hypotheses in parallel with one worker pool, as in the
// paper's implementation (§4): one family is small enough for a single
// worker, so there is no distributed-ML machinery. The unit a worker takes
// is the hypothesis, or, for the plain L2 scorer, a panel of equal-width
// hypotheses that share one residualization and one moment pass.
type Engine struct {
	// Scorer defaults to the plain L2 ridge scorer.
	Scorer Scorer
	// Workers defaults to GOMAXPROCS.
	Workers int
	// TopK bounds the returned table; 0 means the paper's default of 20.
	TopK int
	// KeepAll disables TopK truncation (used by the evaluation harness).
	KeepAll bool
}

// DefaultTopK is the paper's default result limit.
const DefaultTopK = 20

// Request describes one ranking query: score every candidate family
// against the target, conditioning on zero or more families.
type Request struct {
	Target       *Family
	Condition    []*Family // families to condition on (may be empty)
	Candidates   []*Family
	ExplainRange ts.TimeRange // optional range-to-explain (Figure 2)
}

// CondState pins the conditioning work that a ranking shares across every
// candidate — the concatenated Z family, its standardized + factored
// RidgeDesign, and the target residualized against it — as a first-class
// value an iterative investigation carries between steps. When the
// conditioning set of step k+1 extends step k's by a suffix, the design is
// extended in place of a rebuild: only the delta columns are standardized,
// crossed and factored (regress.ExtendDesign), so the cost of re-ranking
// scales with what changed, not with the whole conditioning set.
//
// A CondState is matched against requests by family *identity* (pointers),
// not by name: a family that was rebuilt under the same name never matches
// a state computed from the old data, so a stale state degrades to a
// rebuild instead of silently conditioning on outdated series. It is safe
// for concurrent use.
type CondState struct {
	names    []string  // conditioning family names, concatenation order
	fams     []*Family // the exact families concatenated, same order
	target   *Family
	zFam     *Family
	design   *regress.RidgeDesign
	ry       *linalg.Matrix // target residualized against design at lambda
	lambda   float64
	extended bool // design was reused/extended from a previous state
}

// Names returns the conditioning family names, in concatenation order.
func (cs *CondState) Names() []string { return append([]string(nil), cs.names...) }

// Extended reports whether this state's design was carried over (extended
// or reused outright) from a previous state rather than factored from
// scratch — the observable for tests and step diagnostics.
func (cs *CondState) Extended() bool { return cs.extended }

// Matches reports whether the state was prepared for exactly this target
// and conditioning families, by identity: rebuilding a family under the
// same name invalidates states computed from its old data.
func (cs *CondState) Matches(target *Family, condition []*Family) bool {
	if cs == nil || cs.target != target || len(cs.fams) != len(condition) {
		return false
	}
	for i, f := range condition {
		if f != cs.fams[i] {
			return false
		}
	}
	return true
}

// PrefixOf reports whether the state's conditioning families are a proper
// prefix (by identity) of condition — i.e. the state's design can donate
// the unchanged columns' factorization to an extension.
func (cs *CondState) PrefixOf(condition []*Family) bool {
	if cs == nil || len(cs.fams) == 0 || len(cs.fams) >= len(condition) {
		return false
	}
	return isFamilyPrefix(cs.fams, condition)
}

// matches is Matches plus the penalty check the engine needs before
// trusting the residualized target.
func (cs *CondState) matches(target *Family, condition []*Family, lambda float64) bool {
	return cs != nil && cs.lambda == lambda && cs.Matches(target, condition)
}

// sameNameSeq reports whether two name sequences are identical.
func sameNameSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// isFamilyPrefix reports whether prefix is a (proper or improper) prefix
// of fams, comparing family identity.
func isFamilyPrefix(prefix, fams []*Family) bool {
	if len(prefix) > len(fams) {
		return false
	}
	for i, f := range prefix {
		if fams[i] != f {
			return false
		}
	}
	return true
}

// effectiveL2 resolves the scorer that will actually run under a non-empty
// conditioning set: the configured L2 scorer, or the default one when the
// engine has no scorer / a univariate scorer (which the engine swaps for
// the joint scorer whenever Z is non-empty, §3.5). Returns nil for scorers
// whose conditioning work is not cacheable (e.g. lasso).
func (e *Engine) effectiveL2() *L2Scorer {
	switch s := e.Scorer.(type) {
	case nil:
		return &L2Scorer{}
	case *CorrScorer:
		return &L2Scorer{}
	case *L2Scorer:
		return s
	}
	return nil
}

// PrepareConditioning builds the conditioning state shared by every
// candidate of a ranking of target under condition. prev, when non-nil and
// built for the same target with a conditioning sequence that prefixes the
// new one, donates its factored design — the returned state then reports
// Extended() == true and only the delta families were factored. A nil,
// nil return means the engine's scorer has no cacheable conditioning work
// (empty condition, non-ridge scorer, or a projection narrower than Z);
// RankPrepared falls back to its per-request preparation in that case.
func (e *Engine) PrepareConditioning(target *Family, condition []*Family, prev *CondState) (*CondState, error) {
	if target == nil {
		return nil, fmt.Errorf("core: conditioning needs a target family")
	}
	if len(condition) == 0 {
		return nil, nil
	}
	l2 := e.effectiveL2()
	if l2 == nil {
		return nil, nil
	}
	zFam, err := ConcatFamilies("Z", condition)
	if err != nil {
		return nil, err
	}
	if err := zFam.Validate(); err != nil {
		return nil, err
	}
	if !l2.condCacheable(target.Matrix, zFam.Matrix) {
		return nil, nil
	}
	grid := l2.grid()
	lambda := grid[len(grid)/2]
	if prev.matches(target, condition, lambda) {
		return prev, nil
	}
	names := make([]string, len(condition))
	for i, f := range condition {
		names[i] = f.Name
	}
	var design *regress.RidgeDesign
	extended := false
	if prev != nil && prev.design != nil && len(prev.fams) > 0 && isFamilyPrefix(prev.fams, condition) {
		if len(prev.fams) == len(condition) {
			// Same conditioning set (different target or λ): the factored
			// design carries over whole; only the residualization is redone.
			design, extended = prev.design, true
		} else {
			delta, derr := ConcatFamilies("Z+", condition[len(prev.fams):])
			if derr == nil {
				if d, eerr := regress.ExtendDesign(prev.design, delta.Matrix); eerr == nil {
					design, extended = d, true
				}
			}
		}
	}
	if design == nil && prev != nil && prev.design != nil && prev.zFam != nil &&
		sameNameSeq(prev.names, names) {
		// Same conditioning set by name but rebuilt families — the standing
		// re-evaluation regime. When the rebuild only appended samples (the
		// window grew in place), the previous design's cached moments are
		// extended with the tail rows instead of re-accumulating the whole
		// Gram; ExtendDesignRows verifies the prefix bitwise and falls back
		// to a scratch build when the window slid or data changed.
		if d, grew, eerr := regress.ExtendDesignRows(prev.design, prev.zFam.Matrix, zFam.Matrix); eerr == nil {
			design, extended = d, grew
		}
	}
	if design == nil {
		if design, err = regress.NewRidgeDesign(zFam.Matrix); err != nil {
			return nil, err
		}
	}
	ry, err := design.Residualize(target.Matrix, lambda)
	if err != nil {
		return nil, err
	}
	return &CondState{
		names:    names,
		fams:     append([]*Family(nil), condition...),
		target:   target,
		zFam:     zFam,
		design:   design,
		ry:       ry,
		lambda:   lambda,
		extended: extended,
	}, nil
}

// Rank scores all candidate families and returns them ordered by
// decreasing score — Algorithm 1's inner loop.
func (e *Engine) Rank(req Request) (*ScoreTable, error) {
	return e.RankCtx(context.Background(), req, nil)
}

// RankCtx is Rank with cooperative cancellation and streaming: the context
// is checked before every job (a panel of candidates, or one candidate)
// and, inside the L2 scorers and context-aware ones, at every CV fold; and
// onResult, when non-nil, is invoked once per scored candidate as workers
// finish — serialized, never concurrently — with the
// raw unranked Result. A cancelled ranking returns ctx.Err() after its
// workers have drained; no goroutines outlive the call. The completed
// table is identical to Rank's at any worker count: results are recorded
// by candidate index and sorted after the fact, so emission order never
// influences the final ranking.
func (e *Engine) RankCtx(ctx context.Context, req Request, onResult func(Result)) (*ScoreTable, error) {
	return e.RankPrepared(ctx, req, nil, onResult)
}

// RankPrepared is RankCtx accepting a prefactored conditioning state from
// PrepareConditioning. A cond that does not match the request (different
// target, conditioning sequence, or scorer penalty) is ignored and the
// preparation is redone locally, so a stale state can cost time but never
// correctness.
func (e *Engine) RankPrepared(ctx context.Context, req Request, cond *CondState, onResult func(Result)) (*ScoreTable, error) {
	if req.Target == nil {
		return nil, fmt.Errorf("core: request has no target family")
	}
	if err := req.Target.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scorer := e.Scorer
	if scorer == nil {
		scorer = &L2Scorer{}
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	topK := e.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}

	var zFam *Family
	var prep *condPrep
	if l2 := e.effectiveL2(); cond != nil && l2 != nil && cond.matches(req.Target, req.Condition, l2.grid()[len(l2.grid())/2]) {
		zFam = cond.zFam
		prep = &condPrep{zDesign: cond.design, ry: cond.ry, lambda: cond.lambda}
	} else if len(req.Condition) > 0 {
		var err error
		zFam, err = ConcatFamilies("Z", req.Condition)
		if err != nil {
			return nil, err
		}
		if err := zFam.Validate(); err != nil {
			return nil, err
		}
	}
	var zMat *linalg.Matrix
	if zFam != nil {
		zMat = zFam.Matrix
	}

	// The engine substitutes the joint scorer when a univariate scorer
	// meets a conditioning set (§3.5: univariate scoring applies only when
	// Z is empty).
	effective := scorer
	if zMat != nil && zMat.Cols > 0 {
		if _, isCorr := scorer.(*CorrScorer); isCorr {
			effective = &L2Scorer{}
		}
	}

	// Resolve the explain range into row indices once.
	var explainRows []int
	if !req.ExplainRange.IsZero() {
		explainRows = req.Target.RowsInRange(req.ExplainRange)
		if len(explainRows) == 0 {
			return nil, fmt.Errorf("core: explain range %v selects no rows", req.ExplainRange)
		}
	}

	// Exclusion set: the target's and conditioning families' metrics.
	excluded := map[string]bool{req.Target.Name: true}
	if zFam != nil {
		for _, f := range req.Condition {
			excluded[f.Name] = true
		}
	}

	// Conditioning work that only depends on (Y, Z) — the standardized and
	// factored Z design plus the residualized target — is computed once
	// here and shared by every worker instead of once per candidate. Panels
	// report a preparation error on every candidate; the one-candidate path
	// rebuilds the prep per candidate and surfaces the identical error.
	var prepErr error
	if prep == nil && zMat != nil && zMat.Cols > 0 {
		if l2, ok := effective.(*L2Scorer); ok && l2.condCacheable(req.Target.Matrix, zMat) {
			_, endPrep := obs.StartSpan(ctx, "gram_cholesky")
			prep, prepErr = l2.prepareCond(req.Target.Matrix, zMat)
			endPrep()
		}
	}
	metRankings.Inc()

	// The plain L2 scorer over the full range scores candidates as panels
	// of equal width (panelJobs, panelRun.score); every other scorer, one
	// candidate at a time (scoreOne).
	var panels *panelRun
	if l2, ok := effective.(*L2Scorer); ok && l2.ProjectDim <= 0 && explainRows == nil {
		panels = &panelRun{l2: l2, y: req.Target, z: zMat, prepErr: prepErr}
		if prepErr == nil {
			panels.target = l2.panelTarget(req.Target.Matrix, prep)
		}
	}

	// Screen the candidates in order. skipped is written here for the
	// excluded and misshapen, and by the workers for those holding a
	// non-finite cell; Skipped is assembled from it in candidate order once
	// the workers are done.
	cands := req.Candidates
	skipped := make([]bool, len(cands))
	var scorable []int
	for i, fam := range cands {
		if excluded[fam.Name] || fam.validateShape() != nil || fam.NumRows() != req.Target.NumRows() {
			skipped[i] = true
			continue
		}
		scorable = append(scorable, i)
	}
	var jobs [][]int
	if panels != nil {
		jobs = panelJobs(cands, scorable, workers)
	} else {
		for k := range scorable {
			jobs = append(jobs, scorable[k:k+1])
		}
	}
	queue := make(chan []int, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)

	results := make([]Result, len(cands))
	valid := make([]bool, len(cands))
	// rankCtx nests the workers' spans under one rank_stream span; it
	// derives from ctx, so cancellation semantics are unchanged.
	rankCtx, endRankSpan := obs.StartSpan(ctx, "rank_stream")
	var emitMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker hoists the Done channel once; per-job checks are
			// then a channel poll (free for uncancellable contexts) instead
			// of ctx.Err()'s lock.
			poll := ctxpoll.New(ctx, 1)
			// One scratch per worker: every panel or candidate this
			// goroutine scores works in the same buffers.
			scratch := new(regress.Scratch)
			var (
				done []Result
				skip []bool
				xs   []*linalg.Matrix
				out  []regress.PanelScore
			)
			for job := range queue {
				if poll.Cancelled() {
					return // cancelled: drop remaining jobs, exit promptly
				}
				done = slices.Grow(done[:0], len(job))[:len(job)]
				skip = slices.Grow(skip[:0], len(job))[:len(job)]
				if panels != nil {
					xs, out = panels.score(rankCtx, cands, job, scratch, done, skip, xs, out)
				} else if fam := cands[job[0]]; finite(fam.Matrix.Data) {
					done[0], skip[0] = e.scoreOne(rankCtx, effective, fam, req.Target, zMat, prep, explainRows, scratch), false
				} else {
					skip[0] = true
				}
				if poll.Cancelled() {
					return // results may carry ctx.Err(); never record or emit them
				}
				for k, idx := range job {
					if skip[k] {
						skipped[idx] = true
					} else {
						results[idx], valid[idx] = done[k], true
					}
				}
				if onResult != nil {
					emitMu.Lock()
					for k := range job {
						if !skip[k] {
							onResult(done[k])
						}
					}
					emitMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	endRankSpan()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	table := &ScoreTable{}
	order := make([]int, 0, len(results))
	for i := range results {
		if skipped[i] {
			table.Skipped = append(table.Skipped, cands[i].Name)
		} else if valid[i] {
			order = append(order, i)
		}
	}
	// Rank by candidate index, with the index itself as the last key: the
	// order is total, so the table is exactly what a stable sort of the
	// results in candidate order gives, at any worker count — and sorting
	// ints instead of 80-byte Results, unstably, is several times cheaper
	// on a registry of thousands.
	slices.SortFunc(order, func(a, b int) int {
		if c := compareResults(&results[a], &results[b]); c != 0 {
			return c
		}
		return a - b
	})
	if !e.KeepAll && len(order) > topK {
		order = order[:topK]
	}
	table.Results = make([]Result, len(order))
	for k, i := range order {
		table.Results[k] = results[i]
	}
	return table, nil
}

// compareResults orders the Score Table: scored before failed, then by
// decreasing score, then by family name.
func compareResults(ra, rb *Result) int {
	if (ra.Err == nil) != (rb.Err == nil) {
		if ra.Err == nil {
			return -1
		}
		return 1
	}
	if ra.Score != rb.Score {
		if ra.Score > rb.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(ra.Family, rb.Family)
}

func (e *Engine) scoreOne(ctx context.Context, scorer Scorer, x, y *Family, zMat *linalg.Matrix, prep *condPrep, explainRows []int, scratch *regress.Scratch) Result {
	ctx, endSpan := obs.StartSpanName(ctx, "score ", x.Name)
	start := time.Now()
	res := Result{Family: x.Name, Features: x.NumFeatures()}
	var score float64
	var err error
	if l2, ok := scorer.(*L2Scorer); ok {
		score, err = l2.score(ctx, x.Matrix, y.Matrix, zMat, prep, explainRows, scratch)
	} else if cs, ok := scorer.(ContextScorer); ok {
		score, err = cs.ScoreCtx(ctx, x.Matrix, y.Matrix, zMat, explainRows)
	} else {
		score, err = scorer.Score(x.Matrix, y.Matrix, zMat, explainRows)
	}
	res.Elapsed = time.Since(start)
	endSpan()
	metCandidates.Inc()
	metCandidateMs.Observe(float64(res.Elapsed) / float64(time.Millisecond))
	// Effective predictor count for the p-value: projection caps it.
	p := x.NumFeatures()
	if l2, ok := scorer.(*L2Scorer); ok && l2.ProjectDim > 0 && p > l2.ProjectDim {
		p = l2.ProjectDim
	}
	finish(&res, x, y, p, score, err)
	return res
}

// finish completes a candidate's Result from its scorer's outcome: the
// error, or the score clamped to [0, 1] with its p-value over p effective
// predictors and the viz column.
func finish(res *Result, x, y *Family, p int, score float64, err error) {
	if err == nil {
		// Backstop for third-party Scorers: a non-finite score becomes a
		// typed degenerate error, so NaN can never enter a score table or
		// the p-value computation.
		score, err = checkFinite(x.Name, score)
	}
	if err != nil {
		res.Err = err
		return
	}
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	res.Score = score
	res.PValue = stats.ChebyshevPValue(score, y.NumRows(), p)
	res.Viz = x.viz()
}

// Sparkline renders values as a fixed-width ASCII sparkline: the visual aid
// stored in the Score Table's viz column (Figure 4, §D).
func Sparkline(values []float64, width int) string {
	return sparkline(values, len(values), 1, width)
}

// sparkLevels are the sparkline's eight glyphs, three UTF-8 bytes each.
const sparkLevels = "▁▂▃▄▅▆▇█"

// sparkline renders the n values data[0], data[stride], ... — a column of
// a row-major matrix, read in place — averaged down to at most width
// buckets, each drawn at its level between the buckets' min and max. Up to
// vizWidth buckets the result is its only allocation.
func sparkline(data []float64, n, stride, width int) string {
	if n == 0 || width <= 0 {
		return ""
	}
	var stack [vizWidth]float64
	buckets := stack[:0]
	if min(n, width) > len(stack) {
		buckets = make([]float64, 0, min(n, width))
	}
	if n <= width {
		for i := 0; i < n; i++ {
			buckets = append(buckets, data[i*stride])
		}
	} else {
		per := float64(n) / float64(width)
		for b := 0; b < width; b++ {
			lo := int(float64(b) * per)
			hi := min(int(float64(b+1)*per), n)
			if lo >= hi {
				lo = hi - 1
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i*stride]
			}
			buckets = append(buckets, s/float64(hi-lo))
		}
	}
	bottom, top := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < bottom {
			bottom = v
		}
		if v > top {
			top = v
		}
	}
	var out strings.Builder
	out.Grow(len(buckets) * 3)
	for _, v := range buckets {
		idx := 0
		if top != bottom {
			idx = int((v - bottom) / (top - bottom) * 7)
		}
		out.WriteString(sparkLevels[idx*3 : idx*3+3])
	}
	return out.String()
}
