package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"explainit/internal/core"
	"explainit/internal/linalg"
	"explainit/internal/regress"
	"explainit/internal/simulator"
	"explainit/internal/sqlparse"
	"explainit/internal/stats"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// Span names of the engine probes. The facade hides these layers behind
// one call, so the traced run calls their public functions itself, on the
// workload's own data, and records a span around each call.
const (
	spanPutSeries     = "tsdb.PutSeries"
	spanScanFull      = "tsdb.Run/full"
	spanScanGlob      = "tsdb.Run/glob"
	spanAlign         = "timeseries.Align"
	spanBuildFamilies = "core.BuildFamilies"
	spanParse         = "sqlparse.ParseStatement"
	spanPrepare       = "core.PrepareConditioning"
	spanPrepareExtend = "core.PrepareConditioning/extend"
	spanRank          = "core.RankPrepared"
	spanRankW1        = "core.RankPrepared/w1"
	spanDesign        = "regress.NewRidgeDesign"
	spanExtendDesign  = "regress.ExtendDesign"
	spanResidualize   = "regress.Residualize"
	spanCVRidge       = "regress.CrossValidateRidge"
	spanGram          = "linalg.Gram"
	spanCholesky      = "linalg.CholeskySPD"
	spanMul           = "linalg.Mul"
	spanCorr          = "stats.CorrelationMatrix"
)

// globPattern selects ten metric names: the selective scan a dashboard
// predicate pushes down.
const globPattern = "nuisance_0000*"

// probeCandidates is how many candidate matrices the per-candidate probes
// sample (every k-th candidate, deterministic).
const probeCandidates = 32

// probeBudget bounds the traced run's probe phase, so a traced run costs
// about what an untraced one does.
func probeBudget(rc *runCtx) time.Duration {
	if rc.smoke {
		return 0
	}
	return 4 * time.Second
}

// rankOutcome is what one RankPrepared call reported through its callback.
type rankOutcome struct {
	scored, errors, skipped int
	first, took             time.Duration
	table                   *core.ScoreTable
}

// tracedRank runs one ranking under a span named name.
func tracedRank(rc *runCtx, op, parent int, name string, eng *core.Engine, req core.Request, cond *core.CondState) (rankOutcome, error) {
	var out rankOutcome
	var err error
	begin := time.Now()
	out.took = rc.tr.call(op, parent, name, func() {
		out.table, err = eng.RankPrepared(context.Background(), req, cond, func(res core.Result) {
			if out.scored == 0 {
				out.first = time.Since(begin)
			}
			out.scored++
			if res.Err != nil {
				out.errors++
			}
		})
	})
	if err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	out.skipped = len(out.table.Skipped)
	return out, nil
}

// engineProbes measures the layers under the engine workloads' facade
// calls. session selects the three-step Algorithm-1 decomposition; without
// it the op is one conditioned ranking. It keeps decomposing ops until
// budget is spent (at least one).
func engineProbes(rc *runCtx, st *engineState, sizes engineSizes, session bool, budget time.Duration) error {
	r, tr := rc.res, rc.tr
	begin := time.Now()
	sc := simulator.StressScenario(sizes.config(rc.seed))
	id := rc.opID()
	root := tr.start(id, 0, "bench.probe/load")
	db := tsdb.New()
	var err error
	put := tr.call(id, root, spanPutSeries, func() {
		for _, s := range sc.Series {
			if err = db.PutSeries(s); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe load: %w", err)
	}
	r.set("tsdb.mem_put_samples_per_s", float64(db.NumSamples())/put.Seconds())
	var series []*ts.Series
	tr.call(id, root, spanScanFull, func() { series, err = db.Run(tsdb.Query{Range: sc.Range}) })
	if err != nil {
		return fmt.Errorf("probe scan: %w", err)
	}
	tr.call(id, root, spanScanGlob, func() { _, err = db.Run(tsdb.Query{NamePattern: globPattern, Range: sc.Range}) })
	if err != nil {
		return fmt.Errorf("probe glob scan: %w", err)
	}
	tr.call(id, root, spanAlign, func() { _, err = ts.Align(series, sc.Range, sc.Step) })
	if err != nil {
		return fmt.Errorf("probe align: %w", err)
	}
	var fams []*core.Family
	tr.call(id, root, spanBuildFamilies, func() {
		fams, err = core.BuildFamilies(series, core.GroupByMetricName, sc.Range, sc.Step)
	})
	if err != nil {
		return fmt.Errorf("probe build families: %w", err)
	}
	tr.end(root)
	byName := make(map[string]*core.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	load := byName[simulator.StressLoad]

	// The facade's Query path ranks with the default L2 scorer and keeps
	// every family (LIMIT trims afterwards); the probe engine mirrors it.
	eng := &core.Engine{Scorer: &core.L2Scorer{}, TopK: len(fams)}
	workers := runtime.GOMAXPROCS(0)
	var firsts, step2 []float64 // of the ranking conditioned on load alone
	var last rankOutcome
	for n := 0; n == 0 || time.Since(begin) < budget; n++ {
		target := byName[st.target(n)]
		id := rc.opID()
		root := tr.start(id, 0, "bench.probe/op")
		tr.call(id, root, spanParse, func() { _, err = sqlparse.ParseStatement(explainSQL(target.Name)) })
		if err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		cond := []*core.Family{load}
		if session {
			// Step 1 of the session ranks unconditioned.
			if _, err := tracedRank(rc, id, root, spanRank, eng, core.Request{Target: target, Candidates: fams}, nil); err != nil {
				return err
			}
		}
		var state *core.CondState
		tr.call(id, root, spanPrepare, func() { state, err = eng.PrepareConditioning(target, cond, nil) })
		if err != nil {
			return fmt.Errorf("probe prepare: %w", err)
		}
		req := core.Request{Target: target, Condition: cond, Candidates: fams}
		if last, err = tracedRank(rc, id, root, spanRank, eng, req, state); err != nil {
			return err
		}
		firsts = append(firsts, ms(last.first))
		step2 = append(step2, ms(last.took))
		if n%4 == 0 {
			one := &core.Engine{Scorer: &core.L2Scorer{}, TopK: len(fams), Workers: 1}
			if _, err := tracedRank(rc, id, root, spanRankW1, one, req, state); err != nil {
				return err
			}
		}
		if session {
			// Step 3 conditions on what step 2 ranked first: the extended
			// state reuses step 2's factorization, the scratch one does not.
			top := byName[last.table.Results[0].Family]
			cond3 := []*core.Family{load, top}
			var state3 *core.CondState
			tr.call(id, root, spanPrepareExtend, func() { state3, err = eng.PrepareConditioning(target, cond3, state) })
			if err != nil {
				return fmt.Errorf("probe prepare extend: %w", err)
			}
			tr.call(id, root, spanPrepare, func() { _, err = eng.PrepareConditioning(target, cond3, nil) })
			if err != nil {
				return fmt.Errorf("probe prepare scratch: %w", err)
			}
			if _, err := tracedRank(rc, id, root, spanRank, eng, core.Request{Target: target, Condition: cond3, Candidates: fams}, state3); err != nil {
				return err
			}
			if err := regressProbes(rc, id, root, target, load, top, fams); err != nil {
				return err
			}
		} else if err := regressProbes(rc, id, root, target, load, nil, fams); err != nil {
			return err
		}
		tr.end(root)
	}

	r.set("tsdb.scan_full_ms", tr.meanMS(spanScanFull))
	r.set("tsdb.scan_glob_ms", tr.meanMS(spanScanGlob))
	r.set("timeseries.align_ms", tr.meanMS(spanAlign))
	r.set("core.build_families_ms", tr.meanMS(spanBuildFamilies))
	r.set("sqlparse.parse_us", 1000*tr.meanMS(spanParse))
	r.setN("core.prepare_cond_ms", tr.meanMS(spanPrepare), len(tr.durations(spanPrepare)))
	r.set("core.prepare_cond_extend_ms", tr.meanMS(spanPrepareExtend))
	rankMS, w1MS := tr.meanMS(spanRank), tr.meanMS(spanRankW1)
	r.setN("core.rank_ms", rankMS, len(tr.durations(spanRank)))
	r.set("core.rank_w1_ms", w1MS)
	// The one-worker run repeats the ranking conditioned on load alone, so
	// both ratios use that ranking's time, not the mean over session steps.
	r.set("core.parallel_efficiency", ratio(w1MS, mean(step2)*float64(workers)))
	r.set("core.candidates_per_s", ratio(float64(last.scored), mean(step2)/1000))
	r.set("core.first_result_ms", mean(firsts))
	r.set("core.candidates_scored", float64(last.scored))
	r.set("core.candidates_skipped", float64(last.skipped))
	r.set("core.candidate_errors", float64(last.errors))
	cvUS := 1000 * tr.meanMS(spanCVRidge)
	r.set("regress.cv_ridge_us", cvUS)
	r.set("regress.design_ms", tr.meanMS(spanDesign))
	r.set("regress.extend_design_ms", tr.meanMS(spanExtendDesign))
	r.set("regress.residualize_ms", tr.meanMS(spanResidualize))
	r.set("linalg.gram_ms", tr.meanMS(spanGram))
	r.set("linalg.cholesky_ms", tr.meanMS(spanCholesky))
	r.set("linalg.mul_ms", tr.meanMS(spanMul))
	r.set("stats.corr_matrix_ms", tr.meanMS(spanCorr))
	// How much of one ranking the per-candidate CV ridge accounts for when
	// the candidates are spread over the workers.
	r.set("core.cv_share_of_rank", ratio(cvUS*float64(last.scored)/float64(workers), mean(step2)*1000))
	return nil
}

// regressProbes calls the regression and kernel layers at the shapes the
// op just used: the conditioning design Z (load, plus extra when the
// session extended it), and a deterministic sample of candidate matrices.
func regressProbes(rc *runCtx, op, parent int, target, load, extra *core.Family, fams []*core.Family) error {
	tr := rc.tr
	grid := regress.DefaultLambdaGrid
	lambda := grid[len(grid)/2]
	var design *regress.RidgeDesign
	var err error
	tr.call(op, parent, spanDesign, func() { design, err = regress.NewRidgeDesign(load.Matrix) })
	if err != nil {
		return fmt.Errorf("probe design: %w", err)
	}
	z := load.Matrix
	if extra != nil {
		tr.call(op, parent, spanExtendDesign, func() { design, err = regress.ExtendDesign(design, extra.Matrix) })
		if err != nil {
			return fmt.Errorf("probe extend design: %w", err)
		}
		if z, err = linalg.HStack(load.Matrix, extra.Matrix); err != nil {
			return fmt.Errorf("probe hstack: %w", err)
		}
	}
	ry, err := design.Residualize(target.Matrix, lambda)
	if err != nil {
		return fmt.Errorf("probe residualize target: %w", err)
	}
	folds, err := regress.TimeSeriesFoldRanges(target.Matrix.Rows, 5)
	if err != nil {
		return fmt.Errorf("probe folds: %w", err)
	}
	stride := max(1, len(fams)/probeCandidates)
	for i := 0; i < len(fams); i += stride {
		x := fams[i].Matrix
		var rx *linalg.Matrix
		tr.call(op, parent, spanResidualize, func() { rx, err = design.Residualize(x, lambda) })
		if err != nil {
			return fmt.Errorf("probe residualize %s: %w", fams[i].Name, err)
		}
		tr.call(op, parent, spanCVRidge, func() { _, err = regress.CrossValidateRidge(rx, ry, grid, folds) })
		if err != nil {
			return fmt.Errorf("probe cv ridge %s: %w", fams[i].Name, err)
		}
		tr.call(op, parent, spanCorr, func() { stats.CorrelationMatrix(x, target.Matrix) })
	}
	// Kernels at Z's shape: rows x p Gram, p x p factorization, and the
	// rows x p by p x q product a fit's prediction makes.
	zs := z.Clone()
	zs.StandardizeColumns()
	var gram *linalg.Matrix
	tr.call(op, parent, spanGram, func() { gram = zs.Gram() })
	tr.call(op, parent, spanCholesky, func() { _, err = linalg.CholeskySPD(gram.Clone().AddDiag(lambda + 1e-10)) })
	if err != nil {
		return fmt.Errorf("probe cholesky: %w", err)
	}
	coef := linalg.NewMatrix(zs.Cols, target.Matrix.Cols)
	for i := range coef.Data {
		coef.Data[i] = 1 / float64(i+1)
	}
	tr.call(op, parent, spanMul, func() { _, err = zs.Mul(coef) })
	if err != nil {
		return fmt.Errorf("probe mul: %w", err)
	}
	// Multiply-adds over the upper triangle of the p x p Gram.
	rc.res.set("linalg.gram_flop", float64(zs.Rows)*float64(zs.Cols)*float64(zs.Cols+1))
	return nil
}
