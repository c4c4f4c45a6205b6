package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"explainit"
	"explainit/internal/simulator"
)

// maxCauseRank is the correctness floor: the simulator's labelled primary
// cause must be within this rank on every ranking conditioned on the
// load confounder. A faster engine that loses the cause fails the run.
const maxCauseRank = 5

// engineSizes fixes an in-memory engine workload's input. The numbers were
// calibrated once (see README.md, "Calibration") and are frozen: a window
// always measures the same problem.
type engineSizes struct {
	families, seriesPerFamily, rows int
}

// effectsPerCause is how many effect families share the fault with the
// target. Each one matches the fault's lag exactly and so outranks the
// cause's own evidence family; three keeps the cause at rank 4, inside
// maxCauseRank, and gives the target pool four members.
const effectsPerCause = 3

// targetPool is the families the fault drives: the scenario's target and
// its effect families. EXPLAINs rotate over them so no op repeats the last.
func targetPool(target string) []string {
	pool := []string{target}
	for j := 0; j < effectsPerCause; j++ {
		pool = append(pool, fmt.Sprintf("effect_c00_%02d", j))
	}
	return pool
}

func (s engineSizes) config(seed int64) simulator.StressConfig {
	cfg := simulator.CardinalityStress(s.families, seed)
	cfg.SeriesPerFamily = s.seriesPerFamily
	cfg.T = s.rows
	cfg.EffectsPerCause = effectsPerCause
	return cfg
}

// engineState is an in-memory client loaded with one stress scenario, its
// families built and its ranking cache off, so every op pays the engine.
type engineState struct {
	client  *explainit.Client
	ds      *dataset
	cause   string
	targets []string // the target pool: the scenario target and its effects
	order   []int    // seed-drawn rotation over targets
	hash    *scheduleHash
	rng     *rand.Rand
	grown   int // grid points appended by refresh cycles so far

	refreshMS []float64
}

func newEngineState(rc *runCtx, sizes engineSizes) (*engineState, error) {
	c := explainit.New()
	ds, err := loadStress(c, sizes.config(rc.seed))
	if err != nil {
		return nil, err
	}
	if _, err := c.BuildFamilies("name", ds.sc.Range.From, ds.sc.Range.To, ds.sc.Step); err != nil {
		return nil, fmt.Errorf("build families: %w", err)
	}
	c.SetRankingCacheCapacity(0)
	st := &engineState{client: c, ds: ds, cause: ds.sc.PrimaryCauses()[0], hash: newScheduleHash()}
	st.targets = targetPool(ds.sc.Target)
	st.rng = rand.New(rand.NewSource(rc.seed))
	st.order = rotation(st.rng, len(st.targets), 4096)
	for _, i := range st.order {
		st.hash.add(st.targets[i])
	}
	return st, nil
}

func (st *engineState) close() { _ = st.client.Close() }

func (st *engineState) target(seq int) string { return st.targets[st.order[seq%len(st.order)]] }

// explainSQL is the statement an operator mid-incident issues.
func explainSQL(target string) string {
	return "EXPLAIN " + target + " GIVEN " + simulator.StressLoad + " LIMIT 20"
}

// causeRankInResult finds the cause in an EXPLAIN relation (columns rank,
// family, ...); absent counts as worse than any rank.
func causeRankInResult(res *explainit.Result, cause string) int {
	for i, row := range res.Rows {
		if len(row) > 1 && row[1] == cause {
			return i + 1
		}
	}
	return 1 << 20
}

func causeRankInRanking(r *explainit.Ranking, cause string) int {
	for _, row := range r.Rows {
		if row.Family == cause {
			return row.Rank
		}
	}
	return 1 << 20
}

// recordSetupFacts fills the metrics that describe what set-up loaded;
// they are counts and must repeat exactly for one seed.
func (st *engineState) recordSetupFacts(rc *runCtx) {
	r := rc.res
	r.set("tsdb.series", float64(st.client.NumSeries()))
	r.set("tsdb.samples", float64(st.client.NumSamples()))
	r.set("simulator.generate_s", st.ds.generateS)
	r.set("bench.schedule_hash", st.hash.value())
	// Space: what the loaded store, its families and the client keep
	// reachable, per stored sample. The generated data was streamed, so the
	// driver itself holds only the series keys.
	r.set("space_bytes_per_sample", float64(liveHeapBytes())/float64(st.ds.samples))
}

// refreshCycles is how many refresh cycles an engine workload spreads over
// its window, so their median sees the same stretch of machine time as the
// op latencies do.
const refreshCycles = 10

// refreshDue reports whether the next refresh cycle's turn has come,
// `elapsed` into a window of the given length.
func (st *engineState) refreshDue(elapsed, window time.Duration) bool {
	return elapsed >= time.Duration(2*st.grown+1)*window/(2*refreshCycles)
}

// refresh measures how long fresh data takes to become a fresh ranking on
// an in-memory store: one new grid point for every series is put, the
// families are rebuilt over the grown range, and one EXPLAIN runs. The
// workloads run it between ops; refresh_ms is the median over the cycles.
func (st *engineState) refresh(rc *runCtx) error {
	batch := st.ds.appendPoint(st.rng, st.grown)
	st.grown++
	id := rc.opID()
	root := rc.tr.start(id, 0, "bench.refresh")
	begin := time.Now()
	var err error
	rc.tr.call(id, root, "explainit.PutBatch", func() { err = st.client.PutBatch(batch) })
	if err != nil {
		return fmt.Errorf("refresh put: %w", err)
	}
	to := st.ds.sc.Range.To.Add(time.Duration(st.grown) * st.ds.sc.Step)
	rc.tr.call(id, root, "explainit.BuildFamilies", func() {
		_, err = st.client.BuildFamilies("name", st.ds.sc.Range.From, to, st.ds.sc.Step)
	})
	if err != nil {
		return fmt.Errorf("refresh build families: %w", err)
	}
	var res *explainit.Result
	rc.tr.call(id, root, "explainit.Query", func() {
		res, err = st.client.Query(context.Background(), explainSQL(st.ds.sc.Target))
	})
	if err != nil {
		return fmt.Errorf("refresh explain: %w", err)
	}
	st.refreshMS = append(st.refreshMS, ms(time.Since(begin)))
	rc.tr.end(root)
	if rank := causeRankInResult(res, st.cause); rank > maxCauseRank {
		return fmt.Errorf("refresh cycle %d: cause %s at rank %d after rebuild, want <= %d", st.grown, st.cause, rank, maxCauseRank)
	}
	return nil
}

// runWindow runs op in a closed loop from one client with the refresh
// cycles interleaved, and fills the metrics every engine workload shares.
// op returns the cause's rank in the ranking it checked.
func (st *engineState) runWindow(rc *runCtx, rootName string, tail float64, candidatesPerOp int, op func(seq int) (int, error)) {
	worst, refreshes, refreshFailed := 0, 0, 0
	before := readProcStats()
	loop := rc.closedLoop(rootName,
		func(seq, _, _ int) error {
			rank, err := op(seq)
			worst = max(worst, rank)
			return err
		},
		func(elapsed time.Duration) {
			if !st.refreshDue(elapsed, rc.window) {
				return
			}
			refreshes++
			if err := st.refresh(rc); err != nil {
				refreshFailed++
				rc.res.failCheck("%v", err)
			}
		})
	after := readProcStats()
	r := rc.res
	r.attempted, r.failed = len(loop.lat)+refreshes, loop.failed+refreshFailed
	rc.setLatencyMetrics(loop.sortedMS(), tail)
	r.set("work_per_s", float64(len(loop.lat)-loop.failed)*float64(candidatesPerOp)/loop.elapsed.Seconds())
	r.setN("refresh_ms", median(st.refreshMS), len(st.refreshMS))
	r.note("refresh = PutBatch of one new grid point per series -> BuildFamilies -> EXPLAIN, run between ops %d times over the window", refreshCycles)
	r.set("bench.cause_rank_max", float64(worst))
	r.set("bench.samples", float64(len(loop.lat)))
	rc.setProcessMetrics(before, after, len(loop.lat), loop.overheadRatio())
}
