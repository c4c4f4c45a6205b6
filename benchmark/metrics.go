package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// metricDef declares one metric the driver emits. BENCHMARK.json repeats
// these lists (with direction and bounds); the smoke test fails if the two
// drift apart.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run. Every workload reports
// every one; what "op", "work", "space" and "refresh" mean on each
// workload is fixed in README.md and in the workload's own file.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"refresh_ms", "ms"},
	{"space_bytes_per_sample", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run, named <module>.<metric>. A
// workload that never enters a layer reports 0 for it, which is the
// evidence that the workloads stress different layers.
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"sqlexec.plan_us", "us"},
	{"sqlexec.exec_cold_ms", "ms"},
	{"sqlexec.plan_cache_hit_ratio", "ratio"},
	{"sqlexec.scan_cache_hit_ratio", "ratio"},
	{"rescache.rank_hit_ratio", "ratio"},
	{"rescache.rank_invalidated", "count"},
	{"rescache.hit_us", "us"},
	{"tsdb.putbatch_p50_ms", "ms"},
	{"tsdb.putbatch_p99_ms", "ms"},
	{"tsdb.putbatch_max_ms", "ms"},
	{"tsdb.mem_put_samples_per_s", "1/s"},
	{"tsdb.scan_full_ms", "ms"},
	{"tsdb.scan_glob_ms", "ms"},
	{"tsdb.series", "count"},
	{"tsdb.samples", "count"},
	{"storage.append_p50_ms", "ms"},
	{"storage.wal_bytes_per_sample", "B"},
	{"storage.block_bytes_per_sample", "B"},
	{"storage.disk_write_bytes_per_sample", "B"},
	{"storage.blocks_written", "count"},
	{"storage.wal_segments_peak", "count"},
	{"storage.flush_ms", "ms"},
	{"storage.replay_ms", "ms"},
	{"timeseries.align_ms", "ms"},
	{"core.build_families_ms", "ms"},
	{"core.prepare_cond_ms", "ms"},
	{"core.prepare_cond_extend_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.rank_w1_ms", "ms"},
	{"core.parallel_efficiency", "ratio"},
	{"core.candidates_per_s", "1/s"},
	{"core.first_result_ms", "ms"},
	{"core.candidates_scored", "count"},
	{"core.candidates_skipped", "count"},
	{"core.candidate_errors", "count"},
	{"core.cv_share_of_rank", "ratio"},
	{"core.factor_share_of_session", "ratio"},
	{"regress.cv_ridge_us", "us"},
	{"regress.design_ms", "ms"},
	{"regress.extend_design_ms", "ms"},
	{"regress.residualize_ms", "ms"},
	{"linalg.gram_ms", "ms"},
	{"linalg.cholesky_ms", "ms"},
	{"linalg.mul_ms", "ms"},
	{"linalg.gram_flop", "count"},
	{"stats.corr_matrix_ms", "ms"},
	{"monitor.ticks", "count"},
	{"monitor.skips", "count"},
	{"monitor.evals", "count"},
	{"monitor.emits", "count"},
	{"monitor.skip_ratio", "ratio"},
	{"monitor.eval_ms_mean", "ms"},
	{"monitor.emit_lag_ms", "ms"},
	{"apihttp.overhead_us", "us"},
	{"apihttp.put_ms", "ms"},
	{"apihttp.shed", "count"},
	{"apihttp.queued_max", "count"},
	{"apihttp.rate_lo_p95_ms", "ms"},
	{"apihttp.rate_hi_p95_ms", "ms"},
	{"apihttp.max_rate_ok", "1/s"},
	{"explainit.alloc_mb_per_op", "MB"},
	{"explainit.cpu_ms_per_op", "ms"},
	{"explainit.peak_rss_mb", "MB"},
	{"explainit.gc_pause_ms", "ms"},
	{"explainit.trace_overhead_ratio", "ratio"},
	{"bench.op_tail_ms", "ms"},
	{"bench.late_p95_ms", "ms"},
	{"bench.schedule_hash", "hash"},
	{"bench.cause_rank_max", "rank"},
	{"bench.fail_ratio", "ratio"},
	{"bench.samples", "count"},
	{"simulator.generate_s", "s"},
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// checks lists every correctness check that failed (and the first few
	// op errors); the run is correct only when it is empty and no op
	// failed. Ops fail on dispatcher goroutines, so mu guards it.
	mu     sync.Mutex
	checks []string
	// notes are facts a reader needs beside the numbers (fsync policy,
	// which percentile the tail is, what could not be measured).
	notes  []string
	values map[string]float64
	// counts holds the sample count behind a timing metric.
	counts map[string]int
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: map[string]float64{}, counts: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setN records a timing together with the number of samples behind it.
func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *result) failCheck(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// noteOpError keeps the first few op errors for the report; the op itself
// is counted as failed by the loop that ran it.
func (r *result) noteOpError(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checks) < 8 {
		r.checks = append(r.checks, "op failed: "+err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.checks) == 0 && r.failed == 0 }

// defs is the metric list this run must emit: the end-to-end metrics when
// untraced, the per-layer metrics when traced.
func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		out.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// print writes every metric by name with its unit and sample count, then
// the notes and failed checks, then the contract line.
func (r *result) print(w io.Writer) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted=%d failed=%d fail_ratio=%g\n",
		r.workload, mode, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, d := range r.defs() {
		if n, ok := r.counts[d.name]; ok {
			fmt.Fprintf(w, "%-38s %16.6g %-6s n=%d\n", d.name, r.values[d.name], d.unit, n)
		} else {
			fmt.Fprintf(w, "%-38s %16.6g %s\n", d.name, r.values[d.name], d.unit)
		}
	}
	if !r.traced {
		// The quality and failure figures are gated through "correct", not
		// through a bound, but a reader of the untraced run wants them too.
		for _, name := range []string{"bench.op_tail_ms", "bench.cause_rank_max", "bench.schedule_hash", "tsdb.series", "tsdb.samples"} {
			fmt.Fprintf(w, "%-38s %16.10g\n", name, r.values[name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	b, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
