package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"explainit"
	"explainit/internal/apihttp"
	"explainit/internal/core"
	"explainit/internal/simulator"
	"explainit/internal/sqlexec"
	"explainit/internal/sqlparse"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// serve_mixed: the production shape. Dashboards, ad-hoc EXPLAINs, a
// standing watch and a scraper hit one server together, all caches at
// their defaults, in process through apihttp.Server.ServeHTTP. Reads arrive
// in an open loop at a fixed rate; every couple of seconds a scrape cycle
// puts fresh samples (invalidating the ranking and scan caches), rebuilds
// the families and asks for a fresh ranking. The median is the cache-hit
// path and the tail the invalidated path, so a cache change and an engine
// change land on different metrics.

type serveSizes struct {
	engineSizes
	rate        float64       // read requests due per second
	scrapeEvery time.Duration // one scrape cycle per this much window
	putRequests int           // puts per scrape cycle
	pointsPer   int           // new grid points per scrape cycle
	sweep       time.Duration // length of each step of the traced rate sweep
}

func serveMixedSizes(smoke bool) serveSizes {
	if smoke {
		return serveSizes{engineSizes: engineSizes{families: 30, seriesPerFamily: 2, rows: 96},
			rate: 40, scrapeEvery: 300 * time.Millisecond, putRequests: 2, pointsPer: 1, sweep: 200 * time.Millisecond}
	}
	return serveSizes{engineSizes: engineSizes{families: 200, seriesPerFamily: 5, rows: 288},
		rate: 30, scrapeEvery: 2 * time.Second, putRequests: 8, pointsPer: 2, sweep: 2 * time.Second}
}

const (
	serveDispatchers = 2
	serveShards      = "4"
	serveTail        = 95
	// serveLatencyLimit is the p95 a rate must meet to count as sustained.
	serveLatencyLimit = 250 * time.Millisecond

	kindSelect = iota
	kindExplain
	kindScrape
)

// dashboardSelects are the 20 panels of a dashboard: aggregates over
// metric-name globs, the shape predicate pushdown and the scan cache serve.
// Each glob selects one family's series: the executor re-applies the glob
// to every scanned row, which at this commit costs about 13 us a row, so
// wider globs would saturate the box at a few requests per second.
func dashboardSelects(nuisanceFamilies int) []string {
	var out []string
	for i := 0; i < 10; i++ {
		a, b := 2*i*nuisanceFamilies/20, (2*i+1)*nuisanceFamilies/20
		out = append(out,
			fmt.Sprintf("SELECT COUNT(*) AS n, AVG(value) AS v FROM tsdb WHERE metric_name GLOB 'nuisance_%05d*'", a),
			fmt.Sprintf("SELECT tag, MAX(value) AS hi FROM tsdb WHERE metric_name GLOB 'nuisance_%05d*' GROUP BY tag ORDER BY hi DESC LIMIT 3", b))
	}
	return out
}

// serveState is one server over a loaded in-memory client, with its
// standing watch subscribed.
type serveState struct {
	sizes    serveSizes
	client   *explainit.Client
	srv      *apihttp.Server
	ds       *dataset
	cause    string
	selects  []string
	explains []string
	schedule []openOp
	putBody  [][][]byte // scrape cycle -> put request -> JSON body
	hash     *scheduleHash
	watchID  string

	mu         sync.Mutex
	updates    []time.Time // when the subscriber received each watch update
	subDone    chan struct{}
	unsub      func()
	rebuilt    []time.Time // when each scrape cycle's families were rebuilt
	refreshMS  []float64
	putMS      []float64
	queuedMax  int64
	worstCause int
}

// post sends one request through the server in process and returns the
// status and body.
func (st *serveState) post(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	st.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func queryBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sql}) // a map of strings always marshals
	return b
}

// query posts one statement and fails unless the answer is a 200 with at
// least one row; a 429 is a refused request and counts as failed.
func (st *serveState) query(sql string) ([]byte, error) {
	code, body := st.post("/api/v1/query", queryBody(sql))
	if code != http.StatusOK {
		return nil, fmt.Errorf("query %q: status %d: %s", sql, code, bytes.TrimSpace(body))
	}
	if !bytes.Contains(body, []byte(`"rows":[[`)) {
		return nil, fmt.Errorf("query %q: no rows: %s", sql, bytes.TrimSpace(body))
	}
	return body, nil
}

var familiesBody = []byte(`{"group_by":"name","step_seconds":60}`)

func newServeState(rc *runCtx, sizes serveSizes) (*serveState, error) {
	// The in-memory store takes its shard count from the environment.
	os.Setenv("EXPLAINIT_SHARDS", serveShards)
	c := explainit.New()
	os.Unsetenv("EXPLAINIT_SHARDS")
	ds, err := loadStress(c, sizes.config(rc.seed))
	if err != nil {
		return nil, err
	}
	st := &serveState{sizes: sizes, client: c, ds: ds, cause: ds.sc.PrimaryCauses()[0], hash: newScheduleHash(), subDone: make(chan struct{})}
	st.srv = apihttp.NewServer(c)
	if code, body := st.post("/api/v1/families", familiesBody); code != http.StatusOK {
		st.close()
		return nil, fmt.Errorf("build families: status %d: %s", code, body)
	}
	// Everything but the target, the load, the cause, its effects and the
	// eight load confounders is a nuisance family.
	st.selects = dashboardSelects(sizes.families - (3 + effectsPerCause + 8))
	for _, t := range targetPool(ds.sc.Target) {
		st.explains = append(st.explains, "EXPLAIN "+t+" LIMIT 20", explainSQL(t))
	}
	st.buildSchedule(rc)

	info, err := c.CreateWatch("EXPLAIN "+ds.sc.Target+" EVERY '1s'", "")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("create watch: %w", err)
	}
	st.watchID = info.ID
	ch, unsub, err := c.WatchSubscribe(info.ID)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("subscribe watch: %w", err)
	}
	st.unsub = unsub
	go func() {
		defer close(st.subDone)
		for range ch {
			st.mu.Lock()
			st.updates = append(st.updates, time.Now())
			st.mu.Unlock()
		}
	}()

	// Warm-up: every statement once, so plan, scan and ranking caches and
	// the glob cache are filled before the window.
	for _, sql := range st.statements() {
		if _, err := st.query(sql); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// alignToWatchTicks waits until half-way between two of the standing
// watch's ticks. The watch ticks once a second from the moment its first
// evaluation was delivered, and scrape cycles fall on whole seconds of the
// window, so without this the watch's re-evaluation would land on top of a
// cycle's timed refresh in some runs and between cycles in others.
func (st *serveState) alignToWatchTicks() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.updates) == 0 {
		return
	}
	phase := time.Since(st.updates[0]) % time.Second
	time.Sleep((3*time.Second/2 - phase) % time.Second)
}

// statements is the whole statement pool, SELECTs first.
func (st *serveState) statements() []string {
	return append(append([]string(nil), st.selects...), st.explains...)
}

// close stops the subscriber, the watch and the server and waits for the
// subscriber goroutine to end.
func (st *serveState) close() {
	if st.unsub != nil {
		st.unsub()
	}
	_ = st.srv.Close()
	_ = st.client.Close()
	if st.unsub != nil {
		<-st.subDone
	}
}

// readSchedule draws the window's read requests from the seed: Poisson
// arrivals (independent users) at the workload's rate, 75 % dashboard
// SELECTs and 25 % EXPLAINs, each naming one of the pool's statements.
func readSchedule(rng *rand.Rand, sizes serveSizes, window time.Duration, selects, explains int) []openOp {
	reads := fixedRate(window, sizes.rate, kindSelect, 0)
	for i := range reads {
		if rng.Float64() < 0.75 {
			reads[i].arg = rng.Intn(selects)
		} else {
			reads[i].kind, reads[i].arg = kindExplain, rng.Intn(explains)
		}
	}
	return reads
}

// buildSchedule merges the seed-drawn reads with a scrape cycle every
// scrapeEvery and generates the put bodies each cycle sends.
func (st *serveState) buildSchedule(rc *runCtx) {
	rng := rand.New(rand.NewSource(rc.seed))
	sizes := st.sizes
	cycle := 0
	next := sizes.scrapeEvery / 2
	for _, op := range readSchedule(rng, sizes, rc.window, len(st.selects), len(st.explains)) {
		for next <= op.due {
			st.schedule = append(st.schedule, openOp{due: next, kind: kindScrape, arg: cycle})
			cycle++
			next += sizes.scrapeEvery
		}
		st.schedule = append(st.schedule, op)
	}
	for _, op := range st.schedule {
		st.hash.add(int64(op.due), op.kind, op.arg)
	}
	// Each cycle appends pointsPer new grid points for every series, split
	// over putRequests requests.
	for c := 0; c < cycle; c++ {
		var records []apihttp.PutRecord
		for p := 0; p < sizes.pointsPer; p++ {
			for _, o := range st.ds.appendPoint(rng, c*sizes.pointsPer+p) {
				records = append(records, apihttp.PutRecord{Metric: o.Metric, Timestamp: o.At.Unix(), Value: o.Value, Tags: o.Tags})
			}
		}
		per := (len(records) + sizes.putRequests - 1) / sizes.putRequests
		var bodies [][]byte
		for i := 0; i < len(records); i += per {
			b, _ := json.Marshal(records[i:min(i+per, len(records))]) // plain structs always marshal
			bodies = append(bodies, b)
		}
		st.putBody = append(st.putBody, bodies)
		st.hash.add(len(records), records[0].Value)
	}
}

// scrape runs one scrape cycle: the puts, then — timed as refresh — the
// families rebuild and a fresh conditioned EXPLAIN of the target.
func (st *serveState) scrape(rc *runCtx, cycle, opID, root int) error {
	for _, body := range st.putBody[cycle] {
		var code int
		var resp []byte
		d := rc.tr.call(opID, root, "apihttp.put", func() { code, resp = st.post("/api/v1/put", body) })
		if code != http.StatusOK {
			return fmt.Errorf("put: status %d: %s", code, bytes.TrimSpace(resp))
		}
		st.mu.Lock()
		st.putMS = append(st.putMS, ms(d))
		st.mu.Unlock()
	}
	acked := time.Now()
	var code int
	var resp []byte
	rc.tr.call(opID, root, "apihttp.families", func() { code, resp = st.post("/api/v1/families", familiesBody) })
	if code != http.StatusOK {
		return fmt.Errorf("families: status %d: %s", code, bytes.TrimSpace(resp))
	}
	rebuilt := time.Now()
	var err error
	rc.tr.call(opID, root, "apihttp.query/fresh", func() { resp, err = st.query(explainSQL(st.ds.sc.Target)) })
	if err != nil {
		return err
	}
	refresh := time.Since(acked)
	var payload struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(resp, &payload); err != nil {
		return fmt.Errorf("fresh explain: %w", err)
	}
	rank := causeRankInResult(&explainit.Result{Rows: payload.Rows}, st.cause)
	stats := st.serverStats()
	st.mu.Lock()
	st.rebuilt = append(st.rebuilt, rebuilt)
	st.refreshMS = append(st.refreshMS, ms(refresh))
	st.worstCause = max(st.worstCause, rank)
	st.queuedMax = max(st.queuedMax, stats.QueueDepth)
	st.mu.Unlock()
	if rank > maxCauseRank {
		return fmt.Errorf("scrape cycle %d: cause %s at rank %d in the fresh ranking, want <= %d", cycle, st.cause, rank, maxCauseRank)
	}
	return nil
}

// serverStats is the part of GET /api/v1/stats the benchmark reads.
type serverStats struct {
	QueueDepth int64  `json:"queue_depth"`
	ShedTotal  uint64 `json:"shed_total"`
}

func (st *serveState) serverStats() serverStats {
	rec := httptest.NewRecorder()
	st.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	var s serverStats
	_ = json.Unmarshal(rec.Body.Bytes(), &s) // a failed decode reads as zeros, which the shed check then reports
	return s
}

func (st *serveState) exec(rc *runCtx, op openOp, opID, root int) error {
	switch op.kind {
	case kindSelect:
		_, err := st.query(st.selects[op.arg])
		return err
	case kindExplain:
		_, err := st.query(st.explains[op.arg])
		return err
	}
	return st.scrape(rc, op.arg, opID, root)
}

func serveSpanName(op openOp) string {
	switch op.kind {
	case kindSelect:
		return "apihttp.query/select"
	case kindExplain:
		return "apihttp.query/explain"
	}
	return "bench.scrape"
}

func isRead(op openOp) bool { return op.kind != kindScrape }

// checkCachedEqualsFresh verifies the ranking cache: each EXPLAIN served
// from the cache must be bitwise equal to the same statement recomputed
// with the cache off at the same watermark. It leaves the cache off.
func (st *serveState) checkCachedEqualsFresh(rc *runCtx) {
	r := rc.res
	cached := make([][]byte, len(st.explains))
	for i, sql := range st.explains {
		if _, err := st.query(sql); err != nil { // fills the entry if a put just invalidated it
			r.failCheck("cache check: %v", err)
			return
		}
		hits := st.client.RankingCacheStats().Hits
		body, err := st.query(sql)
		if err != nil {
			r.failCheck("cache check: %v", err)
			return
		}
		if st.client.RankingCacheStats().Hits == hits {
			r.failCheck("cache check: repeat of %q was not served from the ranking cache", sql)
		}
		cached[i] = body
	}
	st.client.SetRankingCacheCapacity(0)
	for i, sql := range st.explains {
		r.attempted++
		fresh, err := st.query(sql)
		if err != nil || !bytes.Equal(fresh, cached[i]) {
			r.failed++
			r.failCheck("cache check: %q from the cache differs from the recomputed answer (err=%v)", sql, err)
		}
	}
}

func runServeMixed(rc *runCtx) error {
	sizes := serveMixedSizes(rc.smoke)
	var st *serveState
	teardown, err := rc.timeSetup(func() (func(), error) {
		var err error
		if st, err = newServeState(rc, sizes); err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	r := rc.res
	r.set("tsdb.series", float64(st.client.NumSeries()))
	r.set("tsdb.samples", float64(st.client.NumSamples()))
	r.set("simulator.generate_s", st.ds.generateS)
	r.set("bench.schedule_hash", st.hash.value())
	r.set("space_bytes_per_sample", float64(liveHeapBytes())/float64(st.ds.samples))

	st.alignToWatchTicks()
	sqlBefore, rankBefore := st.client.SQLCacheStats(), st.client.RankingCacheStats()
	before := readProcStats()
	samples, elapsed := rc.openLoop(serveDispatchers, st.schedule, serveSpanName,
		func(op openOp, _, opID, root int) error { return st.exec(rc, op, opID, root) })
	after := readProcStats()
	sqlAfter, rankAfter := st.client.SQLCacheStats(), st.client.RankingCacheStats()

	reads := summarizeOpen(samples, isRead)
	all := summarizeOpen(samples, func(openOp) bool { return true })
	r.attempted, r.failed = all.attempted, all.failed
	rc.setLatencyMetrics(reads.latencyMS, serveTail)
	r.set("work_per_s", float64(len(reads.latencyMS))/elapsed.Seconds())
	r.setN("refresh_ms", median(st.refreshMS), len(st.refreshMS))
	r.note("op = read request through ServeHTTP, timed from its due time; open loop at %g req/s (75%% SELECT, 25%% EXPLAIN) from %d dispatchers, one scrape cycle every %v; work = read requests completed; refresh = last put acknowledged -> families rebuilt -> fresh EXPLAIN returned",
		sizes.rate, serveDispatchers, sizes.scrapeEvery)
	r.set("bench.samples", float64(len(reads.latencyMS)))
	r.set("bench.late_p95_ms", percentile(all.lateMS, 95))
	r.set("bench.cause_rank_max", float64(st.worstCause))
	rc.setProcessMetrics(before, after, all.attempted, reads.overhead)
	stats := st.serverStats()
	if stats.ShedTotal > 0 {
		r.failCheck("server shed %d requests at %g req/s", stats.ShedTotal, sizes.rate)
	}

	if rc.traced() {
		r.set("sqlexec.plan_cache_hit_ratio", ratio(float64(sqlAfter.PlanHits-sqlBefore.PlanHits),
			float64(sqlAfter.PlanHits-sqlBefore.PlanHits+sqlAfter.PlanMisses-sqlBefore.PlanMisses)))
		r.set("sqlexec.scan_cache_hit_ratio", ratio(float64(sqlAfter.ScanHits-sqlBefore.ScanHits),
			float64(sqlAfter.ScanHits-sqlBefore.ScanHits+sqlAfter.ScanMisses-sqlBefore.ScanMisses)))
		r.set("rescache.rank_hit_ratio", ratio(float64(rankAfter.Hits-rankBefore.Hits),
			float64(rankAfter.Hits-rankBefore.Hits+rankAfter.Misses-rankBefore.Misses)))
		r.set("rescache.rank_invalidated", float64(rankAfter.Invalidated-rankBefore.Invalidated))
		r.set("apihttp.put_ms", mean(st.putMS))
		r.set("apihttp.shed", float64(stats.ShedTotal))
		r.set("apihttp.queued_max", float64(max(st.queuedMax, stats.QueueDepth)))
		st.watchMetrics(rc)
		if err := st.serveProbes(rc); err != nil {
			return err
		}
	}
	st.checkCachedEqualsFresh(rc)
	return nil
}

// watchMetrics fills monitor.* from the standing watch's counters and the
// subscriber's receive times.
func (st *serveState) watchMetrics(rc *runCtx) {
	r := rc.res
	info, err := st.client.WatchInfo(st.watchID)
	if err != nil {
		r.failCheck("watch info: %v", err)
		return
	}
	r.set("monitor.ticks", float64(info.Ticks))
	r.set("monitor.skips", float64(info.Skips))
	r.set("monitor.evals", float64(info.Evals))
	r.set("monitor.emits", float64(info.Emits))
	r.set("monitor.skip_ratio", ratio(float64(info.Skips), float64(info.Ticks)))
	r.set("monitor.eval_ms_mean", info.AvgEvalMs)
	// Emit lag: from a cycle's families being rebuilt to the first update
	// the subscriber received after that.
	st.mu.Lock()
	defer st.mu.Unlock()
	var lags []float64
	for _, rebuilt := range st.rebuilt {
		for _, got := range st.updates {
			if got.After(rebuilt) {
				lags = append(lags, ms(got.Sub(rebuilt)))
				break
			}
		}
	}
	r.setN("monitor.emit_lag_ms", median(lags), len(lags))
}

// serveProbes measures the layers under the server's handlers on the
// workload's own statements and data, then sweeps the read rate.
func (st *serveState) serveProbes(rc *runCtx) error {
	r, tr := rc.res, rc.tr
	id := rc.opID()
	root := tr.start(id, 0, "bench.probe/sql")
	sc := simulator.StressScenario(st.sizes.config(rc.seed))
	db := tsdb.NewWithShards(4)
	for _, s := range sc.Series {
		if err := db.PutSeries(s); err != nil {
			return fmt.Errorf("probe load: %w", err)
		}
	}
	cat := sqlexec.NewTSDBCatalog(db)
	for _, sql := range st.statements() {
		var stmt sqlparse.Statement
		var err error
		tr.call(id, root, spanParse, func() { stmt, err = sqlparse.ParseStatement(sql) })
		if err != nil {
			return fmt.Errorf("probe parse %q: %w", sql, err)
		}
		tr.call(id, root, "sqlexec.PlanStatement", func() { _, err = sqlexec.PlanStatement(stmt, cat) })
		if err != nil {
			return fmt.Errorf("probe plan %q: %w", sql, err)
		}
		if _, isSelect := stmt.(*sqlparse.SelectStmt); isSelect {
			tr.call(id, root, "sqlexec.ExecuteStatement", func() { _, err = sqlexec.ExecuteStatement(context.Background(), stmt, cat, nil) })
			if err != nil {
				return fmt.Errorf("probe execute %q: %w", sql, err)
			}
		}
	}
	var series []*ts.Series
	tr.call(id, root, spanScanFull, func() { series, _ = db.Run(tsdb.Query{Range: sc.Range}) })
	tr.call(id, root, spanScanGlob, func() { _, _ = db.Run(tsdb.Query{NamePattern: globPattern, Range: sc.Range}) })
	// What the scrape cycle's families rebuild does under the handler.
	tr.call(id, root, spanAlign, func() { _, _ = ts.Align(series, sc.Range, sc.Step) })
	tr.call(id, root, spanBuildFamilies, func() { _, _ = core.BuildFamilies(series, core.GroupByMetricName, sc.Range, sc.Step) })
	tr.end(root)
	r.set("timeseries.align_ms", tr.meanMS(spanAlign))
	r.set("core.build_families_ms", tr.meanMS(spanBuildFamilies))
	r.set("sqlparse.parse_us", 1000*tr.meanMS(spanParse))
	r.set("sqlexec.plan_us", 1000*tr.meanMS("sqlexec.PlanStatement"))
	r.set("sqlexec.exec_cold_ms", tr.meanMS("sqlexec.ExecuteStatement"))
	r.set("tsdb.scan_full_ms", tr.meanMS(spanScanFull))
	r.set("tsdb.scan_glob_ms", tr.meanMS(spanScanGlob))

	// Cached paths on the now quiet store: a ranking-cache hit through the
	// facade, and what the HTTP layer adds to a cached statement.
	id = rc.opID()
	root = tr.start(id, 0, "bench.probe/cached")
	opts := explainit.ExplainOptions{Target: st.ds.sc.Target, Condition: []string{simulator.StressLoad}}
	if _, err := st.client.Explain(opts); err != nil {
		return fmt.Errorf("probe explain: %w", err)
	}
	const repeats = 200
	sql := st.explains[1]
	var viaHTTP, direct []float64
	for i := 0; i < repeats; i++ {
		var err error
		tr.call(id, root, "explainit.Explain/hit", func() { _, err = st.client.Explain(opts) })
		if err != nil {
			return fmt.Errorf("probe cached explain: %w", err)
		}
		viaHTTP = append(viaHTTP, us(tr.call(id, root, "apihttp.query/cached", func() { _, err = st.query(sql) })))
		if err != nil {
			return fmt.Errorf("probe cached query: %w", err)
		}
		direct = append(direct, us(tr.call(id, root, "explainit.Query/cached", func() { _, err = st.client.Query(context.Background(), sql) })))
		if err != nil {
			return fmt.Errorf("probe direct query: %w", err)
		}
	}
	tr.end(root)
	r.set("rescache.hit_us", 1000*median(durationsMS(tr.durations("explainit.Explain/hit"))))
	r.set("apihttp.overhead_us", median(viaHTTP)-median(direct))
	return st.rateSweep(rc)
}

// rateSweep offers reads at half, one and two times the workload's rate
// for a short step each and reports the p95 at the ends and the highest
// rate that met the latency limit without a backlog still growing at the
// end of its step.
func (st *serveState) rateSweep(rc *runCtx) error {
	r := rc.res
	rng := rand.New(rand.NewSource(rc.seed + 1))
	maxOK := 0.0
	for _, mult := range []float64{0.5, 1, 2} {
		rate := st.sizes.rate * mult
		schedule := fixedRate(st.sizes.sweep, rate, kindSelect, 0)
		for i := range schedule {
			if rng.Float64() < 0.25 {
				schedule[i].kind = kindExplain
				schedule[i].arg = rng.Intn(len(st.explains))
			} else {
				schedule[i].arg = rng.Intn(len(st.selects))
			}
		}
		samples, _ := rc.openLoop(serveDispatchers, schedule,
			func(op openOp) string { return fmt.Sprintf("bench.sweep/%gx", mult) },
			func(op openOp, _, opID, root int) error { return st.exec(rc, op, opID, root) })
		sum := summarizeOpen(samples, isRead)
		if sum.failed > 0 {
			return fmt.Errorf("rate sweep at %g req/s: %d requests failed", rate, sum.failed)
		}
		p95 := percentile(sum.latencyMS, 95)
		switch mult {
		case 0.5:
			r.set("apihttp.rate_lo_p95_ms", p95)
		case 2:
			r.set("apihttp.rate_hi_p95_ms", p95)
		}
		// A backlog that is still growing shows as the last tenth of the
		// step starting later than the limit.
		tail := samples[len(samples)*9/10:]
		growing := false
		for _, s := range tail {
			if s.late > serveLatencyLimit {
				growing = true
			}
		}
		if p95 <= ms(serveLatencyLimit) && !growing {
			maxOK = rate
		}
	}
	r.set("apihttp.max_rate_ok", maxOK)
	return nil
}
