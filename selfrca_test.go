package explainit

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"explainit/internal/obs"
)

// TestSelfRCAEndToEnd is the headline dogfooding scenario: the client
// serves a workload while self-scraping its own metrics registry into the
// serving store, a regression is induced mid-run (the ranking cache is
// disabled, so every request pays a full ranking), and then the engine is
// pointed at its own telemetry — EXPLAIN explainit_request_latency_ms must
// rank a cache- or engine-related explainit_* series among the top causes.
//
// The request clock is scripted by the path each request took, so the
// latency series does not depend on how loaded the host is: every reading
// advances it 1 ms, plus 100 ms per engine ranking that core counted since
// the previous reading. A cache hit then costs 1 ms and a full ranking
// 101 ms — and a cache that never hits leaves the latency flat, with
// nothing to explain.
func TestSelfRCAEndToEnd(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	rankings := obs.Default().Counter("explainit_engine_rankings_total")
	clock, seen := t0, rankings.Value()
	c.now = func() time.Time {
		n := rankings.Value()
		clock = clock.Add(time.Millisecond + time.Duration(n-seen)*100*time.Millisecond)
		seen = n
		return clock
	}

	sc := c.NewSelfScraper()
	// The scrape clock is synthetic and decoupled from the workload clock:
	// each loop iteration is "one interval" of serving, stamped a minute
	// apart, so the test is deterministic and fast.
	scrapeT0 := t0.Add(30 * 24 * time.Hour)
	interval := time.Minute
	tick := 0
	scrape := func() {
		if err := sc.ScrapeOnce(scrapeT0.Add(time.Duration(tick) * interval)); err != nil {
			t.Fatal(err)
		}
		tick++
	}
	scrape() // baseline: primes deltas, writes nothing

	serve := func() {
		// Five identical EXPLAINs per interval. While the cache is healthy
		// they all hit (a scrape's PutBatch leaves the family registry, the
		// ranking cache's one key, as it was), so the interval's latency is
		// that of cheap hits.
		for i := 0; i < 5; i++ {
			if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}

	const phase = 12
	for i := 0; i < phase; i++ {
		serve()
		scrape()
	}
	// Induce the regression: no cache, every request is a full ranking.
	c.SetRankingCacheCapacity(0)
	for i := 0; i < phase; i++ {
		serve()
		scrape()
	}

	// Rebuild families over the scraped window and let the engine explain
	// its own latency. The explainit_cache_hit_ratio series must exist —
	// it's the derived metric the scraper registers.
	infos, err := c.BuildFamilies("name", scrapeT0, scrapeT0.Add(time.Duration(tick)*interval), interval)
	if err != nil {
		t.Fatal(err)
	}
	var sawLatency, sawRatio bool
	for _, f := range infos {
		switch f.Name {
		case "explainit_request_latency_ms":
			sawLatency = true
		case "explainit_cache_hit_ratio":
			sawRatio = true
		}
	}
	if !sawLatency || !sawRatio {
		t.Fatalf("self-scraped families missing (latency %v, ratio %v) in %d families", sawLatency, sawRatio, len(infos))
	}

	res, err := c.Query(t.Context(), "EXPLAIN explainit_request_latency_ms LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty self-RCA ranking")
	}
	famCol := -1
	for i, col := range res.Columns {
		if col == "family" {
			famCol = i
		}
	}
	if famCol < 0 {
		t.Fatalf("no family column in %v", res.Columns)
	}
	var top []string
	for i, row := range res.Rows {
		if i >= 3 {
			break
		}
		top = append(top, row[famCol].(string))
	}
	found := false
	for _, fam := range top {
		if strings.HasPrefix(fam, "explainit_") &&
			(strings.Contains(fam, "cache") || strings.Contains(fam, "engine")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cache/engine-related cause in top 3: %v", top)
	}
}

// TestSelfScrapeLoop covers the daemon path: Run-driven scraping on a real
// clock writes explainit_* series into the store and stops cleanly.
func TestSelfScrapeLoop(t *testing.T) {
	c, _, _ := seedClient(t)
	before := c.NumSamples()
	stop := c.StartSelfScrape(10 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for c.NumSamples() == before {
		if time.Now().After(deadline) {
			t.Fatal("self-scrape wrote nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	after := c.NumSamples()
	time.Sleep(30 * time.Millisecond)
	if n := c.NumSamples(); n != after {
		t.Fatalf("scrape loop still writing after stop: %d -> %d", after, n)
	}
	var found bool
	for _, name := range c.MetricNames() {
		if strings.HasPrefix(name, SelfScrapeMetricPrefix) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no explainit_* series in the store after self-scrape")
	}
}

// TestObsOverheadGuard measures the cost of leaving instrumentation on for
// the end-to-end explain path. It is the CI bench-smoke guard: set
// EXPLAINIT_OVERHEAD_GUARD=1 to enable, and it fails when the instrumented
// run is more than 3% slower than with the registry disabled. Skipped by
// default — wall-clock comparisons are too noisy for an always-on unit
// test.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("EXPLAINIT_OVERHEAD_GUARD") == "" {
		t.Skip("set EXPLAINIT_OVERHEAD_GUARD=1 to run the overhead comparison")
	}
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Workers:1 keeps the measurement single-threaded — the engine's
	// worker-pool scheduling is wall-clock noise with nothing to do with
	// instrumentation cost — and the meter is process CPU time, not wall
	// clock: a noisy neighbour or a descheduled thread inflates elapsed
	// time but not rusage, and the instrumentation's cost is CPU.
	run := func(iters int) time.Duration {
		start := cpuTime(t)
		for i := 0; i < iters; i++ {
			if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Seed: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return cpuTime(t) - start
	}
	c.SetRankingCacheCapacity(0)

	// Even CPU time jitters — mostly from where GC cycles land relative to
	// the measured windows — so the collector is paused for the duration
	// (with an explicit collection before each round to keep the heap
	// flat), rounds are paired in alternating (ABBA) order to cancel
	// drift, and the MEDIAN of the per-round on/off ratios is the estimate.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, iters, rounds = 6, 8, 21
	run(warm)
	ratios := make([]float64, 0, rounds)
	measure := func(enabled bool) time.Duration {
		obs.SetEnabled(enabled)
		return run(iters)
	}
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var on, off time.Duration
		if r%2 == 0 {
			on = measure(true)
			off = measure(false)
		} else {
			off = measure(false)
			on = measure(true)
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	obs.SetEnabled(true)

	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("median on/off ratio over %d rounds: overhead %.2f%%", rounds, 100*overhead)
	if overhead > 0.03 {
		t.Fatalf("observability overhead %.2f%% exceeds 3%% budget (ratios %v)", 100*overhead, ratios)
	}
}

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
