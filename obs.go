package explainit

import (
	"context"
	"time"

	"explainit/internal/obs"
)

// Facade metric handles, resolved once at package init. The request
// latency histogram deliberately covers the cache-hit path too: a cached
// EXPLAIN answers in microseconds and an engine ranking in milliseconds,
// so a cache outage shows up as a step change in the self-scraped
// explainit_request_latency_ms series — exactly the regression signal the
// self-RCA workflow ranks causes for.
var (
	metRequestLatencyMs  = obs.Default().Histogram("explainit_request_latency_ms", obs.LatencyBucketsMs)
	metExplainReqs       = obs.Default().Counter("explainit_requests_total", "kind", "explain")
	metExplainStreamReqs = obs.Default().Counter("explainit_requests_total", "kind", "explain_stream")
	metQueryReqs         = obs.Default().Counter("explainit_requests_total", "kind", "query")
	metQueryStreamReqs   = obs.Default().Counter("explainit_requests_total", "kind", "query_stream")
	metStepReqs          = obs.Default().Counter("explainit_requests_total", "kind", "step")
	metStepStreamReqs    = obs.Default().Counter("explainit_requests_total", "kind", "step_stream")

	// Family rebuild cost: wall time of each BuildFamilies (scan, build and
	// registry swap) and the series read and families produced, so the
	// price of a refresh is visible on /metrics.
	metBuildFamiliesMs = obs.Default().Histogram("explainit_build_families_ms", obs.LatencyBucketsMs)
	metBuildSeries     = obs.Default().Counter("explainit_build_families_series")
	metBuildFamilies   = obs.Default().Counter("explainit_build_families_families")
)

// noteRequest records one completed public request of the given kind: one
// count and one latency observation, start to now on the client's request
// clock. Every exported entry point records itself exactly once; the
// rankings it runs internally (the EXPLAIN inside a Query, a watch tick)
// record nothing.
func (c *Client) noteRequest(kind *obs.Counter, start time.Time) {
	kind.Inc()
	metRequestLatencyMs.Observe(float64(c.now().Sub(start)) / float64(time.Millisecond))
}

// SelfScrapeMetricPrefix is the name prefix every self-scraped series and
// derived ratio carries; see DESIGN.md "Observability" for the catalog.
const SelfScrapeMetricPrefix = "explainit_"

// NewSelfScraper builds a scraper that converts the process-default
// registry's snapshots into explainit_* observations written through this
// client's normal PutBatch path — the dogfooding loop that makes the
// serving stack's own performance EXPLAINable. Counters become
// per-interval deltas, gauges pass through, histograms become the interval
// mean plus a _count delta, and the derived explainit_cache_hit_ratio
// series is registered here. Drive it with Run (explainitd -self-scrape)
// or ScrapeOnce (tests, synthetic clocks). A scrape's PutBatch leaves
// cached rankings valid: they are keyed to the family registry, which only
// a rebuild replaces.
func (c *Client) NewSelfScraper() *obs.Scraper {
	sc := obs.NewScraper(obs.Default(), obs.SinkFunc(func(samples []obs.Sample) error {
		batch := make([]Observation, len(samples))
		for i, s := range samples {
			batch[i] = Observation{Metric: s.Metric, Tags: Tags(s.Labels), At: s.At, Value: s.Value}
		}
		return c.PutBatch(batch)
	}))
	sc.Ratio("explainit_cache_hit_ratio",
		"explainit_ranking_cache_hits_total",
		"explainit_ranking_cache_hits_total", "explainit_ranking_cache_misses_total")
	return sc
}

// StartSelfScrape starts the self-scrape loop at the given interval and
// returns a stop function. Intervals <= 0 disable it (stop is a no-op).
func (c *Client) StartSelfScrape(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := c.NewSelfScraper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.Run(ctx, interval)
	}()
	return func() {
		cancel()
		<-done
	}
}
