// Selfrca demonstrates the dogfooding loop: the client serves an EXPLAIN
// workload while scraping its own metrics registry into the store it
// serves from, a regression is induced mid-run (the ranking cache is
// switched off, so every request pays a full engine ranking), and then
// the engine is pointed at its own telemetry —
//
//	EXPLAIN explainit_request_latency_ms
//
// ranks the correlated cache and engine counters as the cause of the
// latency step. The scrape
// clock here is synthetic (ScrapeOnce with minute-apart stamps) so the
// example runs in milliseconds; explainitd -self-scrape=10s does the
// same thing on a real clock.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"time"

	"explainit"
)

func main() {
	ctx := context.Background()
	c := explainit.New()
	start := seedTelemetry(c)
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		log.Fatal(err)
	}

	// The scraper converts registry snapshots into explainit_* series and
	// writes them through the client's ordinary PutBatch — the telemetry
	// is just more data. Stamp scrapes a minute apart, well after the
	// seeded incident so the two windows don't overlap.
	sc := c.NewSelfScraper()
	scrapeT0 := start.Add(30 * 24 * time.Hour)
	interval := time.Minute
	tick := 0
	scrape := func() {
		if err := sc.ScrapeOnce(scrapeT0.Add(time.Duration(tick) * interval)); err != nil {
			log.Fatal(err)
		}
		tick++
	}
	scrape() // baseline: primes counter deltas, writes nothing

	// One "interval" of serving: five identical EXPLAINs. While the cache
	// is healthy they hit in microseconds: a scrape's PutBatch adds series
	// to the store but leaves the family registry — the one key of the
	// ranking cache — as it was, so only the very first request computes.
	serve := func() {
		for i := 0; i < 5; i++ {
			if _, err := c.Explain(explainit.ExplainOptions{Target: "pipeline_runtime", Seed: 1}); err != nil {
				log.Fatal(err)
			}
		}
	}

	const phase = 12
	fmt.Printf("serving %d healthy intervals (ranking cache on)...\n", phase)
	for i := 0; i < phase; i++ {
		serve()
		scrape()
	}
	cs := c.RankingCacheStats()
	fmt.Printf("  cache after healthy phase: %d hits / %d misses\n", cs.Hits, cs.Misses)

	fmt.Printf("disabling the ranking cache and serving %d degraded intervals...\n", phase)
	c.SetRankingCacheCapacity(0)
	for i := 0; i < phase; i++ {
		serve()
		scrape()
	}

	// Turn the scraped telemetry into feature families and let the engine
	// explain its own latency.
	infos, err := c.BuildFamilies("name", scrapeT0, scrapeT0.Add(time.Duration(tick)*interval), interval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nself-scraped the registry into %d feature families, e.g.:\n", len(infos))
	for _, fi := range infos {
		if strings.Contains(fi.Name, "latency") || strings.Contains(fi.Name, "cache") {
			fmt.Printf("  %-42s %d rows\n", fi.Name, fi.Rows)
		}
	}

	ranking, err := c.Query(ctx, `EXPLAIN explainit_request_latency_ms LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEXPLAIN explainit_request_latency_ms:")
	for _, row := range ranking.Rows {
		fmt.Printf("  %2.0f. %-42v score %.3f\n", row[0], row[1], row[3])
	}
	fmt.Println("\nengine and cache counters dominate the ranking: the latency step")
	fmt.Println("coincides with full rankings replacing cache hits — a cache outage.")
}

// seedTelemetry writes a small customer-side incident (the same shape the
// other examples use) so the served EXPLAIN workload has something real to
// rank; the self-RCA above is about the serving of these queries, not
// their answer.
func seedTelemetry(c *explainit.Client) time.Time {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const n = 480
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * time.Minute)
		input := 500 + 100*math.Sin(2*math.Pi*float64(i)/480) + 20*rng.NormFloat64()
		retrans := 0.0
		if i >= 300 && i < 400 {
			retrans = 25
		}
		c.Put("pipeline_input_rate", explainit.Tags{"pipeline": "p0"}, at, input)
		c.Put("tcp_retransmits", explainit.Tags{"host": "db-1"}, at, 2+retrans+rng.NormFloat64())
		c.Put("pipeline_runtime", explainit.Tags{"pipeline": "p0"}, at,
			0.05*input+0.8*retrans+2*rng.NormFloat64())
		for _, m := range []string{"disk_io", "gc_pause", "net_in"} {
			c.Put(m, explainit.Tags{"host": "web-1"}, at, 10*rng.NormFloat64())
		}
	}
	return start
}
