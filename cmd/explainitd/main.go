// Command explainitd is the analysis daemon. It serves the versioned
// /api/v1 HTTP API over one time series store: batched ingest
// (POST /api/v1/put), family builds, EXPLAIN rankings, SQL queries,
// iterative investigation sessions with asynchronous step jobs and SSE
// streams of partial rankings, standing watches, /api/v1/stats and a
// Prometheus /metrics endpoint.
//
//	explainitd -http 127.0.0.1:9101
//
// Without -data-dir the store lives in memory. With -data-dir it is
// durable (hash-sharded, one WAL + block dir per shard; -shards picks the
// count at creation) and crash-recovered on start:
//
//	explainitd -http :9101 -data-dir /var/lib/explainit -shards 4
//
// SIGINT/SIGTERM trigger a graceful shutdown: the HTTP server drains,
// running step jobs are cancelled, self-scrape stops and the WALs are
// flushed into chunks; the exit status is 0. If the HTTP address cannot be
// bound, or the server fails, the store is closed and the exit status is 1.
//
// The daemon can observe itself: -self-scrape=10s snapshots the in-process
// metrics registry every interval and writes the explainit_* series into
// the serving store, so "EXPLAIN explainit_request_latency_ms GIVEN
// explainit_cache_hit_ratio" runs the engine over the engine's own
// telemetry. -slow-query-log appends one JSON line per request slower than
// -slow-query-threshold, each with a stage-level span breakdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"explainit"
	"explainit/internal/apihttp"
	"explainit/internal/buildinfo"
	"explainit/internal/obs"
)

func main() { os.Exit(run()) }

// run serves until a signal or a server failure and returns the exit
// status: 0 after a graceful shutdown, 1 on any error.
func run() (status int) {
	httpAddr := flag.String("http", "127.0.0.1:9101", "address to serve the /api/v1 HTTP API on")
	dataDir := flag.String("data-dir", "", "durable local store directory (per-shard WAL + compressed chunks; empty = in-memory store)")
	shards := flag.Int("shards", 0, "shard count for the store (0 = default; an existing -data-dir keeps its creation-time count)")
	selfScrape := flag.Duration("self-scrape", 0, "interval to scrape the daemon's own metrics into the serving store as explainit_* series (0 = disabled)")
	slowLogPath := flag.String("slow-query-log", "", "file to append one JSON line per slow request to (empty = disabled)")
	slowThreshold := flag.Duration("slow-query-threshold", 500*time.Millisecond, "requests slower than this are recorded in -slow-query-log")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("explainitd %s (commit %s)\n", buildinfo.Version, buildinfo.Commit)
		return 0
	}

	// Bind before opening the store, so a taken address fails fast without
	// recovering (or touching) a data dir.
	l, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fail(err)
	}

	var client *explainit.Client
	if *dataDir == "" {
		client = explainit.New()
	} else {
		if client, err = explainit.OpenShards(*dataDir, *shards); err != nil {
			return fail(fmt.Errorf("opening data dir: %w", err))
		}
		fmt.Fprintf(os.Stderr, "explainitd: recovered %d series from %s\n", client.NumSeries(), *dataDir)
	}
	defer func() {
		if err := client.Close(); err != nil {
			status = fail(fmt.Errorf("closing store: %w", err))
		}
	}()

	api := apihttp.NewServer(client)
	if *slowLogPath != "" {
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(fmt.Errorf("opening slow-query log: %w", err))
		}
		defer f.Close()
		api.SetSlowLog(obs.NewSlowLog(f, *slowThreshold))
		fmt.Fprintf(os.Stderr, "explainitd: logging requests slower than %v to %s\n", *slowThreshold, *slowLogPath)
	}

	if *selfScrape > 0 {
		// Deferred after the store's Close, so it stops first: the last
		// partial interval is dropped, not half-written.
		defer client.StartSelfScrape(*selfScrape)()
		fmt.Fprintf(os.Stderr, "explainitd: self-scraping metrics into the store every %v\n", *selfScrape)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	srv := &http.Server{Handler: api}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	fmt.Fprintf(os.Stderr, "explainitd: serving /api/v1 on http://%s\n", l.Addr())

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "explainitd: %v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			// Not drained in time; api.Close below still cancels running jobs.
			fmt.Fprintln(os.Stderr, "explainitd: http shutdown:", err)
		}
		cancel()
	case err := <-serveErr:
		// Serve returns before Shutdown only when the listener fails.
		status = fail(fmt.Errorf("http: %w", err))
	}
	api.Close() // cancel running step jobs; their scoring workers unwind
	return status
}

// fail reports err and returns the failure exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "explainitd:", err)
	return 1
}
