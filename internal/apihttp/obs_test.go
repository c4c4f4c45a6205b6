package apihttp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"explainit"
	"explainit/internal/obs"
)

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := seedServer(t, 120, 2, 1)

	// Drive one request through an instrumented route so its family exists.
	if w := doJSON(t, srv, http.MethodGet, "/api/v1/families", nil); w.Code != http.StatusOK {
		t.Fatalf("families: %d", w.Code)
	}

	w := doJSON(t, srv, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE explainit_http_requests_total counter",
		`explainit_http_requests_total{route="/api/v1/families"}`,
		"# TYPE explainit_http_request_ms histogram",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Every non-comment line is `name{labels} value` or `name value` with a
	// parseable float — the grammar an external Prometheus scrape needs.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		var f float64
		if _, err := json.Number(line[i+1:]).Float64(); err != nil {
			// +Inf never appears as a sample value, only as a label.
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		_ = f
	}

	if w := doJSON(t, srv, http.MethodPost, "/metrics", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d", w.Code)
	}
}

func TestExplainTraceEnvelope(t *testing.T) {
	srv, _ := seedServer(t, 240, 4, 1)

	w := doJSON(t, srv, http.MethodPost, "/api/v1/explain?trace=1", explainRequest{Target: "pipeline_runtime", Seed: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
	var traced rankingPayload
	decodeBody(t, w, &traced)
	if len(traced.Trace) == 0 {
		t.Fatalf("?trace=1 returned no span tree: %s", w.Body.String())
	}
	names := map[string]bool{}
	var walk func(ns []*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			names[n.Name] = true
			if n.DurationMs < 0 {
				t.Fatalf("span %q has negative duration", n.Name)
			}
			walk(n.Children)
		}
	}
	walk(traced.Trace)
	for _, want := range []string{"cache_probe", "plan", "rank"} {
		if !names[want] {
			t.Fatalf("trace missing %q span; got %v", want, names)
		}
	}

	// Untraced requests carry no span tree.
	w = doJSON(t, srv, http.MethodPost, "/api/v1/explain", explainRequest{Target: "pipeline_runtime", Seed: 1})
	var plain rankingPayload
	decodeBody(t, w, &plain)
	if plain.Trace != nil {
		t.Fatalf("untraced request has spans: %+v", plain.Trace)
	}
}

func TestQueryTraceEnvelope(t *testing.T) {
	srv, _ := seedServer(t, 240, 4, 1)

	w := doJSON(t, srv, http.MethodPost, "/api/v1/query?trace=1",
		queryRequest{SQL: "EXPLAIN pipeline_runtime LIMIT 3"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var out queryPayload
	decodeBody(t, w, &out)
	if len(out.Rows) != 3 {
		t.Fatalf("rows %d", len(out.Rows))
	}
	if len(out.Trace) == 0 {
		t.Fatal("?trace=1 returned no span tree for SQL query")
	}
	var sawParse bool
	for _, n := range out.Trace {
		if n.Name == "parse" {
			sawParse = true
		}
	}
	if !sawParse {
		t.Fatalf("query trace missing parse span: %+v", out.Trace)
	}
}

func TestSlowQueryLog(t *testing.T) {
	srv, _ := seedServer(t, 240, 4, 1)
	var buf bytes.Buffer
	srv.SetSlowLog(obs.NewSlowLog(&buf, time.Nanosecond)) // everything is slow

	w := doJSON(t, srv, http.MethodPost, "/api/v1/explain", explainRequest{Target: "pipeline_runtime", Seed: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}
	w = doJSON(t, srv, http.MethodPost, "/api/v1/query", queryRequest{SQL: "SELECT metric_name FROM tsdb LIMIT 1"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines:\n%s", len(lines), buf.String())
	}
	var first obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v in %q", err, lines[0])
	}
	if first.Kind != "explain" || first.Query != "pipeline_runtime" || first.ElapsedMs <= 0 {
		t.Fatalf("entry %+v", first)
	}
	// The slow log attaches a tracer even though the client sent no
	// ?trace=1, so the entry carries the span breakdown.
	if len(first.Spans) == 0 {
		t.Fatalf("slow entry has no spans: %s", lines[0])
	}
	var second obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Kind != "query" || !strings.HasPrefix(second.Query, "SELECT") {
		t.Fatalf("entry %+v", second)
	}

	// ...but the response envelope stays clean: no trace leaked to clients
	// that didn't ask.
	var payload rankingPayload
	w = doJSON(t, srv, http.MethodPost, "/api/v1/explain", explainRequest{Target: "pipeline_runtime", Seed: 1})
	decodeBody(t, w, &payload)
	if payload.Trace != nil {
		t.Fatalf("slow-log tracer leaked into envelope: %+v", payload.Trace)
	}
}

func TestStatsReportBuildInfo(t *testing.T) {
	srv, _ := seedServer(t, 60, 1, 1)
	for _, path := range []string{"/api/stats", "/api/v1/stats"} {
		w := doJSON(t, srv, http.MethodGet, path, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, w.Code)
		}
		var stats statsPayload
		decodeBody(t, w, &stats)
		if stats.UptimeSeconds <= 0 {
			t.Fatalf("%s uptime %v", path, stats.UptimeSeconds)
		}
		if stats.Version == "" {
			t.Fatalf("%s version empty", path)
		}
		if stats.GoMaxProcs < 1 {
			t.Fatalf("%s go_maxprocs %d", path, stats.GoMaxProcs)
		}
		if stats.Families == 0 {
			t.Fatalf("%s families 0", path)
		}
	}
}

// readKeepalives reads n ": keepalive" frames — a comment line plus a
// blank line, which SSE clients must discard — failing on any other frame:
// the stream is idle while they arrive.
func readKeepalives(t *testing.T, rd *bufio.Reader, n int) {
	t.Helper()
	for got := 0; got < n; {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d keepalives: %v", got, err)
		}
		switch line = strings.TrimRight(line, "\n"); line {
		case ": keepalive":
			got++
		case "":
		default:
			t.Fatalf("idle stream carried %q", line)
		}
	}
}

// TestSSEKeepalive pins the keepalive frame format on an idle job stream,
// and checks that keepalive frames ahead of the rows don't corrupt the row
// replay: the stream still delivers every row exactly once and the
// terminal event parses. The job runs over a test-owned update channel
// that stays idle until two keepalives were read, so the check does not
// depend on how long a ranking takes.
func TestSSEKeepalive(t *testing.T) {
	srv := NewServerWithLimits(explainit.New(), Limits{SSEKeepalive: 10 * time.Millisecond})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	updates := make(chan explainit.RankUpdate)
	j := srv.launchJob("", func() {}, nil, updates)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	readKeepalives(t, rd, 2)

	want := &explainit.Ranking{}
	for i := range 5 {
		want.Rows = append(want.Rows, explainit.RankedFamily{Rank: i + 1, Family: fmt.Sprintf("f%d", i), Features: 1, Score: 1 / float64(i+1)})
	}
	for i, row := range want.Rows {
		row.Rank = 0
		updates <- explainit.RankUpdate{Row: &row, Scored: i + 1, Total: len(want.Rows)}
	}
	updates <- explainit.RankUpdate{Final: want, Scored: len(want.Rows), Total: len(want.Rows)}
	close(updates)

	var rows int
	var final *rankingPayload
	var event string
	var data []byte
	for final == nil {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v (rows %d)", err, rows)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == ": keepalive":
		case strings.HasPrefix(line, ": "):
			t.Fatalf("unexpected comment frame %q", line)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			switch event {
			case "":
				// Blank line terminating a keepalive comment frame.
			case "row":
				rows++
			case "done":
				var r rankingPayload
				if err := json.Unmarshal(data, &r); err != nil {
					t.Fatalf("done payload: %v", err)
				}
				final = &r
			default:
				t.Fatalf("unexpected event %q: %s", event, data)
			}
			event, data = "", nil
		default:
			t.Fatalf("unparseable SSE line %q", line)
		}
	}
	if rows != len(want.Rows) || len(final.Rows) != len(want.Rows) {
		t.Fatalf("rows %d final %+v, want %d", rows, final, len(want.Rows))
	}

	// High-watermark replay integrity: a late subscriber gets exactly the
	// same rows, keepalives notwithstanding.
	w := doJSON(t, srv, http.MethodGet, "/api/v1/jobs/"+j.id, nil)
	var done jobPayload
	decodeBody(t, w, &done)
	if done.Scored != rows {
		t.Fatalf("streamed %d rows, job scored %d", rows, done.Scored)
	}
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rd2 := bufio.NewReader(resp2.Body)
	var replayRows int
	for {
		name, _, err := readSSE(rd2)
		if err != nil {
			t.Fatalf("replay ended early: %v", err)
		}
		if name == "row" {
			replayRows++
			continue
		}
		if name == "done" {
			break
		}
	}
	if replayRows != rows {
		t.Fatalf("replay %d rows, live %d", replayRows, rows)
	}
}

// TestObsStress hammers /metrics, /api/stats, and concurrent traced
// EXPLAINs from many goroutines — the observability paths must be
// race-free (run with -race), counters must be monotone under concurrent
// scrapes, and the server must not leak goroutines once the load drains.
func TestObsStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := seedServer(t, 240, 4, 1)
	var logBuf bytes.Buffer
	srv.SetSlowLog(obs.NewSlowLog(&logBuf, time.Nanosecond))

	const workers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan string, workers)

	// Counter monotonicity, sampled concurrently with the writers.
	prev := map[string]float64{}
	sample := func() {
		for _, p := range obs.Default().Snapshot() {
			if p.Kind != obs.KindCounter {
				continue
			}
			id := p.ID()
			if p.Value < prev[id] {
				errCh <- "counter " + id + " went backwards"
				return
			}
			prev[id] = p.Value
		}
	}

	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				switch i % 4 {
				case 0:
					if w := doJSON(t, srv, http.MethodGet, "/metrics", nil); w.Code != http.StatusOK {
						errCh <- "metrics status"
						return
					}
				case 1:
					if w := doJSON(t, srv, http.MethodGet, "/api/stats", nil); w.Code != http.StatusOK {
						errCh <- "stats status"
						return
					}
				case 2:
					w := doJSON(t, srv, http.MethodPost, "/api/v1/explain?trace=1",
						explainRequest{Target: "pipeline_runtime", Seed: 1})
					// Overload shedding is a legitimate outcome under stress.
					if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
						errCh <- "explain status " + w.Body.String()
						return
					}
				case 3:
					w := doJSON(t, srv, http.MethodPost, "/api/v1/query",
						queryRequest{SQL: "EXPLAIN pipeline_runtime LIMIT 2"})
					if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
						errCh <- "query status " + w.Body.String()
						return
					}
				}
			}
		}()
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(errCh) == 0 {
		sample()
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	sample()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}

	// Drain: after the server closes, goroutine count returns to near the
	// baseline (poll — worker teardown is asynchronous).
	srv.Close()
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
