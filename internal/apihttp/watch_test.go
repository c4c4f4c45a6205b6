package apihttp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"explainit"
)

// waitWatchEmit polls the watch info endpoint until the watcher has
// emitted at least once (the immediate first tick completed).
func waitWatchEmit(t *testing.T, srv *Server, id string) explainit.WatchInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := doJSON(t, srv, http.MethodGet, "/api/v1/watch/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("watch info: %d %s", w.Code, w.Body.String())
		}
		var info explainit.WatchInfo
		decodeBody(t, w, &info)
		if info.Emits >= 1 {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher %s never emitted: %+v", id, info)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchEndpointLifecycle(t *testing.T) {
	srv, c := seedServerWithLimits(t, Limits{SessionTTL: -1})
	t.Cleanup(c.CloseWatches)

	// Bad statements are typed 400s.
	w := doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target"})
	if w.Code != http.StatusBadRequest || envelopeOf(t, w).Code != "bad_sql" {
		t.Fatalf("non-standing statement: %d %s", w.Code, w.Body.String())
	}
	w = doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "SELECT 1 EVERY"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage statement: %d", w.Code)
	}

	// Create, then read it back through the listing and the id route.
	w = doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target EVERY '1h' LIMIT 5"})
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body.String())
	}
	var info explainit.WatchInfo
	decodeBody(t, w, &info)
	if info.ID == "" || info.Every != "1h0m0s" {
		t.Fatalf("created info: %+v", info)
	}
	w = doJSON(t, srv, http.MethodGet, "/api/v1/watch", nil)
	var list []explainit.WatchInfo
	decodeBody(t, w, &list)
	if len(list) != 1 || list[0].ID != info.ID || list[0].SQL != "EXPLAIN target EVERY '1h' LIMIT 5" {
		t.Fatalf("listing: %+v", list)
	}

	// The stats payload surfaces watcher counts and per-watcher last-emit
	// timestamps once the first evaluation lands.
	waitWatchEmit(t, srv, info.ID)
	w = doJSON(t, srv, http.MethodGet, "/api/stats", nil)
	var stats statsPayload
	decodeBody(t, w, &stats)
	if stats.Watch.Active != 1 || stats.Watch.Total != 1 {
		t.Fatalf("stats watch counts: %+v", stats.Watch)
	}
	if len(stats.Watchers) != 1 || stats.Watchers[0].LastEmit.IsZero() {
		t.Fatalf("stats watchers: %+v", stats.Watchers)
	}
	if stats.Watchers[0].EvalWindow < 1 || stats.Watchers[0].AvgEvalMs <= 0 {
		t.Fatalf("rolling eval latency missing: %+v", stats.Watchers[0])
	}

	// DELETE cancels; the id then 404s with the typed code.
	w = doJSON(t, srv, http.MethodDelete, "/api/v1/watch/"+info.ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body.String())
	}
	w = doJSON(t, srv, http.MethodGet, "/api/v1/watch/"+info.ID, nil)
	if w.Code != http.StatusNotFound || envelopeOf(t, w).Code != "unknown_watch" {
		t.Fatalf("deleted watch: %d %s", w.Code, w.Body.String())
	}
	w = doJSON(t, srv, http.MethodGet, "/api/stats", nil)
	decodeBody(t, w, &stats)
	if stats.Watch.Active != 0 || stats.Watch.Total != 1 {
		t.Fatalf("stats after delete: %+v", stats.Watch)
	}
}

// TestWatchTenantQuota pins the watcher budget: a tenant at its limit is
// shed with the typed 429 (counted in stats), other tenants are not.
func TestWatchTenantQuota(t *testing.T) {
	srv, c := seedServerWithLimits(t, Limits{TenantWatchers: 1, SessionTTL: -1})
	t.Cleanup(c.CloseWatches)

	raw, err := json.Marshal(createWatchRequest{SQL: "EXPLAIN target EVERY '1h'"})
	if err != nil {
		t.Fatal(err)
	}
	post := func(tenant string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/watch", bytes.NewReader(raw))
		req.Header.Set(TenantHeader, tenant)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	if w := post("team-a"); w.Code != http.StatusCreated {
		t.Fatalf("first watcher: %d %s", w.Code, w.Body.String())
	}
	w := post("team-a")
	if w.Code != http.StatusTooManyRequests || envelopeOf(t, w).Code != "overloaded" {
		t.Fatalf("over-budget watcher: %d %s", w.Code, w.Body.String())
	}
	if w := post("team-b"); w.Code != http.StatusCreated {
		t.Fatalf("other tenant blocked: %d %s", w.Code, w.Body.String())
	}
	sw := doJSON(t, srv, http.MethodGet, "/api/stats", nil)
	var stats statsPayload
	decodeBody(t, sw, &stats)
	if stats.Watch.Active != 2 || stats.Watch.Shed != 1 {
		t.Fatalf("stats: %+v", stats.Watch)
	}
}

// TestWatchSSEDeliversUpdatesAndGone follows a watcher over SSE: the
// initial ranking replays to the late subscriber, and cancelling the
// watcher mid-stream (DELETE racing any in-flight tick) ends the stream
// with a "gone" event instead of hanging.
func TestWatchSSEDeliversUpdatesAndGone(t *testing.T) {
	srv, c := seedServerWithLimits(t, Limits{SessionTTL: -1})
	t.Cleanup(c.CloseWatches)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target EVERY '1h'"})
	var info explainit.WatchInfo
	decodeBody(t, w, &info)
	waitWatchEmit(t, srv, info.ID)

	resp, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
	rd := bufio.NewReader(resp.Body)
	name, data, err := readSSE(rd)
	if err != nil {
		t.Fatal(err)
	}
	if name != "update" {
		t.Fatalf("first event %q (%s)", name, data)
	}
	var ev watchEventPayload
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Watch != info.ID || ev.Reason != "initial" || len(ev.Rows) == 0 || ev.Rows[0].Family != "cause" {
		t.Fatalf("replayed update: %+v", ev)
	}

	// Cancel while the subscriber is live: the stream must terminate with
	// "gone".
	if dw := doJSON(t, srv, http.MethodDelete, "/api/v1/watch/"+info.ID, nil); dw.Code != http.StatusOK {
		t.Fatalf("delete: %d", dw.Code)
	}
	name, _, err = readSSE(rd)
	if err != nil {
		t.Fatal(err)
	}
	if name != "gone" {
		t.Fatalf("terminal event %q", name)
	}
}

// TestWatchSSEKeepalive: an idle watch stream — an EVERY '1h' watcher
// after its replayed update — carries keepalive frames and nothing else,
// and still ends with "gone" when the watcher is cancelled.
func TestWatchSSEKeepalive(t *testing.T) {
	srv, c := seedServerWithLimits(t, Limits{SessionTTL: -1, SSEKeepalive: 10 * time.Millisecond})
	t.Cleanup(c.CloseWatches)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target EVERY '1h'"})
	var info explainit.WatchInfo
	decodeBody(t, w, &info)
	waitWatchEmit(t, srv, info.ID)

	resp, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	if name, data, err := readSSE(rd); err != nil || name != "update" {
		t.Fatalf("first event %q (%s): %v", name, data, err)
	}
	readKeepalives(t, rd, 2)

	if dw := doJSON(t, srv, http.MethodDelete, "/api/v1/watch/"+info.ID, nil); dw.Code != http.StatusOK {
		t.Fatalf("delete: %d", dw.Code)
	}
	if name, _, err := readSSE(rd); err != nil || name != "gone" {
		t.Fatalf("terminal event %q: %v", name, err)
	}
}

// TestWatchSSEDisconnectLeavesWatcherRunning: unlike job streams, a watch
// subscriber hanging up must NOT cancel the standing query — and the
// detached subscriber's goroutines must drain.
func TestWatchSSEDisconnectLeavesWatcherRunning(t *testing.T) {
	srv, c := seedServerWithLimits(t, Limits{SessionTTL: -1})
	t.Cleanup(c.CloseWatches)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target EVERY '1h'"})
	var info explainit.WatchInfo
	decodeBody(t, w, &info)
	waitWatchEmit(t, srv, info.ID)
	baseline := runtime.NumGoroutine()

	resp, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSSE(bufio.NewReader(resp.Body)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // client hangs up

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after SSE disconnect: %d baseline, %d now",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The watcher survived the disconnect.
	if iw := doJSON(t, srv, http.MethodGet, "/api/v1/watch/"+info.ID, nil); iw.Code != http.StatusOK {
		t.Fatalf("watcher died with its subscriber: %d", iw.Code)
	}
}

// TestWatchSSESurvivesServerShutdown: closing the server with live watch
// SSE subscribers must end their streams promptly (baseCtx), and tearing
// the client down afterwards must stop every watcher without leaking.
func TestWatchSSEServerShutdown(t *testing.T) {
	c := explainit.New()
	for i := 0; i < 240; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("cause", nil, at, float64(i%13)*0.01)
		c.Put("target", nil, at, 10+float64(i%7)*0.01)
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithLimits(c, Limits{SessionTTL: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := doJSON(t, srv, http.MethodPost, "/api/v1/watch", createWatchRequest{SQL: "EXPLAIN target EVERY '1h'"})
	var info explainit.WatchInfo
	decodeBody(t, w, &info)
	waitWatchEmit(t, srv, info.ID)

	resp, err := http.Get(ts.URL + "/api/v1/watch/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	if _, _, err := readSSE(rd); err != nil {
		t.Fatal(err)
	}

	// Shut the server down under the live subscriber: the stream must end
	// (EOF) rather than hang until the watcher's next emit.
	_ = srv.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := readSSE(rd)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stream delivered an event after shutdown, want EOF")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream still open 10s after server shutdown")
	}

	// Client teardown stops the watchers themselves.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s := c.WatchStats(); s.Active != 0 {
		t.Fatalf("watchers alive after client close: %+v", s)
	}
}
