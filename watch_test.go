package explainit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"explainit/internal/obs"
	"explainit/internal/simulator"
)

// Standing-query acceptance suite. The two load-bearing invariants:
//
//  1. A watcher's emitted ranking is bitwise identical to a fresh EXPLAIN
//     of the same statement over the same registry, at every shard and
//     worker count — the watch path is the ad-hoc path, not a parallel
//     implementation that can drift.
//  2. A tick before the next family rebuild performs no engine work at
//     all, asserted through the subsystem's obs counters.

// watchCadence is long enough that the timer never fires during a test:
// after the immediate first tick, every round is driven deterministically
// through the monitor watcher's Tick.
const watchCadence = time.Hour

// watchCounters snapshots the explainit_watch_* counters that prove (or
// disprove) engine work.
type watchCounters struct{ ticks, skips, evals, emits, unchanged uint64 }

func snapshotWatchCounters() watchCounters {
	r := obs.Default()
	return watchCounters{
		ticks:     r.Counter("explainit_watch_ticks_total").Value(),
		skips:     r.Counter("explainit_watch_ticks_skipped_total").Value(),
		evals:     r.Counter("explainit_watch_evals_total").Value(),
		emits:     r.Counter("explainit_watch_emits_total").Value(),
		unchanged: r.Counter("explainit_watch_unchanged_total").Value(),
	}
}

func waitUpdate(t *testing.T, ch <-chan RankingUpdate) RankingUpdate {
	t.Helper()
	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("update channel closed")
		}
		return u
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for a ranking update")
	}
	return RankingUpdate{}
}

func expectNoUpdate(t *testing.T, ch <-chan RankingUpdate) {
	t.Helper()
	select {
	case u := <-ch:
		t.Fatalf("unexpected update: %+v", u)
	case <-time.After(50 * time.Millisecond):
	}
}

// tickWatcher drives one deterministic re-evaluation round.
func tickWatcher(t *testing.T, c *Client, id string) {
	t.Helper()
	w, ok := c.watchManager().Get(id)
	if !ok {
		t.Fatalf("watcher %q not registered", id)
	}
	w.Tick(context.Background())
}

func assertUpdateBitwiseEqual(t *testing.T, u RankingUpdate, ranking *Ranking, label string) {
	t.Helper()
	if len(u.Rows) != len(ranking.Rows) {
		t.Fatalf("%s: watch %d rows, fresh %d", label, len(u.Rows), len(ranking.Rows))
	}
	for i, row := range ranking.Rows {
		got := u.Rows[i]
		if got.Rank != row.Rank || got.Family != row.Family || got.Features != row.Features || got.Viz != row.Viz {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, got, row)
		}
		if math.Float64bits(got.Score) != math.Float64bits(row.Score) {
			t.Fatalf("%s: row %d score bits differ: %v vs %v", label, i, got.Score, row.Score)
		}
		if math.Float64bits(got.PValue) != math.Float64bits(row.PValue) {
			t.Fatalf("%s: row %d p-value bits differ: %v vs %v", label, i, got.PValue, row.PValue)
		}
	}
}

// TestWatchBitwiseIdentityAcrossShardsAndWorkers pins invariant (1) over a
// sharded durable store: the watcher's first emitted ranking equals a
// fresh EXPLAIN — via ExplainContext at worker counts 0/1/3 — bit for bit,
// at shard counts 1, 4 and 7.
func TestWatchBitwiseIdentityAcrossShardsAndWorkers(t *testing.T) {
	sc := simulator.CaseStudyPacketDrop(e2eConfig())
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := OpenShards(t.TempDir(), shards)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			var batch []Observation
			for _, s := range sc.Series {
				for _, smp := range s.Samples {
					batch = append(batch, Observation{Metric: s.Name, Tags: Tags(s.Tags), At: smp.TS, Value: smp.Value})
				}
			}
			if err := c.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := c.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
				t.Fatal(err)
			}

			info, err := c.CreateWatch(fmt.Sprintf("EXPLAIN %s EVERY '1h' LIMIT 20", sc.Target), "")
			if err != nil {
				t.Fatal(err)
			}
			ch, unsub, err := c.WatchSubscribe(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer unsub()
			u := waitUpdate(t, ch)
			if u.Reason != "initial" || u.Err != nil {
				t.Fatalf("first update: %+v", u)
			}

			for _, workers := range []int{0, 1, 3} {
				fresh, err := c.ExplainContext(context.Background(), ExplainOptions{
					Target: sc.Target, TopK: 20, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertUpdateBitwiseEqual(t, u, fresh, fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// TestWatchNoRebuildDoesNoEngineWork pins invariant (2): between two
// ticks with no family rebuild, the evals counter does not move — only the
// skip counter does, however much was ingested meanwhile, and the ranking
// the watcher last emitted still equals an uncached recompute. A rebuild
// re-enables evaluation; an evaluation whose ranking moved emits.
func TestWatchNoRebuildDoesNoEngineWork(t *testing.T) {
	c := New()
	defer c.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("latency", nil, at, 5+rng.NormFloat64())
		c.Put("load", nil, at, 2+rng.NormFloat64())
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}

	info, err := c.CreateWatch("EXPLAIN latency EVERY '1h'", "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := c.WatchSubscribe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	initial := waitUpdate(t, ch) // initial evaluation done

	// Quiescent store: two ticks, zero engine work.
	before := snapshotWatchCounters()
	tickWatcher(t, c, info.ID)
	tickWatcher(t, c, info.ID)
	after := snapshotWatchCounters()
	if d := after.evals - before.evals; d != 0 {
		t.Fatalf("no-advance ticks ran %v evaluations", d)
	}
	if d := after.skips - before.skips; d != 2 {
		t.Fatalf("skipped ticks counted %v, want 2", d)
	}
	wi, err := c.WatchInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Skips < 2 || wi.Evals != 1 {
		t.Fatalf("per-watcher counters: %+v", wi)
	}

	// Ingest moves the shard watermarks but not the registry: families were
	// not rebuilt, so the matrices — and the ranking — are unchanged, and
	// the tick skips without evaluating or emitting.
	c.Put("latency", nil, to.Add(time.Minute), 5)
	before = snapshotWatchCounters()
	tickWatcher(t, c, info.ID)
	after = snapshotWatchCounters()
	if d := after.evals - before.evals; d != 0 {
		t.Fatalf("ingest-only tick ran %v evaluations, want 0", d)
	}
	if d := after.skips - before.skips; d != 1 {
		t.Fatalf("ingest-only tick skips %v, want 1", d)
	}
	expectNoUpdate(t, ch)
	c.SetRankingCacheCapacity(0)
	recomputed, err := c.ExplainContext(context.Background(), ExplainOptions{Target: "latency", TopK: len(c.reg.Load().byName)})
	if err != nil {
		t.Fatal(err)
	}
	assertUpdateBitwiseEqual(t, initial, recomputed, "after ingest")
	c.SetRankingCacheCapacity(defaultRankingCacheCap)

	// A substantial regime change plus a family rebuild: the rebuild bumps
	// the registry generation, and the grown window's ranking moves well
	// beyond epsilon, so this tick evaluates AND emits.
	for i := 0; i < 300; i++ {
		at := to.Add(time.Duration(i+2) * time.Minute)
		v := 2 + rng.NormFloat64()
		c.Put("load", nil, at, v)
		c.Put("latency", nil, at, 5+3*v+0.3*rng.NormFloat64())
	}
	_, to2, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to2, time.Minute); err != nil {
		t.Fatal(err)
	}
	before = snapshotWatchCounters()
	tickWatcher(t, c, info.ID)
	after = snapshotWatchCounters()
	if d := after.evals - before.evals; d != 1 {
		t.Fatalf("rebuild-advanced tick ran %v evaluations, want 1", d)
	}
	u := waitUpdate(t, ch)
	if u.Seq != 2 || u.Err != nil {
		t.Fatalf("post-rebuild update: %+v", u)
	}

	// And the emitted ranking is still the fresh ranking, bit for bit.
	fresh, err := c.ExplainContext(context.Background(), ExplainOptions{Target: "latency", TopK: len(c.reg.Load().byName)})
	if err != nil {
		t.Fatal(err)
	}
	assertUpdateBitwiseEqual(t, u, fresh, "post-rebuild")
}

// TestWatchOnAnomaly drives the anomaly-gated mode end to end: a quiet
// target never evaluates; once an anomalous window lands, the watcher
// EXPLAINs it, auto-opens an investigation whose id rides the update, and
// the fired window becomes the explained range.
func TestWatchOnAnomaly(t *testing.T) {
	c := New()
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	n := 400
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("runtime", nil, at, 10+0.5*rng.NormFloat64())
		c.Put("queue_depth", nil, at, 3+0.5*rng.NormFloat64())
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}

	info, err := c.CreateWatch("EXPLAIN runtime EVERY '1h' ON ANOMALY", "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := c.WatchSubscribe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	// The immediate first tick scans a quiet target: no EXPLAIN, no update.
	// (Wait for the tick by polling the per-watcher counter.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		wi, err := c.WatchInfo(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Ticks >= 1 {
			if wi.Evals != 0 {
				t.Fatalf("quiet target evaluated: %+v", wi)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first tick never ran")
		}
		time.Sleep(time.Millisecond)
	}
	expectNoUpdate(t, ch)

	// Incident: a level shift in the target, correlated with queue_depth.
	for i := n; i < n+60; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("runtime", nil, at, 40+0.5*rng.NormFloat64())
		c.Put("queue_depth", nil, at, 30+0.5*rng.NormFloat64())
	}
	from, to, _ = c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	tickWatcher(t, c, info.ID)
	u := waitUpdate(t, ch)
	if u.Err != nil {
		t.Fatalf("anomaly update errored: %v", u.Err)
	}
	if u.AnomalyFrom.IsZero() || !u.AnomalyTo.After(u.AnomalyFrom) || u.AnomalySeverity <= 3 {
		t.Fatalf("anomaly window missing from update: %+v", u)
	}
	if u.AnomalyFrom.Before(t0.Add(time.Duration(n-30) * time.Minute)) {
		t.Fatalf("window %v..%v does not cover the incident", u.AnomalyFrom, u.AnomalyTo)
	}
	if u.Investigation == "" {
		t.Fatal("anomaly update carries no investigation id")
	}
	inv, err := c.WatchInvestigation(u.Investigation)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Target() != "runtime" {
		t.Fatalf("investigation target %q", inv.Target())
	}
	if len(u.Rows) == 0 || u.Rows[0].Family != "queue_depth" {
		t.Fatalf("incident ranking: %+v", u.Rows)
	}

	// The emitted ranking equals a fresh EXPLAIN over the fired window.
	fresh, err := c.ExplainContext(context.Background(), ExplainOptions{
		Target: "runtime", TopK: len(c.reg.Load().byName),
		ExplainFrom: u.AnomalyFrom, ExplainTo: u.AnomalyTo,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertUpdateBitwiseEqual(t, u, fresh, "anomaly window")

	// Cancelling the watcher releases the auto-opened session.
	if err := c.CancelWatch(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchInvestigation(u.Investigation); !errors.Is(err, ErrUnknownInvestigation) {
		t.Fatalf("investigation survived watcher cancellation: %v", err)
	}
}

// TestWatchFacadeLifecycle covers the ctx-scoped Watch helper and the
// explicit registry API: listings, stats, cancellation, rejections.
func TestWatchFacadeLifecycle(t *testing.T) {
	c := New()
	defer c.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("a", nil, at, rng.NormFloat64())
		c.Put("b", nil, at, rng.NormFloat64())
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Rejections: non-standing statements cannot be watched, standing ones
	// cannot run through the one-shot paths.
	if _, err := c.Watch(context.Background(), "EXPLAIN a"); !errors.Is(err, ErrBadSQL) {
		t.Fatalf("one-shot EXPLAIN watched: %v", err)
	}
	if _, err := c.Watch(context.Background(), "SELECT 1"); !errors.Is(err, ErrBadSQL) {
		t.Fatalf("SELECT watched: %v", err)
	}
	if _, err := c.Query(context.Background(), "EXPLAIN a EVERY '30s'"); !errors.Is(err, ErrBadSQL) {
		t.Fatalf("standing query ran through Query: %v", err)
	}
	if _, err := c.QueryStream(context.Background(), "EXPLAIN a EVERY '30s'"); !errors.Is(err, ErrBadSQL) {
		t.Fatalf("standing query ran through QueryStream: %v", err)
	}
	if err := c.CancelWatch("nope"); !errors.Is(err, ErrUnknownWatch) {
		t.Fatalf("unknown cancel: %v", err)
	}
	if _, _, err := c.WatchSubscribe("nope"); !errors.Is(err, ErrUnknownWatch) {
		t.Fatalf("unknown subscribe: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ch, err := c.Watch(ctx, "EXPLAIN a EVERY '1h' LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	u := waitUpdate(t, ch)
	if u.Reason != "initial" || len(u.Rows) == 0 {
		t.Fatalf("first update: %+v", u)
	}

	infos := c.WatchInfos()
	if len(infos) != 1 || infos[0].SQL != "EXPLAIN a EVERY '1h' LIMIT 5" || infos[0].Every != "1h0m0s" {
		t.Fatalf("listing: %+v", infos)
	}
	if infos[0].LastEmit.IsZero() {
		t.Fatal("listing is missing the last-emit timestamp")
	}
	if s := c.WatchStats(); s.Active != 1 || s.Total != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// Cancelling the context tears the watcher down and closes the channel.
	cancel()
	deadline := time.After(30 * time.Second)
	for done := false; !done; {
		select {
		case _, ok := <-ch:
			if !ok {
				done = true
			}
		case <-deadline:
			t.Fatal("channel not closed after ctx cancel")
		}
	}
	if s := c.WatchStats(); s.Active != 0 || s.Total != 1 {
		t.Fatalf("stats after cancel: %+v", s)
	}

	// Tenant accounting + shed bookkeeping for the serving layer.
	if _, err := c.CreateWatch("EXPLAIN b EVERY '1h'", "team-a"); err != nil {
		t.Fatal(err)
	}
	if n := c.WatchTenantCount("team-a"); n != 1 {
		t.Fatalf("tenant count %d", n)
	}
	c.NoteWatchShed()
	if s := c.WatchStats(); s.Shed != 1 {
		t.Fatalf("shed not counted: %+v", s)
	}

	// Client.Close tears the subsystem down.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWatch("EXPLAIN a EVERY '1h'", ""); err == nil {
		t.Fatal("CreateWatch succeeded after Close")
	}
}

// TestWatchSharesRankingCache: the watcher's evaluation goes through the
// ranking cache exactly like an ad-hoc EXPLAIN, so a fresh EXPLAIN
// right after the initial tick is a cache hit, not a recompute.
func TestWatchSharesRankingCache(t *testing.T) {
	c := New()
	defer c.Close()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		c.Put("x", nil, at, rng.NormFloat64())
		c.Put("y", nil, at, 0.9*rng.NormFloat64())
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}

	info, err := c.CreateWatch("EXPLAIN x EVERY '1h'", "")
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := c.WatchSubscribe(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	waitUpdate(t, ch)

	before := c.RankingCacheStats()
	// Same statement, one-shot: TopK normalisation means the cache key
	// matches the watcher's evaluation.
	if _, err := c.Query(context.Background(), "EXPLAIN x"); err != nil {
		t.Fatal(err)
	}
	after := c.RankingCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("fresh EXPLAIN after watch tick missed the cache: %+v -> %+v", before, after)
	}
}
