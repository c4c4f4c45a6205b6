package explainit

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
)

// sameRankingRows asserts a and b are bitwise-identical rankings, modulo
// the per-row wall-clock Elapsed when ignoreElapsed is set (a cache hit
// replays the original computation's Elapsed verbatim; an independent
// recomputation cannot).
func sameRankingRows(t *testing.T, a, b *Ranking, ignoreElapsed bool) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) || len(a.Skipped) != len(b.Skipped) {
		t.Fatalf("shape mismatch: %d/%d rows, %d/%d skipped",
			len(a.Rows), len(b.Rows), len(a.Skipped), len(b.Skipped))
	}
	for i := range a.Skipped {
		if a.Skipped[i] != b.Skipped[i] {
			t.Fatalf("skipped[%d]: %q vs %q", i, a.Skipped[i], b.Skipped[i])
		}
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ignoreElapsed {
			ra.Elapsed, rb.Elapsed = 0, 0
		}
		if ra != rb {
			t.Fatalf("row %d: %+v vs %+v", i, ra, rb)
		}
	}
}

// cacheClient seeds a client and builds families, returning it with the
// standard explain options the cache tests share.
func cacheClient(t *testing.T) (*Client, ExplainOptions) {
	t.Helper()
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	return c, ExplainOptions{Target: "pipeline_runtime", Seed: 1}
}

// TestRepeatExplainCacheBitwise: a repeat EXPLAIN over unchanged data is a
// cache hit and bitwise-identical both to its own first run and to what an
// uncached client computes.
func TestRepeatExplainCacheBitwise(t *testing.T) {
	c, opts := cacheClient(t)
	first, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after repeat: %+v", st)
	}
	sameRankingRows(t, first, again, false) // replay includes Elapsed verbatim

	// An uncached client over the same data computes the same table.
	un, unOpts := cacheClient(t)
	un.SetRankingCacheCapacity(0)
	fresh, err := un.Explain(unOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st := un.RankingCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache moved: %+v", st)
	}
	sameRankingRows(t, first, fresh, true)

	// The streaming path replays the cached table too: every row then the
	// identical final.
	ch, err := c.ExplainStream(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	var final *Ranking
	for u := range ch {
		if u.Row != nil {
			rows++
		}
		if u.Final != nil {
			final = u.Final
		}
	}
	if final == nil || rows != len(final.Rows) {
		t.Fatalf("replayed %d rows, final %v", rows, final)
	}
	sameRankingRows(t, first, final, false)
	if st := c.RankingCacheStats(); st.Hits != 2 {
		t.Fatalf("stream replay was not a hit: %+v", st)
	}

	// The default scorer spelled out ("" vs L2 build the same scorer) is
	// the same computation, so it hits the same entry.
	spelled := opts
	spelled.Scorer = L2
	l2, err := c.Explain(spelled)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, first, l2, false)
	if st := c.RankingCacheStats(); st.Hits != 3 || st.Entries != 1 {
		t.Fatalf("Scorer L2 did not share the default scorer's entry: %+v", st)
	}
}

// TestCacheServesIsolatedCopies: mutating a served result must not poison
// later hits.
func TestCacheServesIsolatedCopies(t *testing.T) {
	c, opts := cacheClient(t)
	first, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Rows[0]
	first.Rows[0].Family = "poisoned"
	first.Rows[0].Score = -1
	again, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rows[0] != want {
		t.Fatalf("cache served mutated row: %+v", again.Rows[0])
	}
}

// TestCacheInvalidatedByIngest: any write moves a shard watermark, so the
// next probe discards the entry and recomputes instead of serving stale.
func TestCacheInvalidatedByIngest(t *testing.T) {
	c, opts := cacheClient(t)
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBatch([]Observation{{Metric: "late_arrival", At: t0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 0 || st.Misses != 2 || st.Invalidated != 1 {
		t.Fatalf("stats after ingest: %+v", st)
	}
	// With no further writes the refreshed entry serves again.
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	if st := c.RankingCacheStats(); st.Hits != 1 {
		t.Fatalf("refreshed entry did not serve: %+v", st)
	}
}

// TestCacheInvalidatedByRetention: retention that prunes samples bumps the
// watermark exactly like ingest does.
func TestCacheInvalidatedByRetention(t *testing.T) {
	c, opts := cacheClient(t)
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	// Keep everything from minute 10 on: the first 10 minutes are pruned.
	removed, err := c.db.Retain(ts.TimeRange{From: t0.Add(10 * time.Minute), To: t0.Add(24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("retention removed nothing; test needs pruning")
	}
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 0 || st.Misses != 2 || st.Invalidated != 1 {
		t.Fatalf("stats after retention: %+v", st)
	}
}

// TestCacheKeyedByFamilyGeneration: rebuilding families moves computations
// to a fresh key space — old entries are simply never consulted again.
func TestCacheKeyedByFamilyGeneration(t *testing.T) {
	c, opts := cacheClient(t)
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	from, to, _ := c.Bounds()
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats after rebuild: %+v", st)
	}
}

// TestInvestigationStepCacheHit: re-running a step at unchanged
// conditioning replays the cached ranking, and the ad-hoc Explain of the
// same computation shares the entry (the registry was not rebuilt
// mid-session, so the session key collapses to the ad-hoc one).
func TestInvestigationStepCacheHit(t *testing.T) {
	c, opts := cacheClient(t)
	inv, err := c.NewInvestigation(opts.Target, InvestigateOptions{Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	ctx := context.Background()
	first, err := inv.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := inv.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, first, again, false)
	st := c.RankingCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after repeated step: %+v", st)
	}
	if len(inv.History()) != 2 {
		t.Fatalf("cached step missing from history: %d", len(inv.History()))
	}

	adhoc, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, first, adhoc, false)
	if st := c.RankingCacheStats(); st.Hits != 2 {
		t.Fatalf("ad-hoc explain did not share the session's entry: %+v", st)
	}
}

// TestQueryPathCacheHit: the SQL layer runs EXPLAIN ... GIVEN through the
// one ranking path, and repeats hit the same cache.
func TestQueryPathCacheHit(t *testing.T) {
	c, _ := cacheClient(t)
	const q = `EXPLAIN pipeline_runtime GIVEN noise_a LIMIT 5`
	ctx := context.Background()
	r1, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) == 0 || len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("query rows %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	if st := c.RankingCacheStats(); st.Hits < 1 {
		t.Fatalf("repeated EXPLAIN query never hit: %+v", st)
	}
}

// TestRankingCacheStress hammers the cache from racing explainers, writers
// and rebuilds; run under -race it is the memory-safety check for the
// serving layer.
func TestRankingCacheStress(t *testing.T) {
	c, opts := cacheClient(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Explainers: a mix of repeat keys (hits) and distinct seeds (misses),
	// plus the streaming replay path.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := opts
				o.Seed = int64(1 + (i+g)%3)
				o.Workers = 1
				if i%4 == 3 {
					ch, err := c.ExplainStream(context.Background(), o)
					if err != nil {
						t.Error(err)
						return
					}
					for range ch {
					}
					continue
				}
				if _, err := c.Explain(o); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Writer: keeps watermarks moving so invalidation races with serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Put("stress_writer", Tags{"i": strconv.Itoa(i % 3)}, t0.Add(time.Duration(i)*time.Second), float64(i))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Reader: stats and capacity churn (capacity swap replaces the cache
	// wholesale under load).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.RankingCacheStats()
			if i%50 == 49 {
				c.SetRankingCacheCapacity(defaultRankingCacheCap)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
}
