package explainit

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"explainit/internal/obs"
	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
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

// uncachedTwin returns a second cacheClient with the ranking cache off:
// the same data and families, so every ranking it returns is a recompute.
func uncachedTwin(t *testing.T) *Client {
	t.Helper()
	twin, _ := cacheClient(t)
	twin.SetRankingCacheCapacity(0)
	return twin
}

// TestCacheHitAcrossIngest: a ranking reads only the family registry, so
// a write leaves the cached entry valid — the next probe hits, and the hit
// equals what an uncached client computes after the same write.
func TestCacheHitAcrossIngest(t *testing.T) {
	c, opts := cacheClient(t)
	twin := uncachedTwin(t)
	first, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*Client{c, twin} {
		if err := cl.PutBatch([]Observation{{Metric: "late_arrival", At: t0, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidated != 0 {
		t.Fatalf("stats after ingest: %+v", st)
	}
	sameRankingRows(t, first, got, false)
	fresh, err := twin.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, got, fresh, true)
	// With no further rebuild the entry keeps serving.
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	if st := c.RankingCacheStats(); st.Hits != 2 {
		t.Fatalf("entry did not keep serving: %+v", st)
	}
}

// TestCacheHitAcrossRetention: retention that prunes samples leaves the
// cached entry valid exactly like ingest does, and the hit equals a
// recompute after the same pruning.
func TestCacheHitAcrossRetention(t *testing.T) {
	c, opts := cacheClient(t)
	twin := uncachedTwin(t)
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	// Keep everything from minute 10 on: the first 10 minutes are pruned.
	for _, cl := range []*Client{c, twin} {
		removed, err := cl.db.Retain(ts.TimeRange{From: t0.Add(10 * time.Minute), To: t0.Add(24 * time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		if removed == 0 {
			t.Fatal("retention removed nothing; test needs pruning")
		}
	}
	got, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := c.RankingCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidated != 0 {
		t.Fatalf("stats after retention: %+v", st)
	}
	fresh, err := twin.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, got, fresh, true)
}

// TestCacheKeyedByFamilyGeneration: rebuilding families publishes a new
// registry generation, so the next probe of the same computation finds
// its entry stale, evicts it and recomputes.
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
	if st.Hits != 0 || st.Misses != 2 || st.Invalidated != 1 {
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
	// Writer: puts interleaved with family rebuilds. Only a rebuild
	// publishes a new registry generation, so the rebuilds race
	// invalidation with serving and the puts race the store beside it.
	from, to, _ := c.Bounds()
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
			if i%5 == 4 {
				if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
					t.Error(err)
					return
				}
			}
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

// TestCachedRankingEqualsRecomputeBetweenRebuilds pins the fact the
// generation-only cache key rests on: between rebuilds no ranking reads the
// store. At 1, 4 and 7 shards and worker counts 0, 1 and 3, after an
// in-range put, a future put, a late out-of-order put and a pruning Retain,
// Explain, a session Step and SQL EXPLAIN ... GIVEN are served from the
// cache, bit for bit equal to what a cache-off twin fed the same writes
// recomputes. A rebuild then makes the probe miss and Invalidated grow.
func TestCachedRankingEqualsRecomputeBetweenRebuilds(t *testing.T) {
	opts := ExplainOptions{Target: "pipeline_runtime", Condition: []string{"noise_a"}, Seed: 1}
	const sql = `EXPLAIN pipeline_runtime GIVEN noise_a`
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, from, to := seedStore(newClient(tsdb.NewWithShards(shards)))
			twin, _, _ := seedStore(newClient(tsdb.NewWithShards(shards)))
			twin.SetRankingCacheCapacity(0)
			sessions := map[*Client]*Investigation{}
			for _, cl := range []*Client{c, twin} {
				if _, err := cl.BuildFamilies("name", from, to, time.Minute); err != nil {
					t.Fatal(err)
				}
				inv, err := cl.NewInvestigation(opts.Target, InvestigateOptions{Condition: opts.Condition, Seed: opts.Seed})
				if err != nil {
					t.Fatal(err)
				}
				sessions[cl] = inv
			}
			surfaces := []struct {
				name string
				run  func(cl *Client, workers int) (*Ranking, error)
			}{
				{"Explain", func(cl *Client, workers int) (*Ranking, error) {
					o := opts
					o.Workers = workers
					return cl.Explain(o)
				}},
				{"Step", func(cl *Client, _ int) (*Ranking, error) {
					return sessions[cl].Step(context.Background())
				}},
				{"SQL", func(cl *Client, _ int) (*Ranking, error) {
					res, err := cl.Query(context.Background(), sql)
					if err != nil {
						return nil, err
					}
					return rankingFromResult(res), nil
				}},
			}
			for _, s := range surfaces { // warm every entry
				if _, err := s.run(c, 0); err != nil {
					t.Fatal(err)
				}
			}

			writes := []struct {
				name  string
				apply func(cl *Client) error
			}{
				{"in-range put", func(cl *Client) error {
					return cl.PutBatch([]Observation{{Metric: "pipeline_runtime", Tags: Tags{"pipeline": "p0"}, At: from.Add(90 * time.Second), Value: 1e6}})
				}},
				{"future put", func(cl *Client) error {
					return cl.PutBatch([]Observation{{Metric: "tcp_retransmits", Tags: Tags{"host": "dn-1"}, At: to.Add(time.Hour), Value: 5}})
				}},
				{"late put", func(cl *Client) error {
					return cl.PutBatch([]Observation{{Metric: "noise_a", Tags: Tags{"idx": "0"}, At: from.Add(10*time.Minute + 17*time.Second), Value: -1e6}})
				}},
				{"pruning retain", func(cl *Client) error {
					removed, err := cl.db.Retain(ts.TimeRange{From: from.Add(5 * time.Minute), To: to.Add(2 * time.Hour)})
					if err == nil && removed == 0 {
						err = fmt.Errorf("retention removed nothing")
					}
					return err
				}},
			}
			for _, wr := range writes {
				marks := c.db.Watermarks()
				for _, cl := range []*Client{c, twin} {
					if err := wr.apply(cl); err != nil {
						t.Fatalf("%s: %v", wr.name, err)
					}
				}
				if slices.Equal(marks, c.db.Watermarks()) {
					t.Fatalf("%s moved no shard watermark", wr.name)
				}
				for _, s := range surfaces {
					for _, workers := range []int{0, 1, 3} {
						label := fmt.Sprintf("%s, %s, workers=%d", wr.name, s.name, workers)
						before := c.RankingCacheStats()
						got, err := s.run(c, workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if after := c.RankingCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
							t.Fatalf("%s: not served from the cache: %+v -> %+v", label, before, after)
						}
						want, err := s.run(twin, workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameRankingBits(t, got, want, label)
					}
				}
			}

			// A rebuild publishes a new generation: the ad-hoc probes find
			// their entries stale, and the session, pinned to the old
			// generation, ranks uncached.
			for _, cl := range []*Client{c, twin} {
				if _, err := cl.BuildFamilies("name", from, to, time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range surfaces {
				before := c.RankingCacheStats()
				got, err := s.run(c, 0)
				if err != nil {
					t.Fatalf("rebuild, %s: %v", s.name, err)
				}
				after := c.RankingCacheStats()
				if after.Hits != before.Hits {
					t.Fatalf("rebuild, %s: served from the cache: %+v -> %+v", s.name, before, after)
				}
				if s.name != "Step" && (after.Misses != before.Misses+1 || after.Invalidated != before.Invalidated+1) {
					t.Fatalf("rebuild, %s: probe did not find its entry stale: %+v -> %+v", s.name, before, after)
				}
				want, err := s.run(twin, 0)
				if err != nil {
					t.Fatalf("rebuild, %s: %v", s.name, err)
				}
				sameRankingBits(t, got, want, "rebuild, "+s.name)
			}
		})
	}
}

// rankingFromResult reads a SQL EXPLAIN relation back into ranking rows.
func rankingFromResult(res *Result) *Ranking {
	r := &Ranking{}
	for _, row := range res.Rows {
		r.Rows = append(r.Rows, RankedFamily{
			Rank:     int(row[0].(float64)),
			Family:   row[1].(string),
			Features: int(row[2].(float64)),
			Score:    row[3].(float64),
			PValue:   row[4].(float64),
			Viz:      row[5].(string),
		})
	}
	return r
}

// sameRankingBits asserts two rankings carry the same rows, scores and
// p-values bit for bit, and the same Skipped list; Elapsed is wall clock.
func sameRankingBits(t *testing.T, got, want *Ranking, label string) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) || !slices.Equal(got.Skipped, want.Skipped) {
		t.Fatalf("%s: %d rows skipping %q, want %d skipping %q", label, len(got.Rows), got.Skipped, len(want.Rows), want.Skipped)
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if g.Rank != w.Rank || g.Family != w.Family || g.Features != w.Features || g.Viz != w.Viz ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) || math.Float64bits(g.PValue) != math.Float64bits(w.PValue) {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestRankingCacheCountersCountOnlyRankings: the process-wide
// explainit_ranking_cache_* counters (the inputs of the self-scraped
// explainit_cache_hit_ratio) count ranking probes only. SQL SELECTs, whose
// plan and scan caches count themselves, leave them unchanged; each
// ranking moves exactly one of hits and misses, a stale entry also moves
// invalidated, and a disabled ranking cache still counts a miss.
func TestRankingCacheCountersCountOnlyRankings(t *testing.T) {
	c, opts := cacheClient(t)
	counters := func() [3]uint64 {
		r := obs.Default()
		return [3]uint64{
			r.Counter("explainit_ranking_cache_hits_total").Value(),
			r.Counter("explainit_ranking_cache_misses_total").Value(),
			r.Counter("explainit_ranking_cache_invalidated_total").Value(),
		}
	}
	moved := func(label string, before [3]uint64, want [3]uint64) {
		t.Helper()
		now := counters()
		if got := [3]uint64{now[0] - before[0], now[1] - before[1], now[2] - before[2]}; got != want {
			t.Fatalf("%s moved hits/misses/invalidated by %v, want %v", label, got, want)
		}
	}

	before := counters()
	for i := 0; i < 2; i++ { // the second round hits the plan and scan caches
		for _, q := range []string{
			`SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name`,
			`SELECT AVG(value) AS v FROM tsdb WHERE metric_name = 'noise_a'`,
			`SELECT timestamp, value FROM tsdb WHERE metric_name = 'tcp_retransmits' LIMIT 3`,
		} {
			if _, err := c.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sq := c.SQLCacheStats(); sq.PlanHits == 0 || sq.ScanHits == 0 {
		t.Fatalf("SELECTs never hit the SQL caches: %+v", sq)
	}
	moved("SELECTs", before, [3]uint64{})

	steps := []struct {
		label string
		prep  func()
		want  [3]uint64
	}{
		{"first Explain", func() {}, [3]uint64{0, 1, 0}},
		{"repeat Explain", func() {}, [3]uint64{1, 0, 0}},
		{"Explain after a rebuild", func() {
			from, to, _ := c.Bounds()
			if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
				t.Fatal(err)
			}
		}, [3]uint64{0, 1, 1}},
		{"Explain with the cache off", func() { c.SetRankingCacheCapacity(0) }, [3]uint64{0, 1, 0}},
	}
	for _, s := range steps {
		s.prep()
		before := counters()
		if _, err := c.Explain(opts); err != nil {
			t.Fatal(err)
		}
		moved(s.label, before, s.want)
	}
}
