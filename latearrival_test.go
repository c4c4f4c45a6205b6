package explainit

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"explainit/internal/simulator"
)

// TestLateArrivalServedUntilRebuild pins the late-data contract end to
// end: an out-of-order PutBatch of delayed samples bumps shard watermarks
// but not the family registry, so until families are rebuilt the ranking
// cache keeps serving — a hit equal, bit for bit, to an uncached
// recompute — and standing-query ticks skip. The rebuild folds the late
// samples in: the ranking changes, the cache misses and the next tick
// re-evaluates.
func TestLateArrivalServedUntilRebuild(t *testing.T) {
	cfg := simulator.CardinalityStress(30, 9)
	cfg.Sampling = &simulator.SamplingConfig{Seed: 10, LateRate: 0.3}
	sc := simulator.StressScenario(cfg)
	if len(sc.Late) == 0 {
		t.Fatal("sampler produced no late batch")
	}

	c, twin := New(), New()
	defer c.Close()
	twin.SetRankingCacheCapacity(0)
	for _, cl := range []*Client{c, twin} {
		if err := cl.PutBatch(seriesObservations(sc, false)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
			t.Fatal(err)
		}
	}
	opts := ExplainOptions{Target: sc.Target, TopK: 10, Seed: 1}
	before, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(opts); err != nil {
		t.Fatal(err)
	}
	if st := c.RankingCacheStats(); st.Hits == 0 {
		t.Fatalf("expected a warm cache before the late write: %+v", st)
	}

	// Standing query: wait for the initial ranking, then confirm a tick on
	// the quiet store is gated (no second evaluation).
	info, err := c.CreateWatch(fmt.Sprintf("EXPLAIN %s EVERY '1h'", sc.Target), "test")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; {
		wi, err := c.WatchInfo(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if wi.Emits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never emitted its initial ranking")
		}
		time.Sleep(time.Millisecond)
	}
	w, ok := c.watchManager().Get(info.ID)
	if !ok {
		t.Fatal("watcher not registered")
	}
	ctx := context.Background()
	w.Tick(ctx)
	wi, err := c.WatchInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Evals != 1 {
		t.Fatalf("quiet tick re-evaluated: %d evals", wi.Evals)
	}

	// The late write: delayed samples with old timestamps, ingested after
	// everything else — strictly out of order.
	wmBefore := c.db.Watermarks()
	for _, cl := range []*Client{c, twin} {
		if err := cl.PutBatch(seriesObservations(sc, true)); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Equal(c.db.Watermarks(), wmBefore) {
		t.Fatal("late PutBatch did not bump any shard watermark")
	}

	// The families — all a ranking reads — are unchanged, so the probe hits
	// and the hit equals an uncached recompute after the same write.
	st := c.RankingCacheStats()
	served, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := c.RankingCacheStats()
	if st2.Hits != st.Hits+1 || st2.Misses != st.Misses {
		t.Fatalf("expected a cache hit after the late write: %+v -> %+v", st, st2)
	}
	recomputed, err := twin.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRankingRows(t, served, recomputed, true)

	// The next tick sees the same registry and skips.
	w.Tick(ctx)
	wi, err = c.WatchInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wi.Evals != 1 || wi.Skips < 2 {
		t.Fatalf("late write without a rebuild re-evaluated: %+v", wi)
	}

	// Rebuilt families fold the late samples in: the ranking genuinely
	// changes, so serving the stale one would have been wrong.
	if _, err := c.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
		t.Fatal(err)
	}
	after, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	same := len(after.Rows) == len(before.Rows)
	if same {
		for i := range after.Rows {
			if after.Rows[i].Family != before.Rows[i].Family ||
				math.Float64bits(after.Rows[i].Score) != math.Float64bits(before.Rows[i].Score) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("ranking identical before and after folding in 30% late samples")
	}
	if st3 := c.RankingCacheStats(); st3.Hits != st2.Hits || st3.Invalidated == st2.Invalidated {
		t.Fatalf("rebuild did not invalidate the cached ranking: %+v -> %+v", st2, st3)
	}

	// The rebuild moved the generation: the next tick re-evaluates.
	w.Tick(ctx)
	if wi, err = c.WatchInfo(info.ID); err != nil {
		t.Fatal(err)
	}
	if wi.Evals != 2 {
		t.Fatalf("rebuild did not trigger a watch re-evaluation: %d evals", wi.Evals)
	}
}
