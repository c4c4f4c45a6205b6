package explainit

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
	"unicode/utf8"

	"explainit/internal/core"
)

// --- satellite fixes ---

func TestRankingRanksAreDense(t *testing.T) {
	table := &core.ScoreTable{Results: []core.Result{
		{Family: "a", Score: 0.9},
		{Family: "b", Score: 0.5, Err: errors.New("singular")},
		{Family: "c", Score: 0.4},
		{Family: "d", Score: 0.2, Err: errors.New("singular")},
		{Family: "e", Score: 0.1},
	}}
	ranking := rankingFromTable(table)
	if len(ranking.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(ranking.Rows))
	}
	for i, row := range ranking.Rows {
		if row.Rank != i+1 {
			t.Errorf("row %d has rank %d — ranks must be dense over emitted rows", i, row.Rank)
		}
	}
	if ranking.Rows[1].Family != "c" || ranking.Rows[1].Rank != 2 {
		t.Errorf("second row %+v, want family c at rank 2", ranking.Rows[1])
	}
}

func TestTruncateRuneBoundaries(t *testing.T) {
	name := "ディスク書き込みレイテンシ_datanode-17" // multi-byte family name
	for n := 2; n < 30; n++ {
		got := truncate(name, n)
		if !utf8.ValidString(got) {
			t.Fatalf("truncate(%q, %d) = %q: invalid UTF-8", name, n, got)
		}
		if r := []rune(got); len(r) > n {
			t.Fatalf("truncate(%q, %d) kept %d runes", name, n, len(r))
		}
	}
	if got := truncate("short", 38); got != "short" {
		t.Fatalf("no-op truncate changed %q", got)
	}
}

func TestTypedSentinels(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("bogus-grouping", from, to, time.Minute); !errors.Is(err, ErrUnknownGrouping) {
		t.Errorf("BuildFamilies: got %v, want ErrUnknownGrouping", err)
	}
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(ExplainOptions{Target: "no_such"}); !errors.Is(err, ErrUnknownFamily) {
		t.Errorf("unknown target: got %v, want ErrUnknownFamily", err)
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"no_such"}}); !errors.Is(err, ErrUnknownFamily) {
		t.Errorf("unknown conditioning family: got %v, want ErrUnknownFamily", err)
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", SearchSpace: []string{"no_such"}}); !errors.Is(err, ErrUnknownFamily) {
		t.Errorf("unknown search-space family: got %v, want ErrUnknownFamily", err)
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Scorer: "bogus"}); !errors.Is(err, ErrUnknownScorer) {
		t.Errorf("unknown scorer: got %v, want ErrUnknownScorer", err)
	}
	if _, err := c.NewInvestigation("no_such", InvestigateOptions{}); !errors.Is(err, ErrUnknownFamily) {
		t.Errorf("NewInvestigation: got %v, want ErrUnknownFamily", err)
	}
	// The wire envelope matches the same sentinels through errors.Is.
	envelope := &Error{Code: "unknown_family", Message: "nope"}
	if !errors.Is(envelope, ErrUnknownFamily) {
		t.Error("envelope with unknown_family code must match ErrUnknownFamily")
	}
	if errors.Is(envelope, ErrUnknownScorer) {
		t.Error("envelope must not match a different sentinel")
	}
	if got := ErrorCode(fmt2wrap(ErrUnknownInvestigation)); got != "unknown_investigation" {
		t.Errorf("ErrorCode = %q", got)
	}
}

func fmt2wrap(err error) error { return errors.Join(errors.New("outer"), err) }

// --- streaming ---

func rankingsEqual(t *testing.T, got, want *Ranking) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row counts %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		// Elapsed is wall time, never comparable run to run; every ranked
		// field must be bitwise identical.
		if g.Rank != w.Rank || g.Family != w.Family || g.Features != w.Features ||
			g.Score != w.Score || g.PValue != w.PValue || g.Viz != w.Viz {
			t.Errorf("row %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.Skipped) != len(want.Skipped) {
		t.Errorf("skipped %v vs %v", got.Skipped, want.Skipped)
	}
}

func TestExplainStreamMatchesBlocking(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	opts := ExplainOptions{Target: "pipeline_runtime", Condition: []string{"tcp_retransmits"}, Seed: 3}
	blocking, err := c.Explain(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		opts.Workers = workers
		ch, err := c.ExplainStream(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var rows int
		var final *Ranking
		for u := range ch {
			if u.Err != nil {
				t.Fatal(u.Err)
			}
			if u.Row != nil {
				rows++
			}
			if u.Final != nil {
				final = u.Final
			}
		}
		if final == nil {
			t.Fatal("stream ended without a final ranking")
		}
		if rows == 0 {
			t.Fatal("stream emitted no rows")
		}
		rankingsEqual(t, final, blocking)
	}
}

func TestExplainStreamValidationError(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExplainStream(context.Background(), ExplainOptions{Target: "no_such"}); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("got %v, want ErrUnknownFamily", err)
	}
	// A session's stream fails the same way, synchronously, and the failed
	// step does not leave the session stepping.
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{SearchSpace: []string{"no_such"}})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	for i := 0; i < 2; i++ {
		if _, err := inv.ExplainStream(context.Background()); !errors.Is(err, ErrUnknownFamily) {
			t.Fatalf("session stream %d: got %v, want ErrUnknownFamily", i, err)
		}
	}
}

func TestExplainContextCancelled(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExplainContext(ctx, ExplainOptions{Target: "pipeline_runtime"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	ch, err := c.ExplainStream(ctx, ExplainOptions{Target: "pipeline_runtime"})
	if err != nil {
		t.Fatal(err)
	}
	var terminal RankUpdate
	for u := range ch {
		terminal = u
	}
	if !errors.Is(terminal.Err, context.Canceled) {
		t.Fatalf("stream terminal err %v, want context.Canceled", terminal.Err)
	}
}

// --- investigation sessions ---

func TestInvestigationIterativeLoop(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := inv.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0].Family != "tcp_retransmits" {
		t.Fatalf("step 1 top %q", r1.Rows[0].Family)
	}
	// Algorithm 1: condition on the top-ranked family and re-explain.
	if err := inv.Condition(r1.Rows[0].Family); err != nil {
		t.Fatal(err)
	}
	r2, err := inv.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := inv.Conditioning(); len(got) != 1 || got[0] != "tcp_retransmits" {
		t.Fatalf("conditioning %v", got)
	}
	// The conditioned step must match a one-shot Explain with the same set.
	want, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"tcp_retransmits"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rankingsEqual(t, r2, want)

	hist := inv.History()
	if len(hist) != 2 {
		t.Fatalf("history %d entries", len(hist))
	}
	if hist[0].Step != 1 || hist[0].TopFamily != "tcp_retransmits" || len(hist[0].Condition) != 0 {
		t.Fatalf("history[0] = %+v", hist[0])
	}
	if hist[1].Step != 2 || len(hist[1].Condition) != 1 {
		t.Fatalf("history[1] = %+v", hist[1])
	}
}

// TestInvestigationReuseMatchesScratch is the acceptance check: a
// multi-step investigation whose conditioning set grows reuses the cached
// design (ReusedConditioning) and its scores match a fresh, from-scratch
// Explain within 1e-9.
func TestInvestigationReuseMatchesScratch(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := inv.Condition("tcp_retransmits"); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Step(ctx); err != nil {
		t.Fatal(err)
	}
	// Grow the set: step 2 extends step 1's factorization.
	if err := inv.Condition("noise_a"); err != nil {
		t.Fatal(err)
	}
	r2, err := inv.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hist := inv.History()
	if !hist[1].ReusedConditioning {
		t.Error("step 2 did not reuse the step 1 conditioning design")
	}
	scratch, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"tcp_retransmits", "noise_a"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != len(scratch.Rows) {
		t.Fatalf("rows %d vs %d", len(r2.Rows), len(scratch.Rows))
	}
	for i := range r2.Rows {
		if r2.Rows[i].Family != scratch.Rows[i].Family {
			t.Errorf("row %d: %q vs %q", i, r2.Rows[i].Family, scratch.Rows[i].Family)
			continue
		}
		if d := math.Abs(r2.Rows[i].Score - scratch.Rows[i].Score); d > 1e-9 {
			t.Errorf("row %d (%s): reused score deviates from scratch by %g", i, r2.Rows[i].Family, d)
		}
	}
}

func TestInvestigationStreamStep(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1, Condition: []string{"tcp_retransmits"}})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := inv.ExplainStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var final *Ranking
	for u := range ch {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if u.Final != nil {
			final = u.Final
		}
	}
	if final == nil {
		t.Fatal("no final ranking")
	}
	want, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"tcp_retransmits"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rankingsEqual(t, final, want)
	if hist := inv.History(); len(hist) != 1 || hist[0].Rows != len(final.Rows) {
		t.Fatalf("history %+v", hist)
	}
}

func TestInvestigationStepCancelled(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inv.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A cancelled step must not poison the session: the next step works
	// and history only records completed steps.
	if r, err := inv.Step(context.Background()); err != nil || len(r.Rows) == 0 {
		t.Fatalf("step after cancel: %v", err)
	}
	if hist := inv.History(); len(hist) != 1 {
		t.Fatalf("history %d entries, want 1 (cancelled step unrecorded)", len(hist))
	}
}

func TestInvestigationDropAndClose(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Condition: []string{"tcp_retransmits", "noise_a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Drop("noise_a"); err != nil {
		t.Fatal(err)
	}
	if got := inv.Conditioning(); len(got) != 1 || got[0] != "tcp_retransmits" {
		t.Fatalf("conditioning after drop %v", got)
	}
	if err := inv.Drop("noise_a"); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("double drop: got %v, want ErrUnknownFamily", err)
	}
	if err := inv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Step(context.Background()); !errors.Is(err, ErrInvestigationClosed) {
		t.Fatalf("step on closed: %v", err)
	}
	if err := inv.Condition("noise_a"); !errors.Is(err, ErrInvestigationClosed) {
		t.Fatalf("condition on closed: %v", err)
	}
}

// TestInvestigationStaleStateEvicted: dropping a family, rebuilding
// families over a different window (same names, new data), and
// re-conditioning must NOT reuse the factorization computed from the old
// data — the step must match a fresh Explain over the new families.
func TestInvestigationStaleStateEvicted(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1, Condition: []string{"tcp_retransmits"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := inv.Step(ctx); err != nil {
		t.Fatal(err)
	}
	// Rebuild families: same names and data, but fresh Family values — any
	// state cached from the old build is now stale by identity.
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := inv.Drop("tcp_retransmits"); err != nil {
		t.Fatal(err)
	}
	if err := inv.Condition("tcp_retransmits", "noise_a"); err != nil {
		t.Fatal(err)
	}
	// Step 2 conditions on {tcp_retransmits(new), noise_a(new)}. The step-1
	// state's families are stale by identity, so it must neither be reused
	// for the same signature nor donate its design as a prefix: the step
	// factors from scratch (ReusedConditioning false). A name-keyed cache
	// would report reuse here — against the old build's matrices.
	if _, err := inv.Step(ctx); err != nil {
		t.Fatal(err)
	}
	hist := inv.History()
	last := hist[len(hist)-1]
	if last.ReusedConditioning {
		t.Fatal("stale conditioning state was reused after family rebuild")
	}
}

func TestInvestigationPseudocauseExtends(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Pseudocause: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := inv.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if err := inv.Condition("tcp_retransmits"); err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Step(ctx); err != nil {
		t.Fatal(err)
	}
	hist := inv.History()
	// The pseudocause leads the conditioning order, so adding a family
	// still extends the cached design.
	if !hist[1].ReusedConditioning {
		t.Error("pseudocause session step 2 did not extend the cached design")
	}
	if len(hist[1].Condition) != 2 {
		t.Fatalf("step 2 condition %v", hist[1].Condition)
	}
}

// TestStaleSessionsDoNotShareRankings: two sessions opened against the
// same registry build, whose conditioning families were then resolved
// from different builds, declare different computations. After the
// rebuild neither may be served the other's cached ranking.
func TestStaleSessionsDoNotShareRankings(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	a, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Condition("noise_a"); err != nil {
		t.Fatal(err)
	}
	// Redefine noise_a from tcp_retransmits' samples: same name and rows,
	// different data, and no ingest, so the shard watermarks do not move.
	if _, err := c.DefineFamiliesSQL(`
		SELECT timestamp, 'noise_a' AS fam, AVG(value) AS v
		FROM tsdb WHERE metric_name = 'tcp_retransmits'
		GROUP BY timestamp ORDER BY timestamp ASC`,
		"timestamp", "fam", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := b.Condition("noise_a"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.Step(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := b.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"noise_a"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rankingsEqual(t, got, want)
}
