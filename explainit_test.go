package explainit

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"explainit/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// seedClient loads a small synthetic incident: a fault signal drives both
// tcp_retransmits and pipeline_runtime; several noise metrics distract.
func seedClient(t *testing.T) (*Client, time.Time, time.Time) {
	t.Helper()
	return seedStore(New())
}

// seedStore loads seedClient's incident into c.
func seedStore(c *Client) (*Client, time.Time, time.Time) {
	rng := rand.New(rand.NewSource(7))
	n := 360
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		fault := 0.0
		if i%120 >= 80 && i%120 < 110 {
			fault = 4
		}
		retrans := fault + 0.3*rng.NormFloat64()
		c.Put("tcp_retransmits", Tags{"host": "dn-1"}, at, retrans)
		c.Put("pipeline_runtime", Tags{"pipeline": "p0"}, at, 10+3*fault+0.5*rng.NormFloat64())
		for k := 0; k < 5; k++ {
			c.Put("noise_"+string(rune('a'+k)), Tags{"idx": "0"}, at, rng.NormFloat64())
		}
	}
	return c, t0, t0.Add(time.Duration(n) * time.Minute)
}

func TestEndToEndExplain(t *testing.T) {
	c, from, to := seedClient(t)
	infos, err := c.BuildFamilies("name", from, to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 7 {
		t.Fatalf("families %d", len(infos))
	}
	ranking, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Rows) == 0 {
		t.Fatal("empty ranking")
	}
	if ranking.Rows[0].Family != "tcp_retransmits" {
		t.Fatalf("top family %q", ranking.Rows[0].Family)
	}
	if ranking.Rows[0].Rank != 1 || ranking.Rows[0].Score < 0.5 {
		t.Fatalf("top row %+v", ranking.Rows[0])
	}
	rendered := ranking.String()
	if !strings.Contains(rendered, "tcp_retransmits") || !strings.Contains(rendered, "rank") {
		t.Fatalf("render: %s", rendered)
	}
}

func TestExplainWithAllScorers(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, s := range []ScorerName{CorrMean, CorrMax, L2, L2P50, L2P500, L1} {
		ranking, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Scorer: s, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ranking.Rows[0].Family != "tcp_retransmits" {
			t.Fatalf("%s top family %q", s, ranking.Rows[0].Family)
		}
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Scorer: "bogus"}); err == nil {
		t.Fatal("unknown scorer must error")
	}
}

func TestBuildFamiliesByTagAndErrors(t *testing.T) {
	c, from, to := seedClient(t)
	infos, err := c.BuildFamilies("tag:host", from, to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, fi := range infos {
		if fi.Name == "*{host=dn-1}" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tag grouping missing: %v", infos)
	}
	if _, err := c.BuildFamilies("by-magic", from, to, time.Minute); err == nil {
		t.Fatal("bad grouping must error")
	}
}

func TestExplainErrors(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime"}); err == nil {
		t.Fatal("explain before BuildFamilies must error")
	}
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(ExplainOptions{Target: "nope"}); err == nil {
		t.Fatal("unknown target")
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", Condition: []string{"nope"}}); err == nil {
		t.Fatal("unknown condition")
	}
	if _, err := c.Explain(ExplainOptions{Target: "pipeline_runtime", SearchSpace: []string{"nope"}}); err == nil {
		t.Fatal("unknown search space member")
	}
}

func TestExplainWithConditioningAndSearchSpace(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	ranking, err := c.Explain(ExplainOptions{
		Target:      "pipeline_runtime",
		Condition:   []string{"noise_a"},
		SearchSpace: []string{"tcp_retransmits", "noise_b"},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Rows) != 2 || ranking.Rows[0].Family != "tcp_retransmits" {
		t.Fatalf("conditioned ranking %+v", ranking.Rows)
	}
}

func TestExplainPseudocause(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(8))
	n := 600
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		seasonal := 5 * math.Sin(2*math.Pi*float64(i)/48)
		spike := 0.0
		if i%200 >= 150 && i%200 < 180 {
			spike = 4
		}
		c.Put("runtime", nil, at, 10+seasonal+spike+0.3*rng.NormFloat64())
		c.Put("spike_evidence", nil, at, spike+0.2*rng.NormFloat64())
		c.Put("seasonal_echo", nil, at, seasonal+0.2*rng.NormFloat64())
	}
	if _, err := c.BuildFamilies("name", t0, t0.Add(time.Duration(n)*time.Minute), time.Minute); err != nil {
		t.Fatal(err)
	}
	ranking, err := c.Explain(ExplainOptions{
		Target:            "runtime",
		Pseudocause:       true,
		PseudocausePeriod: 48,
		Seed:              4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Rows[0].Family != "spike_evidence" {
		t.Fatalf("pseudocause top %+v", ranking.Rows)
	}
}

func TestExplainRangeOption(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	// The highlighted window spans the event including its onset and
	// offset, as an operator would select it on the dashboard (Figure 2).
	ranking, err := c.Explain(ExplainOptions{
		Target:      "pipeline_runtime",
		ExplainFrom: from.Add(60 * time.Minute),
		ExplainTo:   from.Add(130 * time.Minute),
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Rows[0].Family != "tcp_retransmits" {
		t.Fatalf("explain-range top %q", ranking.Rows[0].Family)
	}
}

func TestSQLQueryAndFamilies(t *testing.T) {
	c, from, to := seedClient(t)
	res, err := c.Query(context.Background(), `SELECT metric_name, COUNT(*) AS n FROM tsdb GROUP BY metric_name ORDER BY metric_name ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 || res.Columns[1] != "n" {
		t.Fatalf("query result %v", res.Columns)
	}
	if v, ok := res.Rows[0][1].(float64); !ok || v != 360 {
		t.Fatalf("count %v", res.Rows[0][1])
	}

	infos, err := c.DefineFamiliesSQL(`
		SELECT timestamp, metric_name, AVG(value) AS v
		FROM tsdb
		WHERE metric_name IN ('tcp_retransmits', 'pipeline_runtime')
		GROUP BY timestamp, metric_name
		ORDER BY timestamp ASC`,
		"timestamp", "metric_name", from, to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("sql families %v", infos)
	}
	ranking, err := c.Explain(ExplainOptions{
		Target:      "pipeline_runtime",
		SearchSpace: []string{"tcp_retransmits"},
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Rows[0].Score < 0.5 {
		t.Fatalf("sql-defined family score %g", ranking.Rows[0].Score)
	}
	if _, err := c.Query(context.Background(), "SELECT nope FROM tsdb"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

// TestDefineFamiliesSQLRejectsNonSelect pins that only a SELECT defines
// families: EXPLAIN and EXPLAIN PLAN statements are errors, and the
// registry is left as it was.
func TestDefineFamiliesSQLRejectsNonSelect(t *testing.T) {
	c, from, to := seedClient(t)
	before := len(c.Families())
	for _, q := range []string{
		`EXPLAIN pipeline_runtime`,
		`EXPLAIN PLAN SELECT timestamp, metric_name, value FROM tsdb`,
	} {
		if infos, err := c.DefineFamiliesSQL(q, "timestamp", "metric_name", from, to, time.Minute); err == nil {
			t.Errorf("%q defined families %v; want an error", q, infos)
		}
	}
	if after := len(c.Families()); after != before {
		t.Errorf("rejected statements changed the registry: %d -> %d families", before, after)
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	c := New()
	csv := "timestamp,metric,tags,value\n" +
		"2026-01-01T00:00:00Z,m,host=a,1\n" +
		"2026-01-01T00:01:00Z,m,host=a,2\n"
	n, err := c.LoadCSV(strings.NewReader(csv))
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if c.NumSeries() != 1 || len(c.MetricNames()) != 1 {
		t.Fatal("store state")
	}
	from, to, ok := c.Bounds()
	if !ok || !from.Equal(t0) || to.Before(t0.Add(time.Minute)) {
		t.Fatalf("bounds %v %v %v", from, to, ok)
	}
	jn, err := c.LoadJSONL(strings.NewReader(`{"ts":"2026-01-01T00:02:00Z","metric":"m","tags":{"host":"a"},"value":3}`))
	if err != nil || jn != 1 {
		t.Fatalf("jsonl n=%d err=%v", jn, err)
	}
}

func TestFamiliesListing(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	fams := c.Families()
	if len(fams) != 7 {
		t.Fatalf("families %d", len(fams))
	}
	for _, f := range fams {
		if f.Rows != 360 || f.Features < 1 {
			t.Fatalf("family info %+v", f)
		}
	}
}

// requestLatencyCount reads how many request latencies the facade has
// observed so far.
func requestLatencyCount(t *testing.T) uint64 {
	t.Helper()
	for _, p := range obs.Default().Snapshot() {
		if p.Name == "explainit_request_latency_ms" {
			return p.Count
		}
	}
	t.Fatal("explainit_request_latency_ms is not registered")
	return 0
}

// TestOneRequestOneObservation: every public entry-point call records
// exactly one request latency, whatever rankings it runs inside (a Query's
// EXPLAIN, with or without GIVEN, is not a second request).
func TestOneRequestOneObservation(t *testing.T) {
	c, from, to := seedClient(t)
	if _, err := c.BuildFamilies("name", from, to, time.Minute); err != nil {
		t.Fatal(err)
	}
	inv, err := c.NewInvestigation("pipeline_runtime", InvestigateOptions{Condition: []string{"noise_a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	ctx := context.Background()
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"Explain", func() error {
			_, err := c.Explain(ExplainOptions{Target: "pipeline_runtime"})
			return err
		}},
		{"Query EXPLAIN", func() error {
			_, err := c.Query(ctx, "EXPLAIN pipeline_runtime LIMIT 3")
			return err
		}},
		{"Query EXPLAIN GIVEN", func() error {
			_, err := c.Query(ctx, "EXPLAIN pipeline_runtime GIVEN noise_a LIMIT 3")
			return err
		}},
		{"Step", func() error {
			_, err := inv.Step(ctx)
			return err
		}},
	} {
		before := requestLatencyCount(t)
		if err := call.run(); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		if got := requestLatencyCount(t) - before; got != 1 {
			t.Errorf("%s observed %d request latencies, want 1", call.name, got)
		}
	}
}
