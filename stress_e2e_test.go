package explainit

import (
	"math"
	"os"
	"testing"
	"time"

	"explainit/internal/simulator"
	ts "explainit/internal/timeseries"
)

// seriesObservations flattens one series slice into PutBatch records.
func seriesObservations(sc *simulator.Scenario, late bool) []Observation {
	src := sc.Series
	if late {
		src = sc.Late
	}
	var out []Observation
	for _, s := range src {
		for _, smp := range s.Samples {
			out = append(out, Observation{Metric: s.Name, Tags: Tags(s.Tags), At: smp.TS, Value: smp.Value})
		}
	}
	return out
}

// TestStressShardDeterminism extends the bitwise-at-any-shard-count
// invariant to the stress generators: the same dirtied scenario ingested
// into stores with 1, 4 and 7 shards must produce bitwise-identical
// conditioned rankings.
func TestStressShardDeterminism(t *testing.T) {
	cfg := simulator.CascadeStress(2, 40, 5)
	cfg.SeriesPerFamily = 2
	cfg.Sampling = &simulator.SamplingConfig{
		Seed:     6,
		DropRate: 0.1,
		Jitter:   20 * time.Second,
		GapEvery: 60,
		GapWidth: 4,
	}
	sc := simulator.StressScenario(cfg)
	obs := seriesObservations(sc, false)

	var want *Ranking
	var wantShards int
	for _, shards := range []int{1, 4, 7} {
		c, err := OpenShards(t.TempDir(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PutBatch(obs); err != nil {
			c.Close()
			t.Fatal(err)
		}
		if _, err := c.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
			c.Close()
			t.Fatal(err)
		}
		got, err := c.Explain(ExplainOptions{
			Target:    sc.Target,
			Condition: []string{simulator.StressLoad},
			TopK:      20,
			Seed:      1,
		})
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantShards = got, shards
			continue
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%d vs %d shards: %d vs %d rows", shards, wantShards, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			a, b := got.Rows[i], want.Rows[i]
			if a.Family != b.Family || math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
				math.Float64bits(a.PValue) != math.Float64bits(b.PValue) {
				t.Fatalf("%d vs %d shards: row %d differs: %q %v vs %q %v",
					shards, wantShards, i, a.Family, a.Score, b.Family, b.Score)
			}
		}
	}
}

// TestStressFacadeScale drives the facade end to end at scale: a stress
// scenario streamed through Client.PutBatch in the generator's sink mode
// (so 100k series never exist in memory twice), BuildFamilies, and one
// conditioned Explain. The shapes walk the series-count axis (200
// families replicated across ever more hosts, up to 100k series) and the
// family-count axis (up to 10k single-series families). Every shape must
// rank the labelled cause in the top 5 (it ranked 3rd on all six when they
// were pinned). Gated like TestStressScaleSweep.
func TestStressFacadeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("facade scale shapes skipped in -short")
	}
	if os.Getenv("EXPLAINIT_SCALE_SUITE") == "" {
		t.Skip("set EXPLAINIT_SCALE_SUITE=1 to run the facade scale shapes")
	}
	shapes := []struct {
		name                string
		families, perFamily int
	}{
		{"series1k", 200, 5},
		{"series10k", 200, 50},
		{"series100k", 200, 500},
		{"families1k", 1000, 1},
		{"families5k", 5000, 1},
		{"families10k", 10000, 1},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			c := New()
			var batch []Observation
			flush := func() {
				if err := c.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
			cfg := simulator.CardinalityStress(s.families, 21)
			cfg.SeriesPerFamily = s.perFamily
			cfg.Sink = func(series *ts.Series) {
				for _, smp := range series.Samples {
					batch = append(batch, Observation{Metric: series.Name, Tags: Tags(series.Tags), At: smp.TS, Value: smp.Value})
				}
				if len(batch) >= 65536 {
					flush()
				}
			}
			sc := simulator.StressScenario(cfg)
			flush()
			if _, err := c.BuildFamilies("name", sc.Range.From, sc.Range.To, sc.Step); err != nil {
				t.Fatal(err)
			}
			opts := ExplainOptions{Target: sc.Target, Condition: []string{simulator.StressLoad}, TopK: 20, Seed: 1}
			// Wide replicated families lean on the paper's projection
			// scorer, as a production deployment at that width would.
			if s.perFamily > 50 {
				opts.Scorer = L2P50
			}
			got, err := c.Explain(opts)
			if err != nil {
				t.Fatal(err)
			}
			cause, rank := sc.PrimaryCauses()[0], 0
			for i, row := range got.Rows {
				if row.Family == cause {
					rank = i + 1
					break
				}
			}
			t.Logf("%d series, %d families: %q at rank %d of the top %d", c.NumSeries(), s.families, cause, rank, len(got.Rows))
			if rank == 0 || rank > 5 {
				t.Fatalf("conditioned rank of %q = %d, floor is top-5", cause, rank)
			}
		})
	}
}
