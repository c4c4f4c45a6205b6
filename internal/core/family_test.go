package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
	"explainit/internal/tsdb"
)

// The rank_narrow shape: 2000 single-series families over a 288-point grid,
// read from a store of 8 shards (the default count).
const narrowFamilies, narrowRows, narrowShards = 2000, 288, 8

// narrowSeries returns the rank_narrow-shaped series and their range.
func narrowSeries() ([]*ts.Series, ts.TimeRange) {
	series := make([]*ts.Series, narrowFamilies)
	for k := range series {
		s := &ts.Series{Name: fmt.Sprintf("metric_%04d", k), Tags: ts.Tags{"host": fmt.Sprintf("dn-%d", k%16)}}
		for i := 0; i < narrowRows; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Minute), float64(k+i))
		}
		series[k] = s
	}
	return series, ts.TimeRange{From: t0, To: t0.Add(narrowRows * time.Minute)}
}

// narrowStore loads the rank_narrow-shaped series into a store of
// narrowShards shards.
func narrowStore(tb testing.TB) (*tsdb.DB, ts.TimeRange) {
	series, r := narrowSeries()
	db := tsdb.NewWithShards(narrowShards)
	for _, s := range series {
		if err := db.PutSeries(s); err != nil {
			tb.Fatal(err)
		}
	}
	return db, r
}

// TestBuildFamiliesAllocBudget pins the cost of a full family build at the
// rank_narrow shape to the matrices themselves, on both routes — a slice
// of series and a store read in place at 8 shards: at most 8 allocations
// per family and at most 1.5x the matrix payload in bytes. The per-family
// Align -> drop -> interpolate -> copy pipeline the one-pass build replaced
// allocated ~15 objects and ~8x the payload per family (a grid, a NaN
// frame, counts and a copy each); a store read through DB.Run's copies
// before the build cost ~10 objects and ~5.5x the payload per family.
func TestBuildFamiliesAllocBudget(t *testing.T) {
	series, r := narrowSeries()
	db, _ := narrowStore(t)
	for _, route := range []struct {
		name  string
		build func() ([]*Family, error)
	}{
		{"slice", func() ([]*Family, error) { return BuildFamilies(series, GroupByMetricName, r, time.Minute) }},
		{"store", func() ([]*Family, error) {
			fams, _, err := BuildFamiliesFromStore(db, GroupByMetricName, r, time.Minute)
			return fams, err
		}},
	} {
		t.Run(route.name, func(t *testing.T) {
			build := func() {
				fams, err := route.build()
				if err != nil || len(fams) != narrowFamilies {
					t.Fatalf("built %d families, err %v", len(fams), err)
				}
			}
			build()
			const runs = 5
			allocs := testing.AllocsPerRun(runs, build)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			payload := float64(narrowFamilies * narrowRows * 8)
			t.Logf("%.1f allocs/family, %.2fx the matrix payload", allocs/narrowFamilies, bytes/payload)
			if allocs > 8*narrowFamilies {
				t.Errorf("a build allocates %.1f objects per family, budget is 8", allocs/narrowFamilies)
			}
			if bytes > 1.5*payload {
				t.Errorf("a build allocates %.0f bytes, %.2fx the %.0f-byte matrix payload; budget is 1.5x", bytes, bytes/payload, payload)
			}
		})
	}
}

// BenchmarkBuildFamiliesFromStore times one in-place family build at the
// rank_narrow shape (2000x1x288 over 8 shards), the rebuild of every
// refresh.
func BenchmarkBuildFamiliesFromStore(b *testing.B) {
	db, r := narrowStore(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := BuildFamiliesFromStore(db, GroupByMetricName, r, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
