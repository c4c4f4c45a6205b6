package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
)

// TestBuildFamiliesAllocBudget pins the cost of a full family build at the
// rank_narrow shape — 2000 single-series families over a 288-point grid —
// to the matrices themselves: at most 8 allocations per family and at most
// 1.5x the matrix payload in bytes. The per-family Align -> drop ->
// interpolate -> copy pipeline this replaced allocated ~15 objects and
// ~8x the payload per family (a grid, a NaN frame, counts and a copy each).
func TestBuildFamiliesAllocBudget(t *testing.T) {
	const families, rows = 2000, 288
	series := make([]*ts.Series, families)
	for k := range series {
		s := &ts.Series{Name: fmt.Sprintf("metric_%04d", k), Tags: ts.Tags{"host": fmt.Sprintf("dn-%d", k%16)}}
		for i := 0; i < rows; i++ {
			s.Append(t0.Add(time.Duration(i)*time.Minute), float64(k+i))
		}
		series[k] = s
	}
	r := ts.TimeRange{From: t0, To: t0.Add(rows * time.Minute)}
	build := func() {
		fams, err := BuildFamilies(series, GroupByMetricName, r, time.Minute)
		if err != nil || len(fams) != families {
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
	payload := float64(families * rows * 8)
	t.Logf("%.1f allocs/family, %.2fx the matrix payload", allocs/families, bytes/payload)
	if allocs > 8*families {
		t.Errorf("a build allocates %.1f objects per family, budget is 8", allocs/families)
	}
	if bytes > 1.5*payload {
		t.Errorf("a build allocates %.0f bytes, %.2fx the %.0f-byte matrix payload; budget is 1.5x", bytes, bytes/payload, payload)
	}
}
