package tsdb

import (
	"slices"
	"sync"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
)

// TestVisitInPlace: Visit hands each shard's series with a sample in range
// in ID order, with the store's own sample columns restricted to the range,
// sorting an unsorted shard first; across shards the visit covers exactly
// the series Run returns, and it counts as one query and one scan per
// shard.
func TestVisitInPlace(t *testing.T) {
	r := ts.TimeRange{From: t0.Add(time.Minute), To: t0.Add(4 * time.Minute)}
	for _, shards := range []int{1, 4, 7} {
		db := NewWithShards(shards)
		for k, name := range []string{"b", "a", "c", "d", "e"} {
			tags := ts.Tags{"host": string(rune('0' + k))}
			for _, i := range []int{3, 0, 2, 1, 5} { // out of order: the shards start unsorted
				db.Put(name, tags, t0.Add(time.Duration(i)*time.Minute), float64(10*k+i))
			}
		}
		db.Put("late", nil, t0.Add(9*time.Minute), 1) // no sample in range
		queries, scans := metQueries.Value(), db.shardScans()

		var mu sync.Mutex
		ids := make([][]string, shards)
		var visited []string
		n := db.Visit(r, func(shard int, id string, s *ts.Series, ns []int64, val []float64) {
			ids[shard] = append(ids[shard], id)   // one goroutine per shard
			stored := db.shards[shard].series[id] // fn runs under this shard's lock
			if s != &stored.hdr || s.Samples != nil {
				t.Errorf("%s: visited header is not the store's sample-free one", id)
			}
			cols := &stored.cols
			if len(ns) == 0 || len(val) != len(ns) || &ns[0] != &cols.NS[1] || &val[0] != &cols.Val[1] || !slices.IsSorted(cols.NS) {
				t.Errorf("%s: visited %d samples not the sorted store's [1:4]", id, len(ns))
			}
			for _, at := range ns {
				if !r.Contains(time.Unix(0, at)) {
					t.Errorf("%s: sample at %v outside %v", id, time.Unix(0, at), r)
				}
			}
			mu.Lock()
			visited = append(visited, id)
			mu.Unlock()
		})
		for shard, list := range ids {
			if !slices.IsSorted(list) {
				t.Errorf("%d shards: shard %d visited %q, not in ID order", shards, shard, list)
			}
		}
		run, err := db.Run(Query{Range: r})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(run))
		for i, s := range run {
			want[i] = s.ID()
		}
		slices.Sort(visited)
		if n != len(run) || !slices.Equal(visited, want) {
			t.Errorf("%d shards: visited %d %q, Run returned %q", shards, n, visited, want)
		}
		if got := metQueries.Value() - queries; got != 2 { // the visit and the Run
			t.Errorf("%d shards: %d queries counted, want 2", shards, got)
		}
		if got := db.shardScans() - scans; got != uint64(2*shards) {
			t.Errorf("%d shards: %d shard scans counted, want %d", shards, got, 2*shards)
		}
	}
}

// shardScans sums the per-shard scan counters.
func (db *DB) shardScans() uint64 {
	var n uint64
	for _, sh := range db.shards {
		n += sh.scans.Value()
	}
	return n
}
