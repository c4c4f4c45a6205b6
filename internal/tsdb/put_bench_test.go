package tsdb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	ts "explainit/internal/timeseries"
)

// BenchmarkPut measures the single-observation ingest hot path on an
// existing series. Before the ID scratch fast path every call allocated
// name+tags.String() (sorted-key slice, builder buffer, concat) just to
// look the series up; now an existing-series Put allocates nothing beyond
// amortised sample-slice growth.
func BenchmarkPut(b *testing.B) {
	db := New()
	tags := ts.Tags{"host": "datanode-1", "type": "read_latency"}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	db.Put("disk", tags, at, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put("disk", tags, at.Add(time.Duration(i)*time.Second), float64(i))
	}
}

// TestPutExistingSeriesDoesNotAllocate pins the fast path: once a series
// exists, Put must not allocate to build the lookup ID (sample-slice
// growth is amortised away by pre-filling).
func TestPutExistingSeriesDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under -race; the pin only holds in normal builds")
	}
	db := New()
	tags := ts.Tags{"host": "datanode-1", "type": "read_latency"}
	at := t0
	n := 0
	next := func() time.Time { n++; return at.Add(time.Duration(n) * time.Second) }
	for i := 0; i < 1<<17; i++ { // columns this long grow at most once in the measured puts
		db.Put("disk", tags, next(), 1)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		db.Put("disk", tags, next(), 1)
	})
	if allocs > 0.5 {
		t.Fatalf("existing-series Put allocates %.2f times per op", allocs)
	}
}

// TestStoreBytesPerSample is the store's space budget at the rank_narrow
// shape: 2000 series x 288 samples, loaded through PutBatch in 65,536-record
// chunks (time-major, as a scrape writes them) into 8 shards. The live heap
// the loaded store holds may be at most 24 B per sample. A sample held as a
// 32 B ts.Sample in an append-doubled slice cost ~37 B; as 16 B of columns
// grown by a quarter it costs ~20, series headers and indexes included.
func TestStoreBytesPerSample(t *testing.T) {
	const (
		nSeries  = 2000
		nSamples = 288
		chunk    = 65536
		budget   = 24.0
	)
	tags := make([]map[string]string, nSeries)
	for i := range tags {
		tags[i] = map[string]string{"host": fmt.Sprintf("dn-%d", i%50), "idx": fmt.Sprint(i)}
	}
	base := heapLive()
	db := NewWithShards(8)
	recs := make([]Record, 0, chunk)
	for k := 0; k < nSeries*nSamples; k++ {
		i, j := k%nSeries, k/nSeries
		recs = append(recs, Record{Metric: fmt.Sprintf("metric_%d", i/4), Tags: tags[i], TS: t0.Add(time.Duration(j) * time.Minute), Value: float64(k)})
		if len(recs) == chunk || k == nSeries*nSamples-1 {
			if err := db.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	live := heapLive() - base
	if got := db.NumSamples(); got != nSeries*nSamples {
		t.Fatalf("%d samples stored, want %d", got, nSeries*nSamples)
	}
	perSample := float64(live) / float64(nSeries*nSamples)
	t.Logf("store holds %.1f B per sample (%d B live for %d samples)", perSample, live, nSeries*nSamples)
	if perSample > budget {
		t.Fatalf("store holds %.1f B per sample, budget %.0f", perSample, budget)
	}
	runtime.KeepAlive(db)
}

// heapLive returns the bytes of live heap objects after a full collection.
func heapLive() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestConcurrentPutSaveRace drives out-of-order Puts against repeated
// Saves. Save must produce a decodable, fully sorted snapshot every time —
// under the old RLock-adjacent sorting it could emit unsorted series (and
// `go test -race` flags the lock misuse). Writers are bounded: Save only
// pauses one shard at a time, so unbounded writers could grow the store —
// and each round's full-store copy — without limit on a slow machine.
func TestConcurrentPutSaveRace(t *testing.T) {
	const putsPerWriter = 20000
	db := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate forwards/backwards so the store keeps flipping
				// into the unsorted state.
				off := i % 256
				if i%2 == 1 {
					off = 256 - off
				}
				db.Put("m", ts.Tags{"w": string(rune('a' + w))}, t0.Add(time.Duration(off)*time.Second), float64(i))
			}
		}(w)
	}
	for round := 0; round < 50; round++ {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatalf("round %d: snapshot not decodable: %v", round, err)
		}
		for _, ss := range snap.Series {
			for i := 1; i < len(ss.Samples); i++ {
				if ss.Samples[i].TS.Before(ss.Samples[i-1].TS) {
					t.Fatalf("round %d: snapshot series %s is unsorted", round, ss.Name)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
