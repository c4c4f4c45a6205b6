package tsdb

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"explainit/internal/storage"
	ts "explainit/internal/timeseries"
)

// invarianceShardCounts are the counts the acceptance contract names: a
// trivial single shard, a power of two, and a prime that divides nothing.
var invarianceShardCounts = []int{1, 4, 7}

func TestShardCountInvarianceInMemory(t *testing.T) {
	ref := NewWithShards(1)
	mixedWorkload(func(name string, tags ts.Tags, at time.Time, v float64) {
		ref.Put(name, tags, at, v)
	})
	for _, n := range invarianceShardCounts[1:] {
		db := NewWithShards(n)
		mixedWorkload(func(name string, tags ts.Tags, at time.Time, v float64) {
			db.Put(name, tags, at, v)
		})
		sameQueryResults(t, db, ref)
	}
}

func TestShardCountInvarianceDurable(t *testing.T) {
	ref := NewWithShards(1)
	mixedWorkload(func(name string, tags ts.Tags, at time.Time, v float64) {
		ref.Put(name, tags, at, v)
	})
	for _, n := range invarianceShardCounts {
		dir := t.TempDir()
		dur, err := OpenWithOptions(dir, Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		if dur.NumShards() != n {
			t.Fatalf("shards %d, want %d", dur.NumShards(), n)
		}
		mixedWorkload(func(name string, tags ts.Tags, at time.Time, v float64) {
			dur.Put(name, tags, at, v)
		})
		sameQueryResults(t, dur, ref)
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		// After reopen: recovered from per-shard WALs/blocks.
		re, err := Open(dir) // note: no Shards option — the meta pins it
		if err != nil {
			t.Fatal(err)
		}
		if re.NumShards() != n {
			t.Fatalf("reopened shards %d, want pinned %d", re.NumShards(), n)
		}
		sameQueryResults(t, re, ref)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRetainSurvivesReopen is the headline retention contract:
// Retain on a durable store prunes blocks and WAL too, so a Close/Open
// cycle no longer resurrects pruned samples.
func TestDurableRetainSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	dur, err := OpenWithOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	mem := feedBoth(t, dur, mixedWorkload)

	keep := ts.TimeRange{From: t0.Add(60 * time.Minute), To: t0.Add(200 * time.Minute)}
	memRemoved, err := mem.Retain(keep)
	if err != nil {
		t.Fatal(err)
	}
	durRemoved, err := dur.Retain(keep)
	if err != nil {
		t.Fatal(err)
	}
	if durRemoved != memRemoved {
		t.Fatalf("durable retain removed %d, in-memory %d", durRemoved, memRemoved)
	}
	sameQueryResults(t, dur, mem)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumSamples() != mem.NumSamples() {
		t.Fatalf("reopen resurrected samples: %d, want %d", re.NumSamples(), mem.NumSamples())
	}
	sameQueryResults(t, re, mem)
}

// TestDurableRetainAfterFlush exercises retention over compacted blocks
// (not just WAL tails) across several flush generations.
func TestDurableRetainAfterFlush(t *testing.T) {
	dir := t.TempDir()
	dur, err := OpenWithOptions(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mem := New()
	for gen := 0; gen < 3; gen++ {
		base := t0.Add(time.Duration(gen) * time.Hour)
		for i := 0; i < 60; i++ {
			at := base.Add(time.Duration(i) * time.Minute)
			mem.Put("m", ts.Tags{"gen": string(rune('a' + gen))}, at, float64(i))
			dur.Put("m", ts.Tags{"gen": string(rune('a' + gen))}, at, float64(i))
		}
		if err := dur.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	keep := ts.TimeRange{From: t0.Add(90 * time.Minute), To: t0.Add(10 * time.Hour)}
	if _, err := mem.Retain(keep); err != nil {
		t.Fatal(err)
	}
	if _, err := dur.Retain(keep); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameQueryResults(t, re, mem)
}

func TestShardMetaPinsCount(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.Put("m", ts.Tags{"k": "v"}, t0, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 {
		t.Fatalf("shard meta did not pin count: got %d, want 4", re.NumShards())
	}
	if re.NumSamples() != 1 {
		t.Fatalf("samples %d", re.NumSamples())
	}
}

// TestLegacyLayoutMigration opens a directory written by the pre-sharding
// single-store layout and expects a transparent upgrade: all records
// recovered, legacy files retired, the shard count pinned.
func TestLegacyLayoutMigration(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := New()
	var batch []Record
	mixedWorkload(func(name string, tags ts.Tags, at time.Time, v float64) {
		mem.Put(name, tags, at, v)
		batch = append(batch, Record{Metric: name, Tags: tags, TS: at, Value: v})
	})
	if err := st.Append(batch[:500]); err != nil { // part compacted to blocks
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(batch[500:]); err != nil { // part left in the WAL
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := OpenWithOptions(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameQueryResults(t, db, mem)
	legacy, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(legacy) != 0 {
		t.Fatalf("legacy wal segments left behind: %v (err %v)", legacy, err)
	}
	legacy, err = filepath.Glob(filepath.Join(dir, "block-*.blk"))
	if err != nil || len(legacy) != 0 {
		t.Fatalf("legacy blocks left behind: %v (err %v)", legacy, err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardsMetaName)); err != nil {
		t.Fatalf("shard meta missing after migration: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Second open replays from the shard stores only.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 {
		t.Fatalf("migrated shards %d, want 4", re.NumShards())
	}
	sameQueryResults(t, re, mem)
}

// TestStrayRootStoreFilesQuarantined: top-level store files appearing in
// an already-migrated directory (a crashed migration cleanup — or a
// pre-sharding binary that wrote there after a rollback) must never be
// silently deleted; they are moved into the quarantine subdirectory and
// the store opens normally without replaying them.
func TestStrayRootStoreFilesQuarantined(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	db.Put("m", nil, t0, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A pre-sharding binary pointed at this dir would write a root store.
	st, err := storage.Open(dir, storage.Options{NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]Record{{Metric: "rollback", TS: t0, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumSamples() != 1 {
		t.Fatalf("samples %d, want 1 (stray store must not replay)", re.NumSamples())
	}
	stray, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(stray) != 0 {
		t.Fatalf("stray root files not moved: %v (err %v)", stray, err)
	}
	saved, err := filepath.Glob(filepath.Join(dir, quarantineDirName, "*"))
	if err != nil || len(saved) == 0 {
		t.Fatalf("quarantine empty: %v (err %v)", saved, err)
	}
}

// TestConcurrentShardedOps hammers a multi-shard durable store with
// concurrent Put, PutBatch, Query, Save and Retain — the -race coverage
// for the per-shard locking.
func TestConcurrentShardedOps(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			host := string(rune('a' + w))
			var batch []Record
			for i := 0; i < perWriter; i++ {
				at := t0.Add(time.Duration(rng.Intn(600)) * time.Minute)
				if i%3 == 0 {
					batch = append(batch, Record{Metric: "batched", Tags: ts.Tags{"host": host}, TS: at, Value: float64(i)})
					if len(batch) == 16 {
						if err := db.PutBatch(batch); err != nil {
							t.Error(err)
							return
						}
						batch = nil
					}
				} else {
					db.Put("direct", ts.Tags{"host": host, "w": host}, at, float64(i))
				}
			}
			if len(batch) > 0 {
				if err := db.PutBatch(batch); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Run(Query{NamePattern: "*ect", TagPatterns: ts.Tags{"host": "*"}}); err != nil {
					t.Error(err)
					return
				}
				if _, _, ok := db.Bounds(); ok {
					var buf bytes.Buffer
					if err := db.Save(&buf); err != nil {
						t.Error(err)
						return
					}
				}
				if r == 0 {
					if _, err := db.Retain(ts.TimeRange{From: t0, To: t0.Add(2000 * time.Minute)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumSamples() != writers*perWriter {
		t.Fatalf("recovered %d samples, want %d", re.NumSamples(), writers*perWriter)
	}
}

func TestPutSeriesDurableAndErrorAfterClose(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := &ts.Series{Name: "cpu", Tags: ts.Tags{"host": "a"}}
	for i := 0; i < 100; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if err := db.PutSeries(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// PutSeries routes through the batch path, so a closed store must
	// reject it rather than acknowledge memory-only.
	if err := db.PutSeries(s); err == nil {
		t.Fatal("PutSeries after Close must fail")
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumSamples() != 100 {
		t.Fatalf("recovered %d samples, want 100", re.NumSamples())
	}
}

func TestShardCountFromEnv(t *testing.T) {
	t.Setenv("EXPLAINIT_SHARDS", "5")
	if n := New().NumShards(); n != 5 {
		t.Fatalf("EXPLAINIT_SHARDS ignored: %d shards", n)
	}
	t.Setenv("EXPLAINIT_SHARDS", "not-a-number")
	if n := New().NumShards(); n != DefaultShards {
		t.Fatalf("bad EXPLAINIT_SHARDS must fall back to default, got %d", n)
	}
}
