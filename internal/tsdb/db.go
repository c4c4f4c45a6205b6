// Package tsdb is a small time series database in the OpenTSDB mould:
// metrics are identified by name plus key/value tags, samples are appended
// per minute (or any resolution), and queries filter by metric name, tag
// equality, tag patterns and time range. It plays the role of the
// "external data sources" in ExplainIt!'s pipeline (Figure 4); the SQL
// layer reads from it through the catalog in internal/sqlexec.
package tsdb

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"explainit/internal/obs"
	"explainit/internal/storage"
	ts "explainit/internal/timeseries"
)

// DB is a concurrency-safe time series store hash-sharded by series
// identity: each shard owns a disjoint slice of the series universe with
// its own mutex and inverted indexes, so concurrent writers and readers
// touching different series do not contend on one lock. Query results are
// merged across shards ordered by series ID, making them bitwise
// independent of the shard count. By default the store is purely
// in-memory; Open returns a DB where every shard is additionally backed by
// its own durable storage engine (per-shard WAL + compressed chunks, see
// internal/storage) to which every Put is write-through.
type DB struct {
	shards []*shard

	werrMu sync.Mutex
	walErr error // first WAL append failure from the error-less Put path
}

// shard is one lock domain: the series whose identity hashes to it, the
// inverted indexes over just those series, and (in durable mode) the
// storage engine holding exactly their samples.
type shard struct {
	// wmu orders durable writers against each other and against the
	// retention sweep: it is held across (WAL append, memory apply) so a
	// record is never durable-pruned by a concurrent Retain after its WAL
	// commit but before its memory apply (which would make memory and
	// disk diverge). Writers already serialise on the WAL internally, so
	// wmu costs them nothing extra; readers never take it, so queries
	// don't wait on fsyncs. Unused (never locked) in memory-only mode.
	// Lock order: wmu before mu.
	wmu    sync.Mutex
	mu     sync.RWMutex
	series map[string]*ts.Series // by series ID
	// Inverted indexes. Values are sets of series IDs.
	byName map[string]map[string]struct{}
	byTag  map[string]map[string]struct{} // key "k=v"
	sorted bool

	// seq is the shard's ingest watermark: a monotonic sequence bumped once
	// per applied mutation batch (Put, putBatch partition, retention sweep
	// that pruned something). Result caches snapshot it to detect whether
	// any data under them changed. Bumps happen inside the mu critical
	// section that applies the mutation, so an observer that sees the bump
	// is guaranteed to also see the data once it takes the read lock.
	seq atomic.Uint64

	store *storage.Store // immutable after Open; nil in memory-only mode

	// scans counts query executions against this shard, labeled by shard
	// index (handle resolved at construction; nil-safe if never wired).
	scans *obs.Counter
}

// DefaultShards is the shard count used when neither NewWithShards /
// Options.Shards nor the EXPLAINIT_SHARDS environment variable picks one.
const DefaultShards = 8

// maxShards bounds the shard count: beyond a few hundred the per-shard
// fixed costs (locks, maps, WAL segments) outweigh any contention win.
const maxShards = 256

// defaultShardCount resolves the ambient shard count: EXPLAINIT_SHARDS if
// set to a sane value (the CI race matrix uses this to sweep shard
// counts), else DefaultShards.
func defaultShardCount() int {
	if v := os.Getenv("EXPLAINIT_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 && n <= maxShards {
			return n
		}
	}
	return DefaultShards
}

// New creates an empty in-memory database with the default shard count.
func New() *DB { return NewWithShards(0) }

// NewWithShards creates an empty in-memory database with n shards
// (n <= 0 selects the default). Query results do not depend on n.
func NewWithShards(n int) *DB {
	if n <= 0 {
		n = defaultShardCount()
	}
	if n > maxShards {
		n = maxShards
	}
	db := &DB{shards: make([]*shard, n)}
	for i := range db.shards {
		db.shards[i] = newShard()
		db.shards[i].scans = obs.Default().Counter("explainit_tsdb_shard_scans_total", "shard", strconv.Itoa(i))
	}
	return db
}

func newShard() *shard {
	return &shard{
		series: make(map[string]*ts.Series),
		byName: make(map[string]map[string]struct{}),
		byTag:  make(map[string]map[string]struct{}),
		sorted: true,
	}
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// idBuf is a reusable canonical-ID builder. Put-path callers borrow one
// from idPool (or keep a private one) so building the ID — done once per
// record, outside any shard lock — never allocates in steady state.
type idBuf struct {
	buf  []byte
	keys []string
}

var idPool = sync.Pool{New: func() any { return new(idBuf) }}

// appendID renders the canonical series ID "name{k=v,...}" (tags sorted)
// into b and returns it. The bytes must stay identical to
// name + tags.String() — the one definition of series identity shared
// with Series.ID and the storage compactor. The returned slice aliases b.
func (b *idBuf) appendID(name string, tags ts.Tags) []byte {
	buf := append(b.buf[:0], name...)
	buf = append(buf, '{')
	if len(tags) > 0 {
		keys := b.keys[:0]
		for k := range tags {
			keys = append(keys, k)
		}
		// One or two tags is the overwhelmingly common case; skip
		// sort.Strings' setup cost for it.
		switch len(keys) {
		case 1:
		case 2:
			if keys[1] < keys[0] {
				keys[0], keys[1] = keys[1], keys[0]
			}
		default:
			sort.Strings(keys)
		}
		b.keys = keys
		for i, k := range keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, k...)
			buf = append(buf, '=')
			buf = append(buf, tags[k]...)
		}
	}
	buf = append(buf, '}')
	b.buf = buf
	return buf
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndexID routes a canonical series ID to its shard: FNV-style over
// the ID bytes — four bytes per multiply, so one data-dependent
// multiplication per word instead of per byte — plus an fmix64 finalizer
// before the modulo. Pure function of the ID, so a series always lands on
// the same shard for a given count.
func (db *DB) shardIndexID(id []byte) int {
	if len(db.shards) == 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	i := 0
	for ; i+4 <= len(id); i += 4 {
		w := uint64(id[i]) | uint64(id[i+1])<<8 | uint64(id[i+2])<<16 | uint64(id[i+3])<<24
		h = (h ^ w) * fnvPrime64
	}
	for ; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(db.shards)))
}

func (db *DB) shardForID(id []byte) *shard {
	return db.shards[db.shardIndexID(id)]
}

// Put appends one observation. The series is created on first use. In
// durable mode the record is WAL-logged to its shard's store first; log
// failures are sticky and surface from Close/Flush (use PutBatch for an
// error-checked path). Concurrent Puts commit to their shard's WAL in
// fsync order, which for concurrent writers to the same series at the same
// timestamp may differ from the in-memory apply order — such racing writes
// have no defined order in either mode.
func (db *DB) Put(name string, tags ts.Tags, at time.Time, value float64) {
	ib := idPool.Get().(*idBuf)
	id := ib.appendID(name, tags)
	sh := db.shardForID(id)
	if sh.store != nil {
		sh.wmu.Lock()
		recs := [1]storage.Record{{Metric: name, Tags: tags, TS: at, Value: value}}
		if err := sh.store.Append(recs[:]); err != nil {
			db.setWALErr(err)
		}
	}
	sh.mu.Lock()
	sh.putLocked(id, name, tags, at, value)
	sh.seq.Add(1)
	sh.mu.Unlock()
	if sh.store != nil {
		sh.wmu.Unlock()
	}
	idPool.Put(ib)
	noteIngest(1)
}

// PutBatch appends a batch of observations. The batch is partitioned by
// shard (preserving per-series order) and the partitions are committed in
// parallel — in durable mode each shard's partition is one WAL group
// commit (one fsync), and the fsyncs of different shards overlap. This is
// the bulk-ingest path connectors stream through. On error some shards'
// partitions may have been applied and others not; per-series atomicity
// still holds, since one series maps to exactly one shard.
func (db *DB) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if len(db.shards) == 1 {
		return db.shards[0].putBatch(recs, nil, nil)
	}
	// Partition per shard, keeping each record's canonical ID (built once
	// here, for routing) in a per-shard arena so the apply pass below
	// doesn't rebuild it.
	parts := make([]shardBatch, len(db.shards))
	ib := idPool.Get().(*idBuf)
	for _, r := range recs {
		id := ib.appendID(r.Metric, ts.Tags(r.Tags))
		p := &parts[db.shardIndexID(id)]
		p.recs = append(p.recs, r)
		p.ids = append(p.ids, id...)
		p.ends = append(p.ends, len(p.ids))
	}
	idPool.Put(ib)
	active := make([]int, 0, len(parts))
	for i := range parts {
		if len(parts[i].recs) > 0 {
			active = append(active, i)
		}
	}
	if len(active) == 1 {
		p := &parts[active[0]]
		return db.shards[active[0]].putBatch(p.recs, p.ids, p.ends)
	}
	errs := make([]error, len(active))
	var wg sync.WaitGroup
	for j, i := range active {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			p := &parts[i]
			errs[j] = db.shards[i].putBatch(p.recs, p.ids, p.ends)
		}(j, i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardBatch is one shard's slice of a PutBatch: its records plus their
// canonical IDs, concatenated into an arena with per-record end offsets.
type shardBatch struct {
	recs []Record
	ids  []byte
	ends []int
}

// putBatch commits one shard's partition: WAL group commit first (durable
// mode), then the in-memory apply, with wmu held across both so the batch
// can't straddle a retention sweep. ids/ends carry the records' prebuilt
// canonical IDs (arena + end offsets); nil means build them here.
func (sh *shard) putBatch(recs []Record, ids []byte, ends []int) error {
	if sh.store != nil {
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		if err := sh.store.Append(recs); err != nil {
			return err
		}
	}
	var ib *idBuf
	if ends == nil {
		ib = idPool.Get().(*idBuf)
	}
	sh.mu.Lock()
	start := 0
	for i, r := range recs {
		tags := ts.Tags(r.Tags)
		var id []byte
		if ends != nil {
			id = ids[start:ends[i]]
			start = ends[i]
		} else {
			id = ib.appendID(r.Metric, tags)
		}
		sh.putLocked(id, r.Metric, tags, r.TS, r.Value)
	}
	sh.seq.Add(1)
	sh.mu.Unlock()
	if ib != nil {
		idPool.Put(ib)
	}
	noteIngest(len(recs))
	return nil
}

// putLocked inserts one observation; caller holds the shard's write lock
// and passes the prebuilt canonical ID bytes (idBuf.appendID), so looking
// up an existing series allocates nothing (the common case under
// sustained ingest); only a brand-new series materialises the ID string.
func (sh *shard) putLocked(id []byte, name string, tags ts.Tags, at time.Time, value float64) {
	s, ok := sh.series[string(id)] // compiler elides the conversion alloc
	if !ok {
		idStr := string(id)
		s = &ts.Series{Name: name, Tags: tags.Clone()}
		sh.series[idStr] = s
		addIndex(sh.byName, name, idStr)
		for k, v := range tags {
			addIndex(sh.byTag, k+"="+v, idStr)
		}
	}
	if n := len(s.Samples); n > 0 && at.Before(s.Samples[n-1].TS) {
		sh.sorted = false
	}
	s.Append(at, value)
}

// PutSeries bulk-loads a whole series (merging with any existing one)
// through the batch path: on a durable store the load is one WAL group
// commit instead of one fsync per sample.
func (db *DB) PutSeries(s *ts.Series) error {
	recs := make([]Record, len(s.Samples))
	for i, smp := range s.Samples {
		recs[i] = Record{Metric: s.Name, Tags: s.Tags, TS: smp.TS, Value: smp.Value}
	}
	return db.PutBatch(recs)
}

func addIndex(idx map[string]map[string]struct{}, key, id string) {
	set, ok := idx[key]
	if !ok {
		set = make(map[string]struct{})
		idx[key] = set
	}
	set[id] = struct{}{}
}

// sortLocked sorts the shard's series in place if needed; caller holds the
// shard's write lock.
func (sh *shard) sortLocked() {
	if sh.sorted {
		return
	}
	for _, s := range sh.series {
		s.Sort()
	}
	sh.sorted = true
}

// Watermarks snapshots every shard's ingest watermark, index-aligned with
// the shard layout. Two equal snapshots bracket a window in which no shard
// applied a mutation (no Put/PutBatch partition, no pruning Retain), so any
// result computed strictly inside the window is still valid — the
// invalidation signal for the ranking result cache. The snapshot is not
// atomic across shards; a concurrent writer makes the snapshots differ,
// which errs on the side of invalidation, never staleness.
func (db *DB) Watermarks() []uint64 {
	wm := make([]uint64, len(db.shards))
	for i, sh := range db.shards {
		wm[i] = sh.seq.Load()
	}
	return wm
}

// NumSeries returns the number of distinct series.
func (db *DB) NumSeries() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// NumSamples returns the total number of stored samples.
func (db *DB) NumSamples() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, s := range sh.series {
			n += s.Len()
		}
		sh.mu.RUnlock()
	}
	return n
}

// MetricNames returns the sorted list of distinct metric names.
func (db *DB) MetricNames() []string {
	set := make(map[string]struct{})
	for _, sh := range db.shards {
		sh.mu.RLock()
		for n := range sh.byName {
			set[n] = struct{}{}
		}
		sh.mu.RUnlock()
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TagValues returns the sorted distinct values seen for a tag key.
func (db *DB) TagValues(key string) []string {
	prefix := key + "="
	set := make(map[string]struct{})
	for _, sh := range db.shards {
		sh.mu.RLock()
		for kv := range sh.byTag {
			if strings.HasPrefix(kv, prefix) {
				set[kv[len(prefix):]] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// Query selects series matching the given criteria. All zero-valued fields
// are wildcards. NamePattern and tag-value patterns support '*' globs
// (translated to regular expressions), which is how users write groupings
// such as disk{host=datanode*} (§3.2).
type Query struct {
	Metric      string  // exact metric name ("" = any)
	NamePattern string  // glob over metric names ("" = any)
	Tags        ts.Tags // exact tag matches (all must hold)
	TagPatterns ts.Tags // glob tag matches (all must hold)
	Range       ts.TimeRange
}

// Retain drops all samples outside the given range across every series and
// removes series that become empty — the retention sweep any production
// TSDB runs. Shards are swept in parallel. On a durable store the sweep
// also rewrites each shard's blocks and WAL (retention compaction, see
// storage.Store.Retain), so pruned samples stay gone after Close/Open. It
// returns the number of samples pruned from memory.
func (db *DB) Retain(r ts.TimeRange) (int, error) {
	removed := make([]int, len(db.shards))
	err := db.forEachShard(func(i int, sh *shard) error {
		var serr error
		removed[i], serr = sh.retain(r)
		return serr
	})
	total := 0
	for _, n := range removed {
		total += n
	}
	return total, err
}

// retain prunes one shard's memory and, in durable mode, its store. wmu
// is held across both so no durable writer can slip a record between the
// memory sweep and the disk rewrite (which would leave memory and disk
// disagreeing about the sample); readers only wait for the in-memory
// sweep, not for the block rewrites.
func (sh *shard) retain(r ts.TimeRange) (int, error) {
	if sh.store != nil {
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
	}
	sh.mu.Lock()
	sh.sortLocked()
	removed := 0
	for id, s := range sh.series {
		kept := s.Slice(r)
		removed += s.Len() - len(kept)
		if len(kept) == 0 {
			delete(sh.series, id)
			removeIndex(sh.byName, s.Name, id)
			for k, v := range s.Tags {
				removeIndex(sh.byTag, k+"="+v, id)
			}
			continue
		}
		s.Samples = append([]ts.Sample(nil), kept...)
	}
	if removed > 0 {
		sh.seq.Add(1)
	}
	sh.mu.Unlock()
	if sh.store != nil {
		if _, err := sh.store.Retain(r.From, r.To); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func removeIndex(idx map[string]map[string]struct{}, key, id string) {
	if set, ok := idx[key]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(idx, key)
		}
	}
}

// Bounds returns the earliest and latest sample timestamps in the store.
// ok is false when the store is empty. On a sorted shard (the steady
// state) only the first and last sample of every series is read — not
// every sample; an unsorted shard falls back to a full scan under the
// same lock, since the sorted flag is only trustworthy while it is held.
func (db *DB) Bounds() (min, max time.Time, ok bool) {
	widen := func(first, last time.Time) {
		if !ok {
			min, max, ok = first, last, true
			return
		}
		if first.Before(min) {
			min = first
		}
		if last.After(max) {
			max = last
		}
	}
	for _, sh := range db.shards {
		sh.mu.RLock()
		for _, s := range sh.series {
			if len(s.Samples) == 0 {
				continue
			}
			if sh.sorted {
				widen(s.Samples[0].TS, s.Samples[len(s.Samples)-1].TS)
				continue
			}
			for _, smp := range s.Samples {
				widen(smp.TS, smp.TS)
			}
		}
		sh.mu.RUnlock()
	}
	return min, max, ok
}
