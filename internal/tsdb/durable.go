package tsdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"explainit/internal/storage"
	ts "explainit/internal/timeseries"
)

// Record is one observation in the durable interchange form (the WAL batch
// unit). Tags may be nil; timestamps are persisted as UTC nanoseconds.
type Record = storage.Record

// Options tunes Open.
type Options struct {
	// Shards fixes the shard count for a NEW store directory (<= 0 selects
	// the default, see DefaultShards / EXPLAINIT_SHARDS). An existing
	// directory's count is pinned by its SHARDS meta file and always wins,
	// so data written by one process layout is never re-split by another.
	Shards int
	// Storage tunes each shard's storage engine.
	Storage storage.Options
}

// Open returns a DB where every shard is backed by its own durable storage
// engine rooted at dir/shard-<i>: a write-ahead log for fresh ingest and
// compressed columnar chunks for compacted history. All previously
// committed data is recovered (sealed WAL segments replayed, torn tail
// records truncated, checkpointed blocks loaded) and the in-memory
// inverted indexes are rebuilt, after which queries behave — and return —
// exactly as on an in-memory DB fed the same Puts.
func Open(dir string) (*DB, error) {
	return OpenWithOptions(dir, Options{})
}

// shardsMetaName is the file pinning a durable directory's shard count.
// It is written exactly once, when the directory is created (or when a
// legacy layout finishes migrating), and read back on every Open.
const shardsMetaName = "SHARDS"

// OpenWithOptions is Open with explicit shard-count and storage tuning.
//
// A directory written by the pre-sharding layout (WAL segments and blocks
// directly under dir) is migrated on first open: every committed record is
// streamed into its shard's store, the meta file is written, and the old
// files are deleted. The migration is crash-safe — the meta file is
// written only after all records are durable in the shard stores, so a
// crash before it redoes the migration from the untouched legacy files and
// a crash after it merely quarantines the fully-copied leftovers (see
// quarantineFiles).
func OpenWithOptions(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = defaultShardCount()
	}
	if shards > maxShards {
		shards = maxShards
	}

	pinned, havePinned, err := readShardMeta(dir)
	if err != nil {
		return nil, err
	}
	legacy, err := legacyStoreFiles(dir)
	if err != nil {
		return nil, err
	}
	migrate := false
	switch {
	case havePinned:
		shards = pinned
		// Top-level store files alongside a meta file usually mean a
		// migration that crashed after its meta write (every record
		// already in the shard stores) — but they could also be fresh
		// writes from a pre-sharding binary pointed at this directory
		// after the migration. The two are indistinguishable here, so
		// never delete: move the files into a quarantine subdirectory,
		// out of every replay path but preserved for manual recovery.
		if err := quarantineFiles(dir, legacy); err != nil {
			return nil, err
		}
	case len(legacy) > 0:
		// Pre-sharding layout. Shard dirs without a meta file are the
		// debris of a migration that crashed before its meta write (meta
		// is otherwise always written before the first shard dir); their
		// contents duplicate the legacy files, so wipe and redo.
		if err := removeShardDirs(dir); err != nil {
			return nil, err
		}
		migrate = true
	default:
		// Fresh directory: pin the count before creating any shard dir
		// (the invariant the crashed-migration detection above relies on).
		if err := writeShardMeta(dir, shards); err != nil {
			return nil, err
		}
	}

	db := NewWithShards(shards)
	var opened []*storage.Store
	fail := func(err error) (*DB, error) {
		for _, st := range opened {
			st.Close()
		}
		return nil, err
	}
	for i, sh := range db.shards {
		st, err := storage.Open(shardDir(dir, i), opts.Storage)
		if err != nil {
			return fail(err)
		}
		opened = append(opened, st)
		sh.store = st
	}

	if migrate {
		if err := db.migrateLegacy(dir, legacy); err != nil {
			return fail(fmt.Errorf("tsdb: migrating legacy store %s: %w", dir, err))
		}
	}

	// Replay every shard's store into its in-memory index, in parallel.
	// Records were routed to a store by the same hash that owns the
	// in-memory shard, so store i replays straight into shard i.
	err = db.forEachShard(func(_ int, sh *shard) error {
		var ib idBuf
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.store.Replay(func(rec storage.Record) error {
			tags := ts.Tags(rec.Tags)
			sh.putLocked(ib.appendID(rec.Metric, tags), rec.Metric, tags, rec.TS.UnixNano(), rec.Value)
			return nil
		})
	})
	if err != nil {
		return fail(fmt.Errorf("tsdb: recovering %s: %w", dir, err))
	}
	return db, nil
}

// forEachShard runs fn on every shard concurrently and joins the errors.
func (db *DB) forEachShard(fn func(i int, sh *shard) error) error {
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i, sh := range db.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// migrateLegacy streams every committed record of a pre-sharding store
// into the per-shard stores (hash-routed, batched group commits), flushes
// them, pins the shard count, and retires the legacy files.
func (db *DB) migrateLegacy(dir string, legacy []string) error {
	const migrateBatch = 4096
	parts := make([][]storage.Record, len(db.shards))
	flush := func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		err := db.shards[i].store.Append(parts[i])
		parts[i] = parts[i][:0]
		return err
	}
	var ib idBuf
	// ReplayDir shares one Tags map across a series' records; the batch
	// buffers outlive the callback, so the map must be cloned — once per
	// series (keyed by canonical ID), not once per record.
	clones := make(map[string]map[string]string)
	err := storage.ReplayDir(dir, func(rec storage.Record) error {
		id := ib.appendID(rec.Metric, ts.Tags(rec.Tags))
		i := db.shardIndexID(id)
		if rec.Tags != nil {
			cl, ok := clones[string(id)]
			if !ok {
				cl = ts.Tags(rec.Tags).Clone()
				clones[string(id)] = cl
			}
			rec.Tags = cl
		}
		parts[i] = append(parts[i], rec)
		if len(parts[i]) >= migrateBatch {
			return flush(i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range parts {
		if err := flush(i); err != nil {
			return err
		}
	}
	// Force everything into durable state regardless of the sync policy
	// before the meta write makes the migration final.
	for _, sh := range db.shards {
		if err := sh.store.Flush(); err != nil {
			return err
		}
	}
	if err := writeShardMeta(dir, len(db.shards)); err != nil {
		return err
	}
	return removeFiles(dir, legacy)
}

// legacyStoreFiles lists WAL segment and block files directly under dir —
// the pre-sharding single-store layout.
func legacyStoreFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && storage.IsStoreFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func removeFiles(dir string, names []string) error {
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("tsdb: %w", err)
		}
	}
	return nil
}

// quarantineDirName holds top-level store files found in an
// already-migrated directory. They are either fully-migrated leftovers of
// a crashed migration cleanup or data written by a pre-sharding binary;
// moving them aside keeps the open self-healing without ever destroying
// bytes an operator might need.
const quarantineDirName = "legacy-quarantine"

func quarantineFiles(dir string, names []string) error {
	if len(names) == 0 {
		return nil
	}
	qdir := filepath.Join(dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	for _, name := range names {
		dst := filepath.Join(qdir, name)
		if _, err := os.Stat(dst); err == nil {
			// A same-named file was quarantined earlier; keep both.
			dst += fmt.Sprintf(".%d", time.Now().UnixNano())
		}
		if err := os.Rename(filepath.Join(dir, name), dst); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("tsdb: %w", err)
		}
	}
	return nil
}

func removeShardDirs(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("tsdb: %w", err)
			}
		}
	}
	return nil
}

func readShardMeta(dir string) (int, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardsMetaName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("tsdb: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || n < 1 || n > maxShards {
		return 0, false, fmt.Errorf("tsdb: %s: bad shard meta %q", dir, strings.TrimSpace(string(data)))
	}
	return n, true, nil
}

// writeShardMeta durably pins the shard count via the storage engine's
// atomic-write recipe (tmp file, fsync, rename, directory fsync).
func writeShardMeta(dir string, n int) error {
	path := filepath.Join(dir, shardsMetaName)
	if err := storage.WriteFileAtomic(path, []byte(strconv.Itoa(n)+"\n")); err != nil {
		return fmt.Errorf("tsdb: shard meta: %w", err)
	}
	return nil
}

// Durable reports whether the DB is backed by the storage engine.
func (db *DB) Durable() bool { return db.shards[0].store != nil }

// Flush forces all WAL data into compressed chunk blocks, shard by shard
// in parallel. It is a no-op for an in-memory DB.
func (db *DB) Flush() error {
	if !db.Durable() {
		return nil
	}
	werr := db.takeWALErr()
	return errors.Join(werr, db.forEachShard(func(_ int, sh *shard) error {
		return sh.store.Flush()
	}))
}

// Close flushes and releases every shard's storage engine (no-op for an
// in-memory DB). It returns any WAL append error swallowed by the
// error-less Put path, so no write failure goes unnoticed. The store
// handles are kept so that writes racing or following Close fail loudly
// (PutBatch errors, Put records a sticky error) instead of being
// acknowledged memory-only.
func (db *DB) Close() error {
	if !db.Durable() {
		return nil
	}
	werr := db.takeWALErr()
	return errors.Join(werr, db.forEachShard(func(_ int, sh *shard) error {
		return sh.store.Close()
	}))
}

// StorageStats reports the on-disk footprint of the durable backend,
// summed over all shards.
func (db *DB) StorageStats() (storage.Stats, error) {
	var total storage.Stats
	if !db.Durable() {
		return total, nil
	}
	for _, sh := range db.shards {
		st, err := sh.store.Stats()
		if err != nil {
			return total, err
		}
		total.WALSegments += st.WALSegments
		total.WALBytes += st.WALBytes
		total.Blocks += st.Blocks
		total.BlockBytes += st.BlockBytes
	}
	return total, nil
}

func (db *DB) setWALErr(err error) {
	db.werrMu.Lock()
	if db.walErr == nil {
		db.walErr = err
	}
	db.werrMu.Unlock()
}

func (db *DB) takeWALErr() error {
	db.werrMu.Lock()
	defer db.werrMu.Unlock()
	err := db.walErr
	db.walErr = nil
	return err
}
