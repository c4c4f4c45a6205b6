package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"time"

	ts "explainit/internal/timeseries"
)

// Retention compaction: the durable counterpart of the TSDB's in-memory
// Retain sweep. Blocks are immutable, so retention rewrites them — each
// block whose samples are partially outside the keep range is re-encoded
// without the pruned samples and atomically renamed over its old self
// (same sequence number, so a crash mid-retention leaves either the old or
// the new block, never both and never a duplicate replay). Blocks left
// completely empty are deleted, except the newest one, which is kept as
// an empty tombstone so the store's highest flushedThrough checkpoint
// never regresses (a regressed checkpoint could re-replay a stale WAL
// segment left behind by an earlier failed delete). WAL data is first
// flushed into blocks so one rewrite pass covers everything.

// RetainBefore drops every sample with timestamp earlier than cutoff from
// the durable state and returns how many samples were pruned. Samples at
// or after cutoff survive — the usual "keep the last N days" retention.
func (s *Store) RetainBefore(cutoff time.Time) (int, error) {
	return s.retainNanos(ts.UnixNanos(cutoff), math.MaxInt64)
}

// Retain keeps only samples with From <= timestamp < To (the same
// half-open contract as timeseries.TimeRange) and returns how many
// samples were pruned from blocks. The rewrite is idempotent: a crash
// mid-pass leaves some blocks pruned and some not, and re-running Retain
// finishes the job. Bounds are clamped to the int64 nanosecond range
// (timeseries.UnixNanos) exactly as the in-memory sweep clamps them.
func (s *Store) Retain(from, to time.Time) (int, error) {
	return s.retainNanos(ts.UnixNanos(from), ts.UnixNanos(to))
}

func (s *Store) retainNanos(fromN, toN int64) (int, error) {
	if s.closed.Load() {
		return 0, errors.New("storage: retain on closed store")
	}
	// Seal the active segment so every committed sample becomes eligible
	// for the block rewrite below. Records appended after this point go to
	// a fresh segment and are not subject to this retention pass.
	if _, err := s.wal.Seal(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactSealedLocked(); err != nil {
		return 0, err
	}
	removed := 0
	kept := s.blocks[:0]
	var err error
	for i, seq := range s.blocks {
		var dropped int
		var empty bool
		// The newest block carries the store's highest flushedThrough
		// checkpoint (fts are non-decreasing in sequence order). Deleting
		// it would regress the checkpoint recomputed on the next Open and
		// could re-replay a WAL segment that survived an earlier failed
		// delete — so it is rewritten as an empty tombstone instead.
		last := i == len(s.blocks)-1
		dropped, empty, err = s.rewriteBlockLocked(seq, fromN, toN, last)
		removed += dropped
		// empty is authoritative even alongside an error (the file may be
		// gone with only its directory sync failed); listing a deleted
		// block would poison every later Replay/Retain on this handle.
		if !empty {
			kept = append(kept, seq)
		}
		if err != nil {
			// Blocks not yet visited are untouched; keep them listed.
			kept = append(kept, s.blocks[i+1:]...)
			break
		}
	}
	s.blocks = kept
	return removed, err
}

// rewriteBlockLocked re-encodes one block without the samples outside
// [fromN, toN). An untouched block is left alone; a fully pruned block is
// deleted — unless keepCheckpoint is set, in which case it is rewritten
// with zero series so its flushedThrough checkpoint survives; a partially
// pruned one is rewritten in place (tmp + rename over the same sequence
// number, preserving the checkpoint). Caller holds s.mu.
func (s *Store) rewriteBlockLocked(seq uint64, fromN, toN int64, keepCheckpoint bool) (removed int, empty bool, err error) {
	bb := newBlockBuilder()
	total := 0
	ft, err := readBlock(s.dir, seq, func(r Record) error {
		total++
		// readBlock shares the Tags map across one series' records; the
		// builder outlives the callback, so it clones.
		acc := bb.series(r, true)
		n := r.TS.UnixNano()
		if n >= fromN && n < toN {
			acc.samples = append(acc.samples, sample{nanos: n, value: r.Value})
		} else {
			removed++
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	if total == 0 {
		// An empty tombstone from an earlier retention pass: delete it
		// once a newer block carries the checkpoint forward.
		if keepCheckpoint {
			return 0, false, nil
		}
		if err := os.Remove(filepath.Join(s.dir, blockName(seq))); err != nil {
			return 0, false, err
		}
		return 0, true, SyncDir(s.dir)
	}
	if removed == 0 {
		return 0, false, nil
	}
	if removed == total && !keepCheckpoint {
		if err := os.Remove(filepath.Join(s.dir, blockName(seq))); err != nil {
			return 0, false, err
		}
		return removed, true, SyncDir(s.dir)
	}
	if err := writeBlock(s.dir, seq, ft, bb.build(s)); err != nil {
		return 0, false, err
	}
	return removed, false, nil
}

func cloneTags(tags map[string]string) map[string]string {
	if tags == nil {
		return nil
	}
	out := make(map[string]string, len(tags))
	for k, v := range tags {
		out[k] = v
	}
	return out
}
