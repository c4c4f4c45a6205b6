package tsdb

import (
	"encoding/gob"
	"io"
	"sort"

	ts "explainit/internal/timeseries"
)

// The snapshot wire format avoids encoding maps directly: gob serialises
// map keys in random order, which would make snapshots non-deterministic.
// Tags travel as sorted key/value pairs instead.

type snapshotTag struct {
	K, V string
}

type snapshotSeries struct {
	Name    string
	Tags    []snapshotTag
	Samples []ts.Sample
}

type snapshot struct {
	Version int
	Series  []snapshotSeries
}

const snapshotVersion = 1

// Save writes the entire store to w as a gob snapshot. The output is
// byte-deterministic for a given logical store state (series sorted
// globally by ID, tags sorted) — and therefore independent of the shard
// count, which the shard-invariance tests rely on.
//
// Each shard's contribution — sorting lazily-unsorted series and copying
// them — is assembled under that shard's write lock: sorting with only a
// read lock held would race with concurrent Puts and could emit an
// unsorted (hence non-deterministic) snapshot. Shards are visited one at a
// time, so a snapshot is per-series consistent (a series lives in exactly
// one shard) but not a cross-shard point-in-time cut under concurrent
// writes. Encoding happens after all locks are released, off the copied
// state.
func (db *DB) Save(w io.Writer) error {
	type entry struct {
		id string
		ss snapshotSeries
	}
	var entries []entry
	for _, sh := range db.shards {
		sh.mu.Lock()
		sh.sortLocked()
		for id, s := range sh.series {
			ss := snapshotSeries{
				Name:    s.Name,
				Samples: append([]ts.Sample(nil), s.Samples...),
			}
			keys := make([]string, 0, len(s.Tags))
			for k := range s.Tags {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ss.Tags = append(ss.Tags, snapshotTag{K: k, V: s.Tags[k]})
			}
			entries = append(entries, entry{id: id, ss: ss})
		}
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	snap := snapshot{Version: snapshotVersion, Series: make([]snapshotSeries, 0, len(entries))}
	for _, e := range entries {
		snap.Series = append(snap.Series, e.ss)
	}
	return gob.NewEncoder(w).Encode(&snap)
}
