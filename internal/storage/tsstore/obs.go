package tsstore

import "hygraph/internal/obs"

// storeObs holds the store's preallocated metric handles. The zero value
// (all nil) is the disabled state: every increment is a nil-check no-op.
type storeObs struct {
	reads  *obs.Counter // read-path entry points (range scans, aggregates, downsamples)
	writes *obs.Counter // mutations (inserts, bulk loads, deletes)
	// Compression lifecycle counters (see docs/STORAGE.md).
	seals    *obs.Counter // open chunks encoded into immutable blocks
	inflates *obs.Counter // sealed chunks decoded back to raw for mutation
}

// Instrument attaches metric handles from r to the store. Call it once,
// before the store is shared across goroutines — handle installation is not
// synchronized with concurrent operations. A nil registry detaches
// instrumentation (handles revert to no-op sinks).
func (db *DB) Instrument(r *obs.Registry) {
	db.obs = storeObs{
		reads:    r.Counter("tsstore.reads"),
		writes:   r.Counter("tsstore.writes"),
		seals:    r.Counter("tsstore.compress.seals"),
		inflates: r.Counter("tsstore.compress.inflates"),
	}
}

// walObs holds the WAL's preallocated metric handles; zero value = disabled.
type walObs struct {
	appends *obs.Counter // records appended (post-success)
	bytes   *obs.Counter // payload bytes appended
	flushes *obs.Counter // successful flushes (fsync-equivalents)
}

// Instrument attaches metric handles from r to the WAL. Call before the log
// is shared; a nil registry detaches.
func (l *WAL) Instrument(r *obs.Registry) {
	l.obs = walObs{
		appends: r.Counter("tsstore.wal.appends"),
		bytes:   r.Counter("tsstore.wal.append_bytes"),
		flushes: r.Counter("tsstore.wal.flushes"),
	}
}
