package tsstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The cold tier: Spill moves sealed compressed blocks out of memory into
// per-shard append-only spill files, leaving only the hot summary and a file
// offset behind. Scans read evicted blocks back on demand through the
// decoded-block cache. Spill files are a rebuildable cache of state that is
// already durable in snapshots and WALs — recovery never reads them, and
// deleting them between runs merely costs a re-Spill (docs/STORAGE.md,
// docs/DURABILITY.md).

// spillRef locates one block in its shard's spill file.
type spillRef struct {
	off int64
	n   uint32
}

// tier owns the spill files, one per shard so spilling and read-back never
// contend across stripes. size is only touched by Spill, which runs under
// the owning shard's write lock; reads use ReadAt and are lock-free.
type tier struct {
	dir   string
	files []*os.File
	size  []int64
}

// EnableColdTier attaches a cold tier rooted at dir (created if needed),
// opening one spill file per shard ("ts.spill.N"). Call before the store is
// shared, like Instrument; pre-existing spill files are truncated — their
// contents are a cache of blocks that are still (or will again be) in
// memory, never the only copy.
func (db *DB) EnableColdTier(dir string) error {
	if db.tier != nil {
		return fmt.Errorf("tsstore: cold tier already enabled at %s", db.tier.dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tsstore: cold tier: %w", err)
	}
	t := &tier{dir: dir, files: make([]*os.File, len(db.shards)), size: make([]int64, len(db.shards))}
	for i := range db.shards {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("ts.spill.%d", i)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			t.close()
			return fmt.Errorf("tsstore: cold tier: %w", err)
		}
		t.files[i] = f
	}
	db.tier = t
	return nil
}

// CloseColdTier closes the spill files. The store must not be read after
// this while spilled chunks remain (their payloads become unreachable).
func (db *DB) CloseColdTier() error {
	if db.tier == nil {
		return nil
	}
	err := db.tier.close()
	db.tier = nil
	return err
}

func (t *tier) close() error {
	var first error
	for _, f := range t.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// read fetches one spilled block. ReadAt is safe for concurrent readers.
func (t *tier) read(shard int, ref *spillRef) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("tsstore: spilled chunk but no cold tier attached")
	}
	buf := make([]byte, ref.n)
	if _, err := t.files[shard].ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("tsstore: spill read shard %d off %d: %w", shard, ref.off, err)
	}
	return buf, nil
}

// TierStats reports one Spill pass.
type TierStats struct {
	Blocks int   // blocks written this pass
	Bytes  int64 // payload bytes moved to disk
}

// Spill is the compaction pass: every compressed in-memory block moves to
// its shard's spill file, leaving summary + offset behind. Open chunks and
// already-spilled chunks are untouched. Safe to call while the store is
// live — each shard is swept under its write lock.
func (db *DB) Spill() (TierStats, error) {
	if db.tier == nil {
		return TierStats{}, fmt.Errorf("tsstore: Spill without EnableColdTier")
	}
	var st TierStats
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		n, bytes, err := sh.spillLocked(db)
		sh.mu.Unlock()
		st.Blocks += n
		st.Bytes += bytes
		if err != nil {
			db.deg.set(err)
			return st, err
		}
	}
	db.obs.spills.Add(int64(st.Blocks))
	return st, nil
}

// spillLocked appends every compressed in-memory block of one shard to its
// spill file as a single write, then drops the in-memory payloads. Callers
// hold the write lock.
func (sh *tsShard) spillLocked(db *DB) (int, int64, error) {
	t := db.tier
	var batch []byte
	var moved []*chunk
	off := t.size[sh.idx]
	for _, s := range sh.data {
		for _, c := range s.chunks {
			if c.enc == nil {
				continue
			}
			c.spill = &spillRef{off: off + int64(len(batch)), n: uint32(len(c.enc))}
			batch = append(batch, c.enc...)
			moved = append(moved, c)
		}
	}
	if len(batch) == 0 {
		return 0, 0, nil
	}
	if _, err := t.files[sh.idx].WriteAt(batch, off); err != nil {
		// Abort the whole shard: no chunk loses its in-memory payload and
		// the half-written tail is dead space the next pass overwrites.
		for _, c := range moved {
			c.spill = nil
		}
		return 0, 0, fmt.Errorf("tsstore: spill shard %d: %w", sh.idx, err)
	}
	t.size[sh.idx] = off + int64(len(batch))
	for _, c := range moved {
		c.enc = nil
		c.idx.Store(nil)
	}
	return len(moved), int64(len(batch)), nil
}

// ---------------------------------------------------------------------------
// Decoded-block cache

// maxBlockCache bounds decoded blocks held across all shards; each shard
// caps its slice at maxBlockCache / shard count, with random eviction —
// the same striped design as the resample memo cache.
const maxBlockCache = 1024

// blockKey identifies one sealed chunk's decode.
type blockKey struct {
	key  SeriesKey
	slot int64
}

// blockEntry tracks one chunk holding a decode hint, plus its position in
// the eviction list. The decoded slices themselves live on the chunk
// (chunk.dec), published atomically so the warm read path never takes
// bc.mu; the cache's job is bounding how many hints exist and clearing
// them on eviction and invalidation.
type blockEntry struct {
	c   *chunk
	idx int
}

// blockCache bounds decode hints of sealed chunks. It has its own
// mutex — distinct from the shard's RWMutex — because scans fill it while
// holding only the shard's read side. Hints are shared read-only slices;
// writers invalidate before mutating a chunk. Lock order: a blockCache
// method is only ever called while its shard's lock is held, and never
// acquires any other lock.
type blockCache struct {
	mu   sync.Mutex
	cap  int
	m    map[blockKey]*blockEntry
	keys []blockKey
	rng  uint64
}

func (bc *blockCache) init(capacity int, seed uint64) {
	bc.cap = capacity
	bc.m = map[blockKey]*blockEntry{}
	bc.rng = seed
}

// put publishes a chunk's decode hint, evicting one random entry at
// capacity; it reports whether an eviction happened. Concurrent readers may
// race to fill the same key — the second fill overwrites the first with
// identical data.
func (bc *blockCache) put(k blockKey, c *chunk, dec *blockDec) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if e, ok := bc.m[k]; ok {
		e.c.dec.Store(dec)
		return false
	}
	evicted := false
	if len(bc.keys) >= bc.cap {
		x := bc.rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		bc.rng = x
		bc.removeAt(int(x % uint64(len(bc.keys))))
		evicted = true
	}
	bc.m[k] = &blockEntry{c: c, idx: len(bc.keys)}
	bc.keys = append(bc.keys, k)
	c.dec.Store(dec)
	return evicted
}

// removeAt drops the entry at position i in the eviction list, clearing its
// chunk's hint and swap-removing with the moved entry's back-index fixed.
// A reader that loaded the hint just before it was cleared keeps scanning
// the (immutable) decoded slices — harmless. Callers hold bc.mu.
func (bc *blockCache) removeAt(i int) {
	k := bc.keys[i]
	bc.m[k].c.dec.Store(nil)
	last := len(bc.keys) - 1
	moved := bc.keys[last]
	bc.keys[i] = moved
	bc.m[moved].idx = i
	bc.keys = bc.keys[:last]
	delete(bc.m, k)
}

// invalidate drops one chunk's decode (its block is about to be rewritten).
func (bc *blockCache) invalidate(k blockKey) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if e, ok := bc.m[k]; ok {
		bc.removeAt(e.idx)
	}
}

// invalidateKey drops every decode belonging to a series (DeleteSeries: a
// later re-insert under the same key must not see stale blocks).
func (bc *blockCache) invalidateKey(key SeriesKey) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for i := 0; i < len(bc.keys); {
		if bc.keys[i].key == key {
			bc.removeAt(i)
			continue // swap-remove moved a new entry into position i
		}
		i++
	}
}

// drop empties the cache, clearing every chunk's hint.
func (bc *blockCache) drop() {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, e := range bc.m {
		e.c.dec.Store(nil)
	}
	bc.m = map[blockKey]*blockEntry{}
	bc.keys = nil
}

// blockCacheLen counts live decoded blocks across shards (test hook).
func (db *DB) blockCacheLen() int {
	n := 0
	for i := range db.shards {
		bc := &db.shards[i].bc
		bc.mu.Lock()
		n += len(bc.m)
		bc.mu.Unlock()
	}
	return n
}
