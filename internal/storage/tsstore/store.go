// Package tsstore implements a TimescaleDB-style time-series store: a
// "hypertable" per metric, partitioned into fixed-width time chunks. Each
// chunk keeps its points in timestamp order for O(log n) range location and
// maintains a small summary (count/sum/min/max) so aggregations over ranges
// that cover whole chunks are answered from summaries without touching the
// points — the pushdown that keeps the paper's TTDB rows flat at tens of
// milliseconds in Table 1.
package tsstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hygraph/internal/ts"
)

// SeriesKey identifies one series within the store: an entity id plus a
// metric name (mirroring TimescaleDB's (device, metric) hypertable schema).
type SeriesKey struct {
	Entity uint32
	Metric string
}

// chunk holds the points of one series within one time slot. A chunk is in
// exactly one of three states (docs/STORAGE.md):
//
//	open       times/vals non-nil — the mutable raw layout
//	compressed enc non-nil — sealed into an immutable block (compress.go)
//	spilled    spill non-nil — the block lives in the shard's spill file
//
// The summary (n/sum/minV/maxV) is kept hot in every state, so aggregation
// pushdown over fully covered chunks never touches a compressed payload.
//
// Summary semantics: minV/maxV range over the chunk's non-NaN values only
// (math.Inf(1)/math.Inf(-1) when no such value exists), matching what a
// point scan's `v < min` comparisons naturally compute. sum is a plain fold
// over all values, so one stored NaN poisons sum (and Mean) to NaN — the
// same answer the edge-scan path and a Save/Load recompute produce.
type chunk struct {
	slot  int64 // slot index = floor(time / chunkWidth)
	times []ts.Time
	vals  []float64
	enc   []byte    // compressed block when sealed in memory
	spill *spillRef // block location in the spill file when evicted
	// dec is the chunk's cached decode — a lock-free hint owned by the
	// shard's blockCache, which bounds how many chunks hold one and clears
	// it on eviction/invalidation. Readers under the shard's read lock load
	// it without touching the cache mutex; scans over sealed chunks cost
	// one atomic load when warm.
	dec atomic.Pointer[blockDec]
	// summary
	n    int
	sum  float64
	minV float64
	maxV float64
}

// blockDec is one decoded block: immutable once published via chunk.dec.
type blockDec struct {
	times []ts.Time
	vals  []float64
}

func newChunk(slot int64) *chunk {
	return &chunk{slot: slot, minV: math.Inf(1), maxV: math.Inf(-1)}
}

// sealed reports whether the payload is compressed (in memory or spilled).
// A freshly created chunk has no payload in either form and counts as open.
func (c *chunk) sealed() bool { return c.enc != nil || c.spill != nil }

// add inserts into an open chunk; sealed chunks must be inflated first.
func (c *chunk) add(t ts.Time, v float64) {
	if n := len(c.times); n > 0 && t <= c.times[n-1] {
		// Out-of-order within a chunk: insert to keep sortedness. Rare path.
		i := sort.Search(n, func(i int) bool { return c.times[i] >= t })
		if i < n && c.times[i] == t {
			old := c.vals[i]
			c.vals[i] = v
			if math.IsNaN(old) || math.IsNaN(v) {
				// NaN entering or leaving: incremental maintenance would
				// poison sum forever (or never) — rebuild from the points.
				c.recomputeSummary()
				return
			}
			c.sum += v - old
			// A full min/max rescan is only needed when the replaced value
			// was an extremum — otherwise the new value can only extend the
			// current bounds.
			if old == c.minV || old == c.maxV {
				c.recomputeMinMax()
			} else {
				if v < c.minV {
					c.minV = v
				}
				if v > c.maxV {
					c.maxV = v
				}
			}
			return
		}
		c.times = append(c.times, 0)
		c.vals = append(c.vals, 0)
		copy(c.times[i+1:], c.times[i:])
		copy(c.vals[i+1:], c.vals[i:])
		c.times[i] = t
		c.vals[i] = v
	} else {
		c.times = append(c.times, t)
		c.vals = append(c.vals, v)
	}
	c.n++
	c.sum += v
	// NaN comparisons are false on both branches, so a NaN point leaves
	// min/max untouched — the same skip the scan paths apply.
	if v < c.minV {
		c.minV = v
	}
	if v > c.maxV {
		c.maxV = v
	}
}

func (c *chunk) recomputeMinMax() {
	c.minV, c.maxV = math.Inf(1), math.Inf(-1)
	for _, v := range c.vals {
		if v < c.minV {
			c.minV = v
		}
		if v > c.maxV {
			c.maxV = v
		}
	}
}

// recomputeSummary rebuilds n/sum/min/max from an open chunk's points.
func (c *chunk) recomputeSummary() {
	c.n = len(c.times)
	c.sum = 0
	c.minV, c.maxV = math.Inf(1), math.Inf(-1)
	for _, v := range c.vals {
		c.sum += v
		if v < c.minV {
			c.minV = v
		}
		if v > c.maxV {
			c.maxV = v
		}
	}
}

// series is one hypertable row stream: its chunks ordered by slot.
type series struct {
	chunks []*chunk // sorted by slot
	open   *chunk   // the chunk the last write landed in (nil after Load)
}

func (s *series) chunkFor(slot int64, create bool) *chunk {
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].slot >= slot })
	if i < len(s.chunks) && s.chunks[i].slot == slot {
		return s.chunks[i]
	}
	if !create {
		return nil
	}
	c := newChunk(slot)
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[i+1:], s.chunks[i:])
	s.chunks[i] = c
	return c
}

// resampleKey identifies one memoized Downsample result.
type resampleKey struct {
	key                SeriesKey
	start, end, bucket ts.Time
	agg                ts.AggFunc
}

// rcEntry is one continuous aggregate: an incrementally maintained
// resampled view (ts.ContAgg) plus its cache key and its position in the
// shard's key list, kept in sync so random eviction, invalidation, and
// write-through patching are all cheap. A write inside the entry's window
// routes to the owning bucket and patches it in place; only std/median
// tail appends and backfills mark the bucket dirty, and those are
// finalized lazily — a bounded bucket-local rescan — the next time the
// entry is read (see docs/STREAMING.md).
type rcEntry struct {
	rk  resampleKey
	ca  *ts.ContAgg
	idx int // index into the shard's rkeys
}

// maxResampleCache bounds the memo cache across all shards; each shard caps
// its slice at maxResampleCache / shard count. A full shard evicts one
// random entry (cheap, no recency tracking) instead of dropping everything.
const maxResampleCache = 1024

// CacheStats reports resample-cache behaviour for tests and capacity
// reports.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64 // entries dropped by DeleteSeries of their series
	Evictions     int64 // entries dropped by random eviction at capacity
	Patches       int64 // write-through in-place bucket updates
}

// tsShard is one lock stripe of the store: a private map and insertion-order
// key list, plus this stripe's slice of the resample cache. Everything in
// the struct is guarded by mu. Methods with the *Locked suffix assume the
// caller holds mu (read or write as appropriate).
type tsShard struct {
	mu   sync.RWMutex
	idx  int // this stripe's index, for tier spill-file addressing
	data map[SeriesKey]*series
	keys []SeriesKey // insertion order within the shard
	seqs []uint64    // global insertion sequence per key, for merged iteration

	rcache map[resampleKey]*rcEntry
	rkeys  []resampleKey            // parallel key list for O(1) random eviction
	ridx   map[SeriesKey][]*rcEntry // per-series entries: write-through patching, DeleteSeries invalidation
	rng    uint64                   // deterministic xorshift state for eviction picks

	// bc memoizes decoded blocks of sealed chunks. It carries its own lock
	// (see blockCache) so read paths holding only mu's read side can still
	// fill it.
	bc blockCache
}

// DB is the time-series store. All exported methods are safe for concurrent
// use. State is striped across a power-of-two array of independently locked
// shards, selected by hashing the SeriesKey — writers on different series
// almost never contend, and the parallel Q4–Q8 fan-out partitions whole
// shards per worker instead of bouncing one store-wide lock. Each inserted
// key records a global sequence number, so merged iteration (Keys,
// AggregateEach, Save) reproduces the exact single-writer first-insertion
// order and floating-point folds over it stay byte-identical to the
// pre-striping store.
type DB struct {
	chunkWidth ts.Time
	mask       uint32
	shards     []tsShard
	seq        atomic.Uint64 // global insertion sequence
	shardCap   int           // per-shard resample cache capacity

	// compress seals chunks that are no longer being written into immutable
	// delta-of-delta + XOR blocks (compress.go). On by default — the codec
	// is exact, so query results are bit-identical either way. Set before
	// the store is shared.
	compress bool

	// tier is the optional cold tier (tier.go): sealed blocks evicted to
	// per-shard spill files by Spill(). Nil until EnableColdTier.
	tier *tier

	// deg latches the first permanent storage error (corrupt block, spill
	// read failure). Scans return no points for the affected chunk; callers
	// observe the condition via Err().
	deg errLatch

	// Cache counters are atomics so the hit path stays on the read lock.
	cacheHits, cacheMisses, cacheInvalidations, cacheEvictions, cachePatches atomic.Int64

	// Compression and block-cache counters, same discipline.
	seals, inflates, blockHits, blockMisses, blockEvictions atomic.Int64

	obs storeObs // metric handles; zero value = instrumentation off
}

// errLatch is a mutex-guarded sticky error slot: the first error wins.
type errLatch struct {
	mu  sync.Mutex
	err error
}

func (b *errLatch) set(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
	}
}

func (b *errLatch) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// DefaultChunkWidth partitions series into week-long chunks, matching
// TimescaleDB's default interval ethos.
const DefaultChunkWidth = 7 * ts.Day

// DefaultShards is the lock-stripe count used by New.
const DefaultShards = 16

// New returns an empty store with the given chunk width (<= 0 selects
// DefaultChunkWidth) and DefaultShards lock stripes.
func New(chunkWidth ts.Time) *DB {
	return NewSharded(chunkWidth, DefaultShards)
}

// NewSharded is New with an explicit lock-stripe count, rounded up to a
// power of two (<= 0 selects one shard — the single-lock layout, used as the
// mixed-throughput baseline).
func NewSharded(chunkWidth ts.Time, shards int) *DB {
	if chunkWidth <= 0 {
		chunkWidth = DefaultChunkWidth
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	db := &DB{
		chunkWidth: chunkWidth,
		mask:       uint32(n - 1),
		shards:     make([]tsShard, n),
		shardCap:   maxResampleCache / n,
		compress:   true,
	}
	if db.shardCap < 1 {
		db.shardCap = 1
	}
	bcCap := maxBlockCache / n
	if bcCap < 1 {
		bcCap = 1
	}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.idx = i
		sh.data = map[SeriesKey]*series{}
		sh.rcache = map[resampleKey]*rcEntry{}
		sh.ridx = map[SeriesKey][]*rcEntry{}
		// Fixed per-shard seed: eviction picks are deterministic across runs.
		sh.rng = 0x9E3779B97F4A7C15 * uint64(i+1)
		sh.bc.init(bcCap, 0xD1B54A32D192ED03*uint64(i+1))
	}
	return db
}

// SetCompress toggles sealed-chunk compression. Call before the store is
// shared: the flag is read on every write path without synchronization.
// Disabling it yields the pre-compression raw layout — the baseline the
// storage benchmark and the differential battery compare against.
func (db *DB) SetCompress(on bool) { db.compress = on }

// Err returns the first permanent storage error the store latched (corrupt
// compressed block, spill-file read failure). While non-nil, scans over the
// affected chunks return no points and writes into them are dropped; callers
// should treat the store as degraded (ttdb surfaces this as ErrDegraded).
func (db *DB) Err() error { return db.deg.get() }

// NumShards returns the lock-stripe count.
func (db *DB) NumShards() int { return len(db.shards) }

// shard selects the lock stripe of a key by FNV-1a over entity and metric.
func (db *DB) shard(key SeriesKey) *tsShard {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= (key.Entity >> (8 * i)) & 0xff
		h *= 16777619
	}
	for i := 0; i < len(key.Metric); i++ {
		h ^= uint32(key.Metric[i])
		h *= 16777619
	}
	return &db.shards[h&db.mask]
}

// NumSeries returns how many distinct series the store holds.
func (db *DB) NumSeries() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.data)
		sh.mu.RUnlock()
	}
	return n
}

// HasSeries reports whether the key holds any points. The crash-recovery
// layer uses it to decide whether a prepared ingest reached the TS side.
func (db *DB) HasSeries(key SeriesKey) bool {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.data[key]
	return ok
}

// Span reports the times of a series' first and last point; ok is false when
// the key holds none. Only the two outermost chunks are looked at, and a
// sealed one decodes through the block cache like any scan, so a caller that
// needs to know whether a series covers an instant does not pay for a range
// read.
func (db *DB) Span(key SeriesKey) (first, last ts.Time, ok bool) {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s, found := sh.data[key]
	if !found || len(s.chunks) == 0 {
		return 0, 0, false
	}
	head, _ := sh.chunkPoints(db, key, s.chunks[0])
	tail, _ := sh.chunkPoints(db, key, s.chunks[len(s.chunks)-1])
	if len(head) == 0 || len(tail) == 0 {
		return 0, 0, false
	}
	return head[0], tail[len(tail)-1], true
}

// seqKey pairs a key with its global insertion sequence for merged iteration.
type seqKey struct {
	seq uint64
	key SeriesKey
}

// orderedKeys snapshots every shard's key list (one short read lock per
// shard) and merges by insertion sequence, reproducing global
// first-insertion order.
func (db *DB) orderedKeys() []seqKey {
	var out []seqKey
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for j, k := range sh.keys {
			out = append(out, seqKey{seq: sh.seqs[j], key: k})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Keys returns all series keys in first-insertion order.
func (db *DB) Keys() []SeriesKey {
	ordered := db.orderedKeys()
	out := make([]SeriesKey, len(ordered))
	for i, sk := range ordered {
		out[i] = sk.key
	}
	return out
}

// EntitiesOf returns the entity ids of every series of the metric in
// first-insertion order — the deterministic work list the parallel Q4–Q8
// executor partitions across workers.
func (db *DB) EntitiesOf(metric string) []uint32 {
	var out []uint32
	for _, sk := range db.orderedKeys() {
		if sk.key.Metric == metric {
			out = append(out, sk.key.Entity)
		}
	}
	return out
}

func (db *DB) slotOf(t ts.Time) int64 {
	s := int64(t / db.chunkWidth)
	if t < 0 && t%db.chunkWidth != 0 {
		s--
	}
	return s
}

// Insert adds one point. Upserts on duplicate timestamps. An applied write
// patches the covering continuous-aggregate entries in place before the
// shard lock is released, so a read that follows the insert — from any
// goroutine — sees the aggregate including the new point.
func (db *DB) Insert(key SeriesKey, t ts.Time, v float64) {
	db.obs.writes.Inc()
	sh := db.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.insertLocked(db, key, t, v) {
		sh.patchLocked(db, key, t, v)
	}
}

// insertLocked applies one point, reporting false when the write was
// dropped because a sealed chunk could not be reinflated (the store is
// degraded; see Err).
func (sh *tsShard) insertLocked(db *DB, key SeriesKey, t ts.Time, v float64) bool {
	s, ok := sh.data[key]
	if !ok {
		s = &series{}
		sh.data[key] = s
		sh.keys = append(sh.keys, key)
		sh.seqs = append(sh.seqs, db.seq.Add(1))
	}
	c := s.chunkFor(db.slotOf(t), true)
	// At most one chunk per series is open at a time: moving the write
	// cursor to a different chunk seals the previous one, and a write into a
	// sealed chunk (the rare out-of-order path) reinflates it first. A
	// failed inflate (latched via Err) drops the write rather than
	// corrupting the chunk.
	if s.open != nil && s.open != c {
		sh.sealLocked(db, s.open)
		s.open = nil
	}
	if c.sealed() && !sh.inflateLocked(db, key, c) {
		return false
	}
	s.open = c
	c.add(t, v)
	return true
}

// sealLocked compresses an open chunk into an immutable block. No-op when
// compression is off or the chunk is already sealed. Callers hold the write
// lock.
func (sh *tsShard) sealLocked(db *DB, c *chunk) {
	if !db.compress || c.sealed() {
		return
	}
	c.enc = encodeChunk(c.times, c.vals)
	c.times, c.vals = nil, nil
	db.seals.Add(1)
	db.obs.seals.Inc()
}

// inflateLocked restores a sealed chunk's raw layout so it can be mutated,
// reading the block back from memory or the spill file and dropping any
// cached decode (it is about to go stale). It reports false — with the error
// latched — when the payload cannot be recovered. Callers hold the write
// lock.
func (sh *tsShard) inflateLocked(db *DB, key SeriesKey, c *chunk) bool {
	if !c.sealed() {
		return true
	}
	block, err := sh.blockBytes(db, c)
	if err != nil {
		db.deg.set(err)
		return false
	}
	times, vals, err := decodeChunk(block)
	if err != nil {
		db.deg.set(err)
		return false
	}
	c.times, c.vals = times, vals
	c.enc, c.spill = nil, nil
	sh.bc.invalidate(blockKey{key: key, slot: c.slot})
	db.inflates.Add(1)
	db.obs.inflates.Inc()
	return true
}

// blockBytes returns a sealed chunk's compressed payload, reading through to
// the spill file for evicted blocks. Callers hold the lock (either side).
func (sh *tsShard) blockBytes(db *DB, c *chunk) ([]byte, error) {
	if c.enc != nil {
		return c.enc, nil
	}
	if c.spill == nil {
		return nil, fmt.Errorf("tsstore: sealed chunk slot %d has no payload", c.slot)
	}
	return db.tier.read(sh.idx, c.spill)
}

// chunkPoints returns a chunk's points in time order, decoding sealed
// payloads through the shard's block cache. The returned slices are shared —
// callers must treat them as read-only. Callers hold the lock (either side);
// a payload that cannot be recovered latches the error and yields no points.
//
// The warm path is one atomic load: the decode hint lives on the chunk
// itself, so the edge scans of an aggregation pushdown don't pay a mutex +
// map lookup per chunk (that overhead was ~25% of Q4–Q8 latency on the
// bench workload). The blockCache still owns the hint — put registers it,
// eviction and invalidation clear it — so decoded memory stays bounded.
func (sh *tsShard) chunkPoints(db *DB, key SeriesKey, c *chunk) ([]ts.Time, []float64) {
	if !c.sealed() {
		return c.times, c.vals
	}
	if d := c.dec.Load(); d != nil {
		db.blockHits.Add(1)
		db.obs.blockHits.Inc()
		return d.times, d.vals
	}
	db.blockMisses.Add(1)
	db.obs.blockMisses.Inc()
	block, err := sh.blockBytes(db, c)
	if err != nil {
		db.deg.set(err)
		return nil, nil
	}
	times, vals, err := decodeChunk(block)
	if err != nil {
		db.deg.set(err)
		return nil, nil
	}
	if evicted := sh.bc.put(blockKey{key: key, slot: c.slot}, c, &blockDec{times: times, vals: vals}); evicted {
		db.blockEvictions.Add(1)
		db.obs.blockEvictions.Inc()
	}
	return times, vals
}

// InsertSeries bulk-loads a whole series under the key. Each applied point
// routes through the continuous aggregates in order, exactly as the
// equivalent sequence of Inserts would.
func (db *DB) InsertSeries(key SeriesKey, src *ts.Series) {
	db.obs.writes.Inc()
	sh := db.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; i < src.Len(); i++ {
		t, v := src.TimeAt(i), src.ValueAt(i)
		if sh.insertLocked(db, key, t, v) {
			sh.patchLocked(db, key, t, v)
		}
	}
}

// DeleteSeries removes a series and all its chunks. It reports whether the
// key existed; deleting an absent key is a no-op, so crash-recovery rollback
// can apply it idempotently.
func (db *DB) DeleteSeries(key SeriesKey) bool {
	sh := db.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.invalidateLocked(db, key)
	if _, ok := sh.data[key]; !ok {
		// Absent key: a pure no-op must not count as a write, or the obs
		// write counters the mixed bench reports drift from effective work
		// (idempotent crash-recovery rollbacks delete freely).
		return false
	}
	db.obs.writes.Inc()
	sh.bc.invalidateKey(key)
	delete(sh.data, key)
	for i, k := range sh.keys {
		if k == key {
			sh.keys = append(sh.keys[:i], sh.keys[i+1:]...)
			sh.seqs = append(sh.seqs[:i], sh.seqs[i+1:]...)
			break
		}
	}
	return true
}

// invalidateLocked drops every cached resample derived from the series,
// walking the series' own entry list — O(its entries), so deleting a key
// with nothing cached costs one map lookup. Resample entries live in the
// shard of their series key, so invalidation never has to look outside the
// shard. Callers hold the write lock.
func (sh *tsShard) invalidateLocked(db *DB, key SeriesKey) {
	for es := sh.ridx[key]; len(es) > 0; es = sh.ridx[key] {
		// Removing the head swaps the list's tail into slot 0 and shrinks it.
		sh.removeCacheEntryLocked(es[0].rk)
		db.cacheInvalidations.Add(1)
		db.obs.cacheInvalidations.Inc()
	}
}

// patchLocked is the write-through path: route one applied point into
// every cached window of its series that covers it. Entries whose window
// excludes t are untouched — this is what makes invalidation
// bucket-granular. ContAgg applies an O(1) delta for tail appends of
// decomposable aggregates; backfills and std/median mark the owning
// bucket dirty for a bucket-local rescan at the next read
// (finalizeEntryLocked). Callers hold the write lock.
func (sh *tsShard) patchLocked(db *DB, key SeriesKey, t ts.Time, v float64) {
	for _, e := range sh.ridx[key] {
		if t < e.rk.start || t >= e.rk.end {
			continue
		}
		e.ca.Observe(t, v)
		db.cachePatches.Add(1)
		db.obs.cachePatches.Inc()
	}
}

// finalizeEntryLocked rescans an entry's dirty buckets (clipped to the
// entry's window) and restores exactness. Callers hold the write lock.
func (sh *tsShard) finalizeEntryLocked(db *DB, e *rcEntry) {
	var vals []float64
	for _, b := range e.ca.DirtyBuckets() {
		lo, hi := b, b+e.rk.bucket
		if lo < e.rk.start {
			lo = e.rk.start
		}
		if hi > e.rk.end {
			hi = e.rk.end
		}
		vals = vals[:0]
		sh.scanRangeLocked(db, e.rk.key, lo, hi, func(_ ts.Time, v float64) {
			vals = append(vals, v)
		})
		e.ca.Finalize(b, vals)
	}
}

// removeCacheEntryLocked drops one memo entry, swap-removing its key from
// the eviction list, fixing the moved entry's back-index, and unlinking it
// from the per-series patch index.
func (sh *tsShard) removeCacheEntryLocked(rk resampleKey) {
	e, ok := sh.rcache[rk]
	if !ok {
		return
	}
	last := len(sh.rkeys) - 1
	moved := sh.rkeys[last]
	sh.rkeys[e.idx] = moved
	sh.rcache[moved].idx = e.idx
	sh.rkeys = sh.rkeys[:last]
	delete(sh.rcache, rk)
	list := sh.ridx[rk.key]
	for i, le := range list {
		if le == e {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(sh.ridx, rk.key)
	} else {
		sh.ridx[rk.key] = list
	}
}

// evictOneLocked drops a uniformly random memo entry — cheap per-shard
// random eviction instead of the old drop-everything-when-full policy. The
// pick comes from a per-shard xorshift stream seeded at construction, so
// runs are reproducible.
func (sh *tsShard) evictOneLocked(db *DB) {
	n := len(sh.rkeys)
	if n == 0 {
		return
	}
	x := sh.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sh.rng = x
	sh.removeCacheEntryLocked(sh.rkeys[int(x%uint64(n))])
	db.cacheEvictions.Add(1)
	db.obs.cacheEvictions.Inc()
}

// Range returns the points of a series with start <= t < end in time order.
func (db *DB) Range(key SeriesKey, start, end ts.Time) []ts.Point {
	db.obs.reads.Inc()
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []ts.Point
	sh.scanRangeLocked(db, key, start, end, func(t ts.Time, v float64) {
		out = append(out, ts.Point{T: t, V: v})
	})
	return out
}

// RangeSeries is Range materialized as a ts.Series named after the metric.
func (db *DB) RangeSeries(key SeriesKey, start, end ts.Time) *ts.Series {
	db.obs.reads.Inc()
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rangeSeriesLocked(db, key, start, end)
}

func (sh *tsShard) rangeSeriesLocked(db *DB, key SeriesKey, start, end ts.Time) *ts.Series {
	s := ts.New(fmt.Sprintf("%s@%d", key.Metric, key.Entity))
	sh.scanRangeLocked(db, key, start, end, func(t ts.Time, v float64) { s.MustAppend(t, v) })
	return s
}

// scanRangeLocked visits points in [start, end), locating the first chunk by
// binary search and the range within each chunk by binary search. Sealed
// chunks decompress transparently through the block cache.
func (sh *tsShard) scanRangeLocked(db *DB, key SeriesKey, start, end ts.Time, fn func(ts.Time, float64)) {
	s, ok := sh.data[key]
	if !ok || start >= end {
		return
	}
	loSlot, hiSlot := db.slotOf(start), db.slotOf(end-1)
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].slot >= loSlot })
	for ; i < len(s.chunks) && s.chunks[i].slot <= hiSlot; i++ {
		times, vals := sh.chunkPoints(db, key, s.chunks[i])
		lo := sort.Search(len(times), func(j int) bool { return times[j] >= start })
		for j := lo; j < len(times) && times[j] < end; j++ {
			fn(times[j], vals[j])
		}
	}
}

// RangeFunc streams the points of a series with start <= t < end in time
// order without materializing them — the pushdown path for filters. fn runs
// under the key's shard read lock and must not mutate the store.
func (db *DB) RangeFunc(key SeriesKey, start, end ts.Time, fn func(ts.Time, float64)) {
	db.obs.reads.Inc()
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.scanRangeLocked(db, key, start, end, fn)
}

// Correlate computes the Pearson correlation of two series over [start, end)
// by merge-joining their points on exact timestamps inside the store — the
// pushdown analogue of SQL corr() in TimescaleDB, avoiding client-side
// extraction entirely. Each side is snapshotted under its own shard lock in
// turn (never both at once, so striping introduces no lock-order concerns).
// NaN when fewer than two joint points exist or a side is constant.
func (db *DB) Correlate(a, b SeriesKey, start, end ts.Time) float64 {
	db.obs.reads.Inc()
	pa := db.rangeSnapshot(a, start, end)
	pb := db.rangeSnapshot(b, start, end)
	var n float64
	var sx, sy, sxx, syy, sxy float64
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i].T < pb[j].T:
			i++
		case pa[i].T > pb[j].T:
			j++
		default:
			x, y := pa[i].V, pb[j].V
			n++
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
			i++
			j++
		}
	}
	if n < 2 {
		return math.NaN()
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// rangeSnapshot is Range without the read-counter increment, for internal
// composition.
func (db *DB) rangeSnapshot(key SeriesKey, start, end ts.Time) []ts.Point {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []ts.Point
	sh.scanRangeLocked(db, key, start, end, func(t ts.Time, v float64) {
		out = append(out, ts.Point{T: t, V: v})
	})
	return out
}

// Summary aggregates a series over [start, end) using chunk summaries for
// fully covered chunks and point scans only at the range edges.
type Summary struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (NaN when empty).
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Aggregate computes the summary of a series over [start, end).
func (db *DB) Aggregate(key SeriesKey, start, end ts.Time) Summary {
	db.obs.reads.Inc()
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.aggregateLocked(db, key, start, end)
}

func (sh *tsShard) aggregateLocked(db *DB, key SeriesKey, start, end ts.Time) Summary {
	out := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	s, ok := sh.data[key]
	if !ok || start >= end {
		return normalize(out)
	}
	loSlot, hiSlot := db.slotOf(start), db.slotOf(end-1)
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].slot >= loSlot })
	for ; i < len(s.chunks) && s.chunks[i].slot <= hiSlot; i++ {
		c := s.chunks[i]
		chunkStart := ts.Time(c.slot) * db.chunkWidth
		chunkEnd := chunkStart + db.chunkWidth
		if start <= chunkStart && chunkEnd <= end {
			// Pushdown: the whole chunk is inside the range. Only the hot
			// summary is read — never the (possibly compressed) payload.
			out.Count += c.n
			out.Sum += c.sum
			if c.minV < out.Min {
				out.Min = c.minV
			}
			if c.maxV > out.Max {
				out.Max = c.maxV
			}
			continue
		}
		times, vals := sh.chunkPoints(db, key, c)
		lo := sort.Search(len(times), func(j int) bool { return times[j] >= start })
		for j := lo; j < len(times) && times[j] < end; j++ {
			v := vals[j]
			out.Count++
			out.Sum += v
			if v < out.Min {
				out.Min = v
			}
			if v > out.Max {
				out.Max = v
			}
		}
	}
	return normalize(out)
}

func normalize(s Summary) Summary {
	// Min stuck at +Inf means no comparable value was seen: either the range
	// is empty or every value in it is NaN. Both pushdown and edge-scan
	// paths land here identically (NaN comparisons are always false).
	if s.Count == 0 || math.IsInf(s.Min, 1) {
		s.Min, s.Max = math.NaN(), math.NaN()
	}
	return s
}

// EntitySummary is one entity's summary tagged with its insertion sequence,
// the unit of shard-partitioned aggregation. Sorting a batch by Seq
// reproduces global first-insertion order.
type EntitySummary struct {
	Seq    uint64
	Entity uint32
	Summary
}

// aggregateShard summarizes every series of the metric in one shard under a
// single read lock — the per-worker locked batch of the parallel executor.
func (db *DB) aggregateShard(shard int, metric string, start, end ts.Time) []EntitySummary {
	sh := &db.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []EntitySummary
	for j, key := range sh.keys {
		if key.Metric == metric {
			out = append(out, EntitySummary{
				Seq:     sh.seqs[j],
				Entity:  key.Entity,
				Summary: sh.aggregateLocked(db, key, start, end),
			})
		}
	}
	return out
}

// AggregateShard summarizes every series of the metric held by one lock
// stripe (0 <= shard < NumShards), taking that stripe's read lock exactly
// once. Callers fan shards out across workers and MergeBySeq the parts; the
// fan-out as a whole counts as one store read, which the caller's entry
// point accounts for.
func (db *DB) AggregateShard(shard int, metric string, start, end ts.Time) []EntitySummary {
	return db.aggregateShard(shard, metric, start, end)
}

// MergeBySeq flattens per-shard summary batches into global first-insertion
// order.
func MergeBySeq(parts [][]EntitySummary) []EntitySummary {
	var out []EntitySummary
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// aggregateSeq computes the metric's summaries shard by shard (one read lock
// per shard) and merges them into first-insertion order.
func (db *DB) aggregateSeq(metric string, start, end ts.Time) []EntitySummary {
	parts := make([][]EntitySummary, len(db.shards))
	for i := range db.shards {
		parts[i] = db.aggregateShard(i, metric, start, end)
	}
	return MergeBySeq(parts)
}

// AggregateAll aggregates every series of the given metric over [start,
// end), returning per-entity summaries. One call counts as one read.
func (db *DB) AggregateAll(metric string, start, end ts.Time) map[uint32]Summary {
	db.obs.reads.Inc()
	es := db.aggregateSeq(metric, start, end)
	out := make(map[uint32]Summary, len(es))
	for _, e := range es {
		out[e.Entity] = e.Summary
	}
	return out
}

// AggregateEach visits every series of the metric in first-insertion order,
// calling fn with each entity's summary. The fixed visit order makes
// floating-point folds over the results (district sums, global totals)
// deterministic — the property the parallel executor's merge phase relies
// on to stay byte-identical with sequential execution. Summaries are
// computed as one locked batch per shard; fn runs after the locks are
// released and must not assume a store-wide atomic snapshot.
func (db *DB) AggregateEach(metric string, start, end ts.Time, fn func(entity uint32, s Summary)) {
	db.obs.reads.Inc()
	for _, e := range db.aggregateSeq(metric, start, end) {
		fn(e.Entity, e.Summary)
	}
}

// AggregateAllParallel is AggregateAll fanned out over `workers` goroutines
// — the horizontal-scaling lever of requirement R4. Work is partitioned by
// shard: each worker takes whole lock stripes and summarizes them under a
// single read lock per stripe, so one fan-out costs one read-counter
// increment and O(shards) lock operations instead of one of each per key.
// Results are merged by insertion sequence, so output is deterministic
// regardless of scheduling. workers <= 1 falls back to the serial path.
func (db *DB) AggregateAllParallel(metric string, start, end ts.Time, workers int) map[uint32]Summary {
	if workers <= 1 {
		return db.AggregateAll(metric, start, end)
	}
	db.obs.reads.Inc()
	nsh := len(db.shards)
	if workers > nsh {
		workers = nsh
	}
	parts := make([][]EntitySummary, nsh)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nsh; i += workers {
				parts[i] = db.aggregateShard(i, metric, start, end)
			}
		}(w)
	}
	wg.Wait()
	es := MergeBySeq(parts)
	out := make(map[uint32]Summary, len(es))
	for _, e := range es {
		out[e.Entity] = e.Summary
	}
	return out
}

// TopKByMean returns the k entities with the highest mean of the metric over
// the range, best first; ties break by ascending entity id.
func (db *DB) TopKByMean(metric string, start, end ts.Time, k int) []uint32 {
	type pair struct {
		entity uint32
		mean   float64
	}
	var ps []pair
	db.AggregateEach(metric, start, end, func(e uint32, s Summary) {
		if s.Count > 0 {
			ps = append(ps, pair{e, s.Mean()})
		}
	})
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].mean != ps[j].mean {
			return ps[i].mean > ps[j].mean
		}
		return ps[i].entity < ps[j].entity
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]uint32, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].entity
	}
	return out
}

// Downsample buckets a series over [start, end) at the given width with the
// aggregation — a continuous-aggregate style query. Results are memoized per
// (series, range, bucket, aggregation) in the series' shard: repeated
// downsampling, as issued by correlation queries and dashboard-style refresh
// loops, hits the warm entry — writes inside its window patch it in place —
// until DeleteSeries invalidates it or random eviction reclaims the slot.
// The returned series is a copy the caller owns.
func (db *DB) Downsample(key SeriesKey, start, end, bucket ts.Time, agg ts.AggFunc) *ts.Series {
	db.obs.reads.Inc()
	rk := resampleKey{key: key, start: start, end: end, bucket: bucket, agg: agg}
	sh := db.shard(key)
	sh.mu.RLock()
	if e, ok := sh.rcache[rk]; ok && !e.ca.HasDirty() {
		out := e.ca.View().Clone()
		sh.mu.RUnlock()
		db.cacheHits.Add(1)
		db.obs.cacheHits.Inc()
		return out
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.rcache[rk]; ok { // filled while we waited, or dirty
		// Still a hit: at worst a bucket-local rescan of the dirty
		// buckets, never a whole-window recompute.
		sh.finalizeEntryLocked(db, e)
		db.cacheHits.Add(1)
		db.obs.cacheHits.Inc()
		return e.ca.View().Clone()
	}
	db.cacheMisses.Add(1)
	db.obs.cacheMisses.Inc()
	ca := ts.NewContAgg("", bucket, agg)
	ca.Seed(sh.rangeSeriesLocked(db, key, start, end))
	if len(sh.rkeys) >= db.shardCap {
		sh.evictOneLocked(db)
	}
	e := &rcEntry{rk: rk, ca: ca, idx: len(sh.rkeys)}
	sh.rcache[rk] = e
	sh.rkeys = append(sh.rkeys, rk)
	sh.ridx[key] = append(sh.ridx[key], e)
	return ca.View().Clone()
}

// CorrelateResampled computes the Pearson correlation of two series after
// downsampling both onto the shared bucket grid (bucket means), joining on
// bucket timestamps. Both downsamples go through the memo cache, so repeated
// correlation over the same window — the hot pattern of similarity-edge
// rebuilds — only pays the scan once. NaN when fewer than two shared buckets
// exist or a side is constant.
func (db *DB) CorrelateResampled(a, b SeriesKey, start, end, bucket ts.Time) float64 {
	sa := db.Downsample(a, start, end, bucket, ts.AggMean)
	sb := db.Downsample(b, start, end, bucket, ts.AggMean)
	var av, bv []float64
	i, j := 0, 0
	for i < sa.Len() && j < sb.Len() {
		switch {
		case sa.TimeAt(i) < sb.TimeAt(j):
			i++
		case sa.TimeAt(i) > sb.TimeAt(j):
			j++
		default:
			av = append(av, sa.ValueAt(i))
			bv = append(bv, sb.ValueAt(j))
			i++
			j++
		}
	}
	if len(av) < 2 {
		return math.NaN()
	}
	return ts.Pearson(av, bv)
}

// ResampleCacheStats returns the memo cache's counters since creation.
func (db *DB) ResampleCacheStats() CacheStats {
	return CacheStats{
		Hits:          db.cacheHits.Load(),
		Misses:        db.cacheMisses.Load(),
		Invalidations: db.cacheInvalidations.Load(),
		Evictions:     db.cacheEvictions.Load(),
		Patches:       db.cachePatches.Load(),
	}
}

// resampleCacheLen counts live memo entries across shards (test hook).
func (db *DB) resampleCacheLen() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.rcache)
		sh.mu.RUnlock()
	}
	return n
}

// Stats describes storage shape for capacity reports. MemBytes counts
// payload bytes resident in memory: 16 per point for open chunks (8 time +
// 8 value), the block length for compressed chunks, nothing for spilled ones
// (their blocks live in the tier's files; the bounded block cache is extra
// and not counted here). The hot per-chunk summaries are a few dozen bytes
// per chunk in every state.
type Stats struct {
	Series int
	Chunks int
	Points int

	OpenChunks       int
	CompressedChunks int
	SpilledChunks    int
	MemBytes         int64
}

// Stats returns storage counts.
func (db *DB) Stats() Stats {
	var st Stats
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		st.Series += len(sh.data)
		for _, s := range sh.data {
			st.Chunks += len(s.chunks)
			for _, c := range s.chunks {
				st.Points += c.n
				switch {
				case !c.sealed():
					st.OpenChunks++
					st.MemBytes += 16 * int64(len(c.times))
				case c.enc != nil:
					st.CompressedChunks++
					st.MemBytes += int64(len(c.enc))
				default:
					st.SpilledChunks++
				}
			}
		}
		sh.mu.RUnlock()
	}
	return st
}

// CompressionStats reports sealing and block-cache behaviour for tests,
// capacity reports and the storage benchmark.
type CompressionStats struct {
	Seals          int64 // chunks compressed (including reseals)
	Inflates       int64 // sealed chunks decompressed for mutation
	BlockHits      int64 // decoded-block cache hits
	BlockMisses    int64 // decoded-block cache misses (payload decoded)
	BlockEvictions int64 // cache entries dropped by random eviction
}

// CompressionStats returns the compression counters since creation.
func (db *DB) CompressionStats() CompressionStats {
	return CompressionStats{
		Seals:          db.seals.Load(),
		Inflates:       db.inflates.Load(),
		BlockHits:      db.blockHits.Load(),
		BlockMisses:    db.blockMisses.Load(),
		BlockEvictions: db.blockEvictions.Load(),
	}
}

// DropBlockCache empties every shard's decoded-block cache — the memory-
// pressure valve, and how the storage benchmark measures a truly cold scan.
func (db *DB) DropBlockCache() {
	for i := range db.shards {
		db.shards[i].bc.drop()
	}
}
