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
// exactly one of two states (docs/STORAGE.md):
//
//	open       times/vals non-nil — the mutable raw layout
//	compressed enc non-nil — sealed into an immutable block (compress.go)
//
// The summary (n/sum/minV/maxV) is kept hot in both states, so aggregation
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
	enc   []byte // compressed block when sealed
	// idx is the sub-slot index of a sealed block (compress.go), built on
	// the chunk's first scan, edge fold or Span and published
	// atomically, so readers under the shard's read lock can fill it. It is
	// derived from enc and never evicted: it is cleared exactly where enc is
	// dropped (inflate).
	idx atomic.Pointer[subSlotIndex]
	// summary
	n    int
	sum  float64
	minV float64
	maxV float64
}

func newChunk(slot int64) *chunk {
	return &chunk{slot: slot, minV: math.Inf(1), maxV: math.Inf(-1)}
}

// sealed reports whether the payload is compressed. A freshly created chunk
// has no block yet and counts as open.
func (c *chunk) sealed() bool { return c.enc != nil }

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

// tsShard is one lock stripe of the store: a private map and insertion-order
// key list. Everything in the struct is guarded by mu. Methods with the
// *Locked suffix assume the caller holds mu (read or write as appropriate).
//
// seqs ascends: a key is appended to keys and seqs under mu with the next
// value of the store's one atomic counter, by every path that adds a series
// (Insert, InsertSeries, Load and so WAL replay), and a delete removes its
// entry in place. So every stripe's keys are a run ascending by sequence,
// and merged iteration is a merge of runs, never a sort.
type tsShard struct {
	mu   sync.RWMutex
	data map[SeriesKey]*series
	keys []SeriesKey // insertion order within the shard
	seqs []uint64    // global insertion sequence per key, ascending
}

// DB is the time-series store. All exported methods are safe for concurrent
// use. State is striped across a power-of-two array of independently locked
// shards, selected by hashing the SeriesKey — writers on different series
// almost never contend, and the parallel Q4–Q8 fan-out partitions whole
// shards per worker instead of bouncing one store-wide lock. Each inserted
// key records a global sequence number, so merged iteration (Keys,
// MergeBySeq, Save) reproduces the exact single-writer first-insertion
// order and floating-point folds over it stay byte-identical to the
// pre-striping store.
type DB struct {
	chunkWidth ts.Time
	mask       uint32
	shards     []tsShard
	seq        atomic.Uint64 // global insertion sequence

	// compress seals chunks that are no longer being written into immutable
	// delta-of-delta + XOR blocks (compress.go). On by default — the codec
	// is exact, so query results are bit-identical either way. Set before
	// the store is shared.
	compress bool

	// deg latches the first permanent storage error (a corrupt block).
	// Scans return no points for the affected chunk; callers observe the
	// condition via Err().
	deg errLatch

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
		compress:   true,
	}
	for i := range db.shards {
		db.shards[i].data = map[SeriesKey]*series{}
	}
	return db
}

// SetCompress toggles sealed-chunk compression. Call before the store is
// shared: the flag is read on every write path without synchronization.
// Disabling it yields the pre-compression raw layout — the baseline the
// storage benchmark and the differential battery compare against.
func (db *DB) SetCompress(on bool) { db.compress = on }

// Err returns the first permanent storage error the store latched (a
// corrupt compressed block). While non-nil, scans over the affected chunks
// return no points and writes into them are dropped; callers should treat
// the store as degraded (ttdb surfaces this as ErrDegraded).
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

// HasSeries reports whether the key holds any points. Crash recovery's repair
// uses it to find the Station nodes whose series never reached the TS side.
func (db *DB) HasSeries(key SeriesKey) bool {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.data[key]
	return ok
}

// Span reports the times of a series' first and last point; ok is false when
// the key holds none. Only the two outermost chunks are looked at, and a
// sealed one answers from its sub-slot index. So a caller that needs to know
// whether a series covers an instant does not pay for a range read.
func (db *DB) Span(key SeriesKey) (first, last ts.Time, ok bool) {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s, found := sh.data[key]
	if !found || len(s.chunks) == 0 {
		return 0, 0, false
	}
	first, _, okHead := db.chunkBounds(s.chunks[0])
	_, last, okTail := db.chunkBounds(s.chunks[len(s.chunks)-1])
	return first, last, okHead && okTail
}

// chunkBounds returns the times of a chunk's first and last point; ok is
// false when it yields none. Callers hold the shard's lock (either side).
func (db *DB) chunkBounds(c *chunk) (first, last ts.Time, ok bool) {
	if c.sealed() {
		x := db.index(c)
		if x == nil || x.n == 0 {
			return 0, 0, false
		}
		return x.t[0], x.last, true
	}
	if len(c.times) == 0 {
		return 0, 0, false
	}
	return c.times[0], c.times[len(c.times)-1], true
}

// index returns a sealed chunk's sub-slot index, building and
// publishing it on first use. Concurrent readers may race to build it; the
// second store overwrites the first with an identical index. A block that
// fails validation latches the error and yields nil. Callers hold the
// shard's lock (either side), which keeps c.enc fixed.
func (db *DB) index(c *chunk) *subSlotIndex {
	if x := c.idx.Load(); x != nil {
		return x
	}
	x, err := buildIndex(c.enc)
	if err != nil {
		db.deg.set(err)
		return nil
	}
	c.idx.Store(x)
	return x
}

// seqKey pairs a key with its global insertion sequence for merged iteration.
type seqKey struct {
	seq uint64
	key SeriesKey
}

// orderedKeys snapshots every shard's key list (one short read lock per
// shard) and merges the ascending runs by insertion sequence, reproducing
// global first-insertion order.
func (db *DB) orderedKeys() []seqKey {
	runs := make([][]seqKey, len(db.shards))
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		runs[i] = make([]seqKey, len(sh.keys))
		for j, k := range sh.keys {
			runs[i][j] = seqKey{seq: sh.seqs[j], key: k}
		}
		sh.mu.RUnlock()
	}
	return mergeRuns(runs, func(sk seqKey) uint64 { return sk.seq })
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

func (db *DB) slotOf(t ts.Time) int64 {
	s := int64(t / db.chunkWidth)
	if t < 0 && t%db.chunkWidth != 0 {
		s--
	}
	return s
}

// Insert adds one point. Upserts on duplicate timestamps. Every read folds
// from the chunks under the shard lock, so a read that follows the insert —
// from any goroutine — sees the new point.
func (db *DB) Insert(key SeriesKey, t ts.Time, v float64) {
	db.obs.writes.Inc()
	sh := db.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.insertLocked(db, sh.seriesLocked(db, key), t, v)
}

// seriesLocked returns the key's series, creating it on first write.
func (sh *tsShard) seriesLocked(db *DB, key SeriesKey) *series {
	s, ok := sh.data[key]
	if !ok {
		s = &series{}
		sh.data[key] = s
		sh.keys = append(sh.keys, key)
		sh.seqs = append(sh.seqs, db.seq.Add(1))
	}
	return s
}

// insertLocked applies one point to s. The write is dropped when a sealed
// chunk cannot be reinflated (the store is degraded; see Err).
func (sh *tsShard) insertLocked(db *DB, s *series, t ts.Time, v float64) {
	slot := db.slotOf(t)
	c := s.open
	if c == nil || c.slot != slot {
		c = s.chunkFor(slot, true)
	}
	// At most one chunk per series is open at a time: moving the write
	// cursor to a different chunk seals the previous one, and a write into a
	// sealed chunk (the rare out-of-order path) reinflates it first. A
	// failed inflate (latched via Err) drops the write rather than
	// corrupting the chunk.
	if s.open != nil && s.open != c {
		sh.sealLocked(db, s.open)
		s.open = nil
	}
	if c.sealed() && !sh.inflateLocked(db, c) {
		return
	}
	s.open = c
	c.add(t, v)
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
	db.obs.seals.Inc()
}

// inflateLocked restores a sealed chunk's raw layout so it can be mutated,
// decoding its block and dropping its sub-slot index (it is about to go
// stale). It reports false — with the error latched — when the block does
// not decode. Callers hold the write lock.
func (sh *tsShard) inflateLocked(db *DB, c *chunk) bool {
	if !c.sealed() {
		return true
	}
	times, vals, err := decodeChunk(c.enc)
	if err != nil {
		db.deg.set(err)
		return false
	}
	c.times, c.vals = times, vals
	c.enc = nil
	c.idx.Store(nil)
	db.obs.inflates.Inc()
	return true
}

// InsertSeries bulk-loads a whole series under the key, exactly as the
// equivalent sequence of Inserts would. The source is in time order, so it
// is walked one slot's run of points at a time, and a chunk the run creates
// is sized for the run up front instead of growing point by point.
func (db *DB) InsertSeries(key SeriesKey, src *ts.Series) {
	db.obs.writes.Inc()
	n := src.Len()
	if n == 0 {
		return
	}
	sh := db.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.seriesLocked(db, key)
	for i := 0; i < n; {
		slot := db.slotOf(src.TimeAt(i))
		end := i + 1
		for end < n && db.slotOf(src.TimeAt(end)) == slot {
			end++
		}
		if s.chunkFor(slot, false) == nil {
			c := s.chunkFor(slot, true)
			c.times, c.vals = make([]ts.Time, 0, end-i), make([]float64, 0, end-i)
		}
		for ; i < end; i++ {
			sh.insertLocked(db, s, src.TimeAt(i), src.ValueAt(i))
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
	if _, ok := sh.data[key]; !ok {
		// Absent key: a pure no-op must not count as a write, or the obs
		// write counters the mixed bench reports drift from effective work
		// (idempotent crash-recovery rollbacks delete freely).
		return false
	}
	db.obs.writes.Inc()
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

// Range returns the points of a series with start <= t < end in time order.
func (db *DB) Range(key SeriesKey, start, end ts.Time) []ts.Point {
	db.obs.reads.Inc()
	return db.collectRange(key, start, end)
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
// binary search. A sealed chunk streams its points from the last sub-slot
// checkpoint at or before start (scanSealed); an open chunk locates the
// range by binary search over its points.
func (sh *tsShard) scanRangeLocked(db *DB, key SeriesKey, start, end ts.Time, fn func(ts.Time, float64)) {
	s, ok := sh.data[key]
	if !ok || start >= end {
		return
	}
	loSlot, hiSlot := db.slotOf(start), db.slotOf(end-1)
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].slot >= loSlot })
	for ; i < len(s.chunks) && s.chunks[i].slot <= hiSlot; i++ {
		c := s.chunks[i]
		if c.sealed() {
			db.scanSealed(c, start, end, fn)
			continue
		}
		lo := sort.Search(len(c.times), func(j int) bool { return c.times[j] >= start })
		for j := lo; j < len(c.times) && c.times[j] < end; j++ {
			fn(c.times[j], c.vals[j])
		}
	}
}

// scanSealed visits the points of a sealed chunk that lie in
// [start, end) through its sub-slot index: it decodes in place from the
// checkpoint at or before start and stops at the first point at or past
// end, allocating nothing once the index exists.
func (db *DB) scanSealed(c *chunk, start, end ts.Time, fn func(ts.Time, float64)) {
	x := db.index(c)
	if x == nil {
		return
	}
	if err := x.scan(c.enc, start, end, fn); err != nil {
		db.deg.set(err)
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
	return PearsonJoined(db.collectRange(a, start, end), db.collectRange(b, start, end))
}

// PearsonJoined is Correlate's fold over two time-ordered point sets: an
// exact merge join on timestamps, NaN under two shared points or a constant
// side. The coordinator folds a cross-partition pair of fetched point sets
// with it, so its answer is bit-identical to a single store's.
func PearsonJoined(pa, pb []ts.Point) float64 {
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

// collectRange is Range's body: the points of a series in [start, end),
// collected under its shard's read lock. Callers count their own reads.
func (db *DB) collectRange(key SeriesKey, start, end ts.Time) []ts.Point {
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

// add folds n points with the given sum and extrema into s: a chunk
// summary, a sub-slot summary, or one point as add(1, v, v, v). NaN
// comparisons are false, so NaN extrema (and NaN points) leave Min/Max
// untouched while a NaN sum poisons Sum.
func (s *Summary) add(n int, sum, lo, hi float64) {
	s.Count += n
	s.Sum += sum
	if lo < s.Min {
		s.Min = lo
	}
	if hi > s.Max {
		s.Max = hi
	}
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
	// Slots fullLo..fullHi lie wholly inside the window: the first is the
	// one start opens (or the next), the last the one before end's.
	// Comparing slot numbers, not slot*width bounds, keeps the test exact in
	// the outermost slots, where those products wrap.
	fullLo, fullHi := loSlot, db.slotOf(end)-1
	if start != math.MinInt64 && db.slotOf(start-1) == loSlot {
		fullLo++
	}
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].slot >= loSlot })
	for ; i < len(s.chunks) && s.chunks[i].slot <= hiSlot; i++ {
		c := s.chunks[i]
		switch {
		case fullLo <= c.slot && c.slot <= fullHi:
			// Pushdown: the whole chunk is inside the range. Only the hot
			// summary is read — never the (possibly compressed) payload.
			out.add(c.n, c.sum, c.minV, c.maxV)
		case c.sealed():
			db.foldEdge(c, start, end, &out)
		default:
			lo := sort.Search(len(c.times), func(j int) bool { return c.times[j] >= start })
			for j := lo; j < len(c.times) && c.times[j] < end; j++ {
				v := c.vals[j]
				out.add(1, v, v, v)
			}
		}
	}
	return normalize(out)
}

// foldEdge folds the points of a sealed edge chunk that lie in
// [start, end) through its sub-slot index: a sub-slot wholly inside the
// window folds its summary, and one that straddles a window bound decodes
// from its checkpoint. At most one sub-slot per bound decodes, and nothing
// is allocated once the index exists.
func (db *DB) foldEdge(c *chunk, start, end ts.Time, out *Summary) {
	x := db.index(c)
	if x == nil {
		return
	}
	for k := 0; k < int(x.k) && x.t[k] < end; k++ {
		switch {
		case x.below(k, start): // wholly before the window
		case x.t[k] >= start && x.below(k, end):
			out.add(x.count(k), x.sum[k], x.min[k], x.max[k])
		default:
			if err := x.fold(c.enc, k, start, end, out); err != nil {
				db.deg.set(err)
				return
			}
		}
	}
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

// AggregateShard summarizes every series of the metric held by one lock
// stripe (0 <= shard < NumShards), taking that stripe's read lock exactly
// once — the per-worker locked batch of the parallel executor. Callers fan
// shards out across workers and MergeBySeq the parts; the fan-out as a
// whole counts as one store read, which the caller's entry point accounts
// for.
func (db *DB) AggregateShard(shard int, metric string, start, end ts.Time) []EntitySummary {
	sh := &db.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]EntitySummary, 0, len(sh.keys))
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

// MergeBySeq flattens per-shard summary batches into global first-insertion
// order. Each AggregateShard batch follows its stripe's keys, so it ascends
// by Seq (see tsShard), and the batches merge as runs.
func MergeBySeq(parts [][]EntitySummary) []EntitySummary {
	return mergeRuns(parts, func(e EntitySummary) uint64 { return e.Seq })
}

// mergeRuns merges runs, each ascending by key, into one ascending slice.
// Keys are distinct across runs. The runs are few (one per lock stripe or
// partition), so the smallest head is found by a scan of the heads' keys,
// which are kept beside the runs; the last run left is copied whole.
func mergeRuns[T any](runs [][]T, key func(T) uint64) []T {
	n := 0
	live := make([][]T, 0, len(runs))
	heads := make([]uint64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			heads = append(heads, key(r[0]))
			n += len(r)
		}
	}
	out := make([]T, 0, n)
	for len(live) > 1 {
		m := 0
		for i, h := range heads {
			if h < heads[m] {
				m = i
			}
		}
		out = append(out, live[m][0])
		if live[m] = live[m][1:]; len(live[m]) > 0 {
			heads[m] = key(live[m][0])
			continue
		}
		last := len(live) - 1
		live[m], heads[m] = live[last], heads[last]
		live, heads = live[:last], heads[:last]
	}
	for _, r := range live {
		out = append(out, r...)
	}
	return out
}

// Downsample buckets a series over [start, end) at the given width with the
// aggregation — a continuous-aggregate style query. It is one pass under the
// shard's read lock: the chunk scan feeds each bucket's values into one
// reused scratch slice, and agg folds the slice when the bucket changes.
// That is Series.Resample's fold over the same points in the same order, so
// the result equals RangeSeries(key, start, end).Resample(bucket, agg) bit
// for bit. The returned series is the caller's.
func (db *DB) Downsample(key SeriesKey, start, end, bucket ts.Time, agg ts.AggFunc) *ts.Series {
	db.obs.reads.Inc()
	out := ts.New(fmt.Sprintf("%s@%d_per_%dms", key.Metric, key.Entity, bucket))
	if bucket <= 0 {
		return out
	}
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var vals []float64
	var cur ts.Time
	sh.scanRangeLocked(db, key, start, end, func(t ts.Time, v float64) {
		if b := ts.BucketStart(t, bucket); len(vals) == 0 || b != cur {
			if len(vals) > 0 {
				out.MustAppend(cur, agg.Apply(vals))
			}
			vals, cur = vals[:0], b
		}
		vals = append(vals, v)
	})
	if len(vals) > 0 {
		out.MustAppend(cur, agg.Apply(vals))
	}
	return out
}

// CorrelateResampled computes the Pearson correlation of two series after
// downsampling both onto the shared bucket grid (bucket means), joining on
// bucket timestamps. NaN when fewer than two shared buckets exist or a side
// is constant.
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

// Stats describes storage shape for capacity reports. MemBytes counts
// payload bytes: 16 per point for open chunks (8 time + 8 value) and the
// block length for compressed chunks. The hot per-chunk summaries are a few
// dozen bytes per chunk in both states, plus a 256-byte sub-slot index on
// each sealed chunk once it has been read.
type Stats struct {
	Series int
	Chunks int
	Points int

	OpenChunks       int
	CompressedChunks int
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
				if c.sealed() {
					st.CompressedChunks++
					st.MemBytes += int64(len(c.enc))
				} else {
					st.OpenChunks++
					st.MemBytes += 16 * int64(len(c.times))
				}
			}
		}
		sh.mu.RUnlock()
	}
	return st
}
