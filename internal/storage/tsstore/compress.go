package tsstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"hygraph/internal/ts"
)

// Sealed-chunk compression: the TimescaleDB-style columnar codec the survey
// in PAPERS.md credits for TS-native scale. A sealed chunk's points are
// encoded into one immutable block:
//
//	uvarint(n)                      point count
//	varint(t0)                      first timestamp
//	varint(d1)                      first delta (n >= 2)
//	varint(dod_i) for i in 2..n-1   delta-of-delta per remaining point
//	uvarint(len(values))            value stream length in bytes
//	values                          Gorilla XOR bit stream (see below)
//
// Timestamps use byte-aligned varint delta-of-delta: a regular sampling grid
// (the overwhelmingly common shape — hourly availability, minutely sensors)
// has dod == 0 everywhere and costs one byte per point. Values use the
// Gorilla XOR scheme: each float64 is XORed with its predecessor; a zero XOR
// is a single '0' bit, otherwise the meaningful (non-zero) bit window is
// emitted, reusing the previous window's bounds when it still fits:
//
//	'0'                          value identical to predecessor
//	'1' '0' <meaningful bits>    window of the previous value reused
//	'1' '1' <5b leading> <6b sig-1> <meaningful bits>   new window
//
// The codec is exact: decodeChunk(encodeChunk(ts, vs)) reproduces the input
// bit-for-bit (NaN payloads included), which is what lets the differential
// battery demand byte-identical query results from compressed stores.

// bitWriter packs bits MSB-first into a byte slice through a 64-bit
// accumulator that is stored a word at a time, so a write is a mask, a
// compare and a shift or two.
type bitWriter struct {
	b   []byte // whole words written so far
	acc uint64 // pending bits, MSB-aligned; the bits below the top n are zero
	n   uint   // pending bit count, < 64
}

// writeBits emits the low n <= 64 bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v &= 1<<n - 1 // shift counts >= 64 yield 0 in Go, so n == 64 keeps all of v
	free := 64 - w.n
	if n < free {
		w.acc |= v << (free - n)
		w.n += n
		return
	}
	// The accumulator fills: store it, keeping the bits left over.
	spill := n - free
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc|v>>spill)
	w.n = spill
	w.acc = v << (64 - spill) // 0 when nothing spills: a shift by 64
}

// bytes returns the stream, its pending bits zero-padded to whole bytes.
// Call it once, after the last write.
func (w *bitWriter) bytes() []byte {
	for k := uint(0); k < w.n; k += 8 {
		w.b = append(w.b, byte(w.acc>>(56-k)))
	}
	return w.b
}

var errValuesTruncated = errors.New("tsstore: value stream truncated")

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// accumulator that is refilled a word at a time, so a read that the
// accumulator covers is a compare and two shifts.
type bitReader struct {
	b   []byte // bytes not yet loaded into acc
	acc uint64 // buffered bits, MSB-aligned; the bits below the top n are zero
	n   uint   // buffered bit count
}

// readBits returns the next n <= 64 bits. A read past the end of the stream
// fails without consuming anything.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.n < n {
		return r.readSlow(n)
	}
	return r.take(n), nil
}

// take consumes n bits the accumulator already holds.
func (r *bitReader) take(n uint) uint64 {
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v
}

// readSlow is readBits when the accumulator holds fewer than n bits. One
// refill guarantees only 57 buffered bits, so wider reads take two.
func (r *bitReader) readSlow(n uint) (uint64, error) {
	if r.n+8*uint(len(r.b)) < n {
		return 0, errValuesTruncated
	}
	r.refill()
	if n <= 56 {
		return r.take(n), nil
	}
	hi := r.take(n - 32)
	r.refill()
	return hi<<32 | r.take(32), nil
}

// refill tops the accumulator up with whole bytes: one big-endian word load
// while at least 8 bytes remain, bytewise at the tail. Afterwards it holds
// at least min(57, bits left in the stream) bits.
func (r *bitReader) refill() {
	if len(r.b) >= 8 {
		k := (64 - r.n) >> 3 // whole bytes that fit
		w := binary.BigEndian.Uint64(r.b)
		r.acc |= w >> (64 - 8*k) << (64 - 8*k - r.n)
		r.b = r.b[k:]
		r.n += 8 * k
		return
	}
	for r.n <= 56 && len(r.b) > 0 {
		r.acc |= uint64(r.b[0]) << (56 - r.n)
		r.b = r.b[1:]
		r.n += 8
	}
}

// encodeChunk compresses one chunk's points (times strictly increasing,
// len(times) == len(vals) > 0) into an immutable block.
func encodeChunk(times []ts.Time, vals []float64) []byte {
	n := len(times)
	if n == 0 {
		return binary.AppendUvarint(nil, 0)
	}
	values := encodeValues(vals)
	// The chunk keeps the block for its life, so size it exactly for a
	// regular grid (one byte per delta-of-delta): other grids grow it once.
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+n+len(values))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendVarint(buf, int64(times[0]))
	if n >= 2 {
		prevDelta := int64(times[1] - times[0])
		buf = binary.AppendVarint(buf, prevDelta)
		for i := 2; i < n; i++ {
			d := int64(times[i] - times[i-1])
			buf = binary.AppendVarint(buf, d-prevDelta)
			prevDelta = d
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	return append(buf, values...)
}

// encodeValues writes the Gorilla XOR stream of vals (len(vals) > 0).
func encodeValues(vals []float64) []byte {
	// Integer-valued series take two to three bytes a point.
	bw := bitWriter{b: make([]byte, 0, 8+3*len(vals))}
	bw.writeBits(math.Float64bits(vals[0]), 64)
	prev := math.Float64bits(vals[0])
	lead, sig := uint(0), uint(0) // current window; sig == 0 means none yet
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			bw.writeBits(0, 1)
			continue
		}
		l := uint(bits.LeadingZeros64(xor))
		if l > 31 {
			l = 31 // 5-bit field; deeper windows gain little
		}
		t := uint(bits.TrailingZeros64(xor))
		// Reuse the previous window when the xor's meaningful bits fit
		// inside it: at least `lead` leading and `64-lead-sig` trailing zeros.
		if sig != 0 && l >= lead && t >= 64-lead-sig {
			bw.writeBits(0b10, 2)
			bw.writeBits(xor>>(64-lead-sig), sig)
			continue
		}
		lead, sig = l, 64-l-t
		bw.writeBits(0b11<<11|uint64(lead)<<6|uint64(sig-1), 13) // '1' '1' <5b lead> <6b sig-1>
		bw.writeBits(xor>>t, sig)
	}
	return bw.bytes()
}

// blockCursor is the decoder's state between two points of a block: each
// stream's read position and the last decoded point. The time and value
// streams advance independently, since the value stream starts only where
// the time stream ends: decodeChunk walks every time, then every value, and
// a scan or edge fold reopens both at a sub-slot checkpoint and walks them
// together. Inside a regular sub-slot they set step, and the times then
// advance by arithmetic instead of from the time stream.
type blockCursor struct {
	td    []byte    // time stream, from the next point's delta-of-delta on
	t     ts.Time   // last decoded time
	delta int64     // last decoded delta
	step  int64     // > 0: the next time is t + step, and td is not read
	vr    bitReader // value stream, from the next point's control bit on
	v     uint64    // last decoded value bits
	lead  uint      // XOR window of the last new-window value
	sig   uint      // its width; 0 means no window yet
}

var (
	errCorruptDod       = errors.New("tsstore: corrupt block delta-of-delta")
	errTimesNotIncrease = errors.New("tsstore: block timestamps not increasing")
	errReuseBeforeDef   = errors.New("tsstore: block reuses window before defining one")
)

// openBlock parses a block's point count and first timestamp. The cursor is
// on point 0's time; its time stream continues at the first delta, which
// decodes as a delta-of-delta against a zero delta.
func openBlock(block []byte) (int, blockCursor, error) {
	var c blockCursor
	n, w := binary.Uvarint(block)
	if w <= 0 {
		return 0, c, fmt.Errorf("tsstore: corrupt block count")
	}
	// Every point past the second costs >= 1 timestamp byte; cap n before
	// anyone allocates so corrupt headers can't OOM the loader.
	if n > uint64(len(block))+2 {
		return 0, c, fmt.Errorf("tsstore: block count %d exceeds payload", n)
	}
	if n == 0 {
		return 0, c, nil
	}
	rd := block[w:]
	t0, w := binary.Varint(rd)
	if w <= 0 {
		return 0, c, fmt.Errorf("tsstore: corrupt block t0")
	}
	c.td, c.t = rd[w:], ts.Time(t0)
	return int(n), c, nil
}

// nextTime decodes the next point's timestamp, which must exceed the last.
func (c *blockCursor) nextTime() error {
	var dod int64
	if len(c.td) > 0 && c.td[0] < 0x80 { // one-byte varint: every point of a regular grid
		dod = int64(c.td[0]>>1) ^ -int64(c.td[0]&1)
		c.td = c.td[1:]
	} else {
		var w int
		if dod, w = binary.Varint(c.td); w <= 0 {
			return errCorruptDod
		}
		c.td = c.td[w:]
	}
	c.delta += dod
	t := c.t + ts.Time(c.delta)
	if t <= c.t {
		return errTimesNotIncrease
	}
	c.t = t
	return nil
}

// openValues reads the value stream's length where the time stream ends and
// point 0's value from its head. It returns the stream's end as an offset
// from where the time stream ended.
func (c *blockCursor) openValues() (end int, err error) {
	vlen, w := binary.Uvarint(c.td)
	if w <= 0 || vlen > uint64(len(c.td[w:])) {
		return 0, fmt.Errorf("tsstore: corrupt block value length")
	}
	end = w + int(vlen)
	c.vr = bitReader{b: c.td[w:end]}
	c.td = nil
	if c.v, err = c.vr.readBits(64); err != nil {
		return 0, err
	}
	return end, nil
}

// nextValue decodes the next point's value bits. The control bits and the
// 11-bit window header come straight from the accumulator after at most
// one refill; a refill leaves at least 57 bits buffered unless the stream
// ends, so a short buffer then means a truncated stream.
func (c *blockCursor) nextValue() error {
	r := &c.vr
	if r.n < 13 {
		r.refill()
	}
	if r.n < 1 {
		return errValuesTruncated
	}
	if r.take(1) == 0 {
		return nil // identical to its predecessor
	}
	if r.n < 1 {
		return errValuesTruncated
	}
	if r.take(1) == 1 { // '1''1': new window, 5-bit lead and 6-bit sig-1 as one field
		if r.n < 11 {
			return errValuesTruncated
		}
		hdr := r.take(11)
		c.lead, c.sig = uint(hdr>>6), uint(hdr&63)+1
	} else if c.sig == 0 {
		return errReuseBeforeDef
	}
	mbits, err := r.readBits(c.sig)
	if err != nil {
		return err
	}
	c.v ^= mbits << (64 - c.lead - c.sig)
	return nil
}

// next advances both streams to the following point. With a step set, the
// cursor is inside a sub-slot buildIndex found regular, so the time is
// t + step and the time stream is not read: the index validated that time
// when it was built, and no point past the sub-slot's last is stepped to.
func (c *blockCursor) next() error {
	if c.step > 0 {
		c.t += ts.Time(c.step)
	} else if err := c.nextTime(); err != nil {
		return err
	}
	return c.nextValue()
}

// decodeChunk inflates a block produced by encodeChunk into freshly
// allocated slices. Corrupt input returns an error, never a panic — blocks
// also arrive from snapshots.
func decodeChunk(block []byte) ([]ts.Time, []float64, error) {
	n, cur, err := openBlock(block)
	if err != nil {
		return nil, nil, err
	}
	times := make([]ts.Time, n)
	vals := make([]float64, n)
	if n == 0 {
		return times, vals, nil
	}
	times[0] = cur.t
	for i := 1; i < n; i++ {
		if err := cur.nextTime(); err != nil {
			return nil, nil, err
		}
		times[i] = cur.t
	}
	if _, err := cur.openValues(); err != nil {
		return nil, nil, err
	}
	vals[0] = math.Float64frombits(cur.v)
	for i := 1; i < n; i++ {
		if err := cur.nextValue(); err != nil {
			return nil, nil, err
		}
		vals[i] = math.Float64frombits(cur.v)
	}
	return times, vals, nil
}

// subSlots is K, the sub-slot count of a sealed chunk's index. K = 8 was
// measured first and doubled the index; see docs/STORAGE.md for both.
const subSlots = 4

// maxIndexedBlock bounds the blocks an index can address: offsets are 32
// bits, and value-stream offsets count bits. It is below 2^31, which leaves
// the top bit of a time-stream offset free for the regular flag.
const maxIndexedBlock = math.MaxUint32 / 8

// regular flags, in a sub-slot's tOff, that its points lie on a regular
// cadence t_k + j·step: every delta inside the sub-slot, and the one into the
// next checkpoint, is the same.
const regular = 1 << 31

// subSlotIndex is the derived, in-memory index of one sealed block: its
// points split by count into up to subSlots sub-slots of per points each,
// with a resume checkpoint and a summary per sub-slot. It lets an aggregate
// fold the sub-slots inside its window from their summaries and decode at
// most one sub-slot at each end, and a scan start decoding at the sub-slot
// that holds its window's start. It is built by one validating pass over
// the block (buildIndex) and never persisted.
//
// Each array holds one field for every sub-slot, so no padding is paid per
// checkpoint: the whole index is 256 bytes. Sub-slot k's checkpoint is the
// cursor on its first point.
type subSlotIndex struct {
	t         [subSlots]ts.Time // the point's time
	delta     [subSlots]int64   // its delta from the previous point (0 for point 0)
	v         [subSlots]uint64  // its value bits
	tOff      [subSlots]uint32  // block offset of the next point's delta-of-delta, | regular
	vOff      [subSlots]uint32  // block bit offset of the next point's control bit
	lead, sig [subSlots]uint8   // the XOR window in force

	// The sub-slot's summary; its count is the index difference.
	sum, min, max [subSlots]float64

	last ts.Time // the block's last time
	n    int32   // points in the block
	per  int32   // points per sub-slot, ceil(n/subSlots)
	k    int32   // sub-slots in use, ceil(n/per)
	vEnd uint32  // block offset of the value stream's end
}

// buildIndex makes one validating pass over a block — it accepts exactly
// the blocks decodeChunk accepts — recording each sub-slot's checkpoint,
// whether its cadence is regular, and folding its summary.
func buildIndex(block []byte) (*subSlotIndex, error) {
	if len(block) > maxIndexedBlock {
		return nil, fmt.Errorf("tsstore: block of %d bytes exceeds the sub-slot index's %d", len(block), maxIndexedBlock)
	}
	n, cur, err := openBlock(block)
	if err != nil {
		return nil, err
	}
	x := &subSlotIndex{n: int32(n)}
	if n == 0 {
		return x, nil
	}
	per := (n + subSlots - 1) / subSlots
	x.per, x.k = int32(per), int32((n+per-1)/per)
	var ragged [subSlots]bool
	for i := 0; i < n; i++ {
		if i > 0 {
			prev := cur.delta
			if err := cur.nextTime(); err != nil {
				return nil, err
			}
			// The delta into point i is a step of point i−1's sub-slot (on a
			// checkpoint, the step into the next one); each after the
			// sub-slot's first must repeat it.
			if (i-1)%per != 0 && cur.delta != prev {
				ragged[(i-1)/per] = true
			}
		}
		if k := i / per; i%per == 0 {
			x.t[k], x.delta[k], x.tOff[k] = cur.t, cur.delta, uint32(len(block)-len(cur.td))
		}
	}
	for k := range x.k {
		if !ragged[k] {
			x.tOff[k] |= regular
		}
	}
	x.last = cur.t
	at := len(block) - len(cur.td) // where the time stream ends
	end, err := cur.openValues()
	if err != nil {
		return nil, err
	}
	x.vEnd = uint32(at + end)
	var sub Summary
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := cur.nextValue(); err != nil {
				return nil, err
			}
		}
		k := i / per
		if i%per == 0 {
			x.v[k], x.lead[k], x.sig[k] = cur.v, uint8(cur.lead), uint8(cur.sig)
			// Bits consumed: bytes taken from the stream less those still
			// buffered in the accumulator.
			x.vOff[k] = uint32(8*(int(x.vEnd)-len(cur.vr.b)) - int(cur.vr.n))
			sub = Summary{Min: math.Inf(1), Max: math.Inf(-1)}
		}
		v := math.Float64frombits(cur.v)
		sub.add(1, v, v, v)
		x.sum[k], x.min[k], x.max[k] = sub.Sum, sub.Min, sub.Max
	}
	return x, nil
}

// count is the number of points in sub-slot k.
func (x *subSlotIndex) count(k int) int {
	return int(min(x.per, x.n-int32(k)*x.per))
}

// step is the spacing of sub-slot k's points when buildIndex found them
// regular, and 0 when it did not or the sub-slot holds one point. It is not
// stored: a sub-slot before the last spans per steps to the next checkpoint,
// and the last spans count−1 steps to the block's last time. The span is
// positive and below 2^64, so it is exact as a uint64 even where the
// difference of two times wraps an int64.
func (x *subSlotIndex) step(k int) int64 {
	n := x.count(k)
	if x.tOff[k]&regular == 0 || n < 2 {
		return 0
	}
	if k+1 < int(x.k) {
		return int64(uint64(x.t[k+1]-x.t[k]) / uint64(x.per))
	}
	return int64(uint64(x.last-x.t[k]) / uint64(n-1))
}

// below reports whether every point of sub-slot k lies before t: the next
// sub-slot starts at or before t, or, for the last one, the block's last
// time is before t. It compares times only, so no bound can wrap.
func (x *subSlotIndex) below(k int, t ts.Time) bool {
	if k+1 < int(x.k) {
		return x.t[k+1] <= t
	}
	return x.last < t
}

// resume returns a cursor on sub-slot k's first point, ready to decode the
// points after it. Every later step keeps decodeChunk's per-point checks.
func (x *subSlotIndex) resume(block []byte, k int) (blockCursor, error) {
	c := blockCursor{
		td: block[x.tOff[k]&^regular:], t: x.t[k], delta: x.delta[k],
		vr: bitReader{b: block[x.vOff[k]/8 : x.vEnd]}, v: x.v[k], lead: uint(x.lead[k]), sig: uint(x.sig[k]),
	}
	if _, err := c.vr.readBits(uint(x.vOff[k] % 8)); err != nil {
		return c, err
	}
	return c, nil
}

// scan visits the block's points in [start, end) in time order: it resumes
// at the last checkpoint at or before start and decodes in place, stopping
// at the first point at or past end. Each checkpoint it crosses reseats the
// cursor's time state from the index, so a regular sub-slot's times step by
// arithmetic there too.
func (x *subSlotIndex) scan(block []byte, start, end ts.Time, fn func(ts.Time, float64)) error {
	if x.n == 0 || x.last < start {
		return nil
	}
	k := 0
	for k+1 < int(x.k) && x.t[k+1] <= start {
		k++
	}
	cur, err := x.resume(block, k)
	if err != nil {
		return err
	}
	cur.step = x.step(k)
	for left, inSlot := int(x.n-int32(k)*x.per), x.count(k); cur.t < end; {
		if cur.t >= start {
			fn(cur.t, math.Float64frombits(cur.v))
		}
		if left--; left == 0 {
			return nil
		}
		if inSlot--; inSlot > 0 {
			err = cur.next()
		} else {
			// The next point is sub-slot k+1's checkpoint: its time comes
			// from the index, and the time stream resumes after it.
			k++
			inSlot = x.count(k)
			cur.td, cur.t, cur.delta, cur.step = block[x.tOff[k]&^regular:], x.t[k], x.delta[k], x.step(k)
			err = cur.nextValue()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fold folds the points of sub-slot k that lie in [start, end) into out,
// decoding from the sub-slot's checkpoint in place and stopping at the
// first point at or past end. It is scan bounded to one sub-slot, kept
// apart so that an aggregate edge — the hot path of the all-station
// aggregates — pays no visitor call per point. On a regular sub-slot the
// times step by arithmetic, so only the value stream is decoded; it never
// steps past the sub-slot's last point.
func (x *subSlotIndex) fold(block []byte, k int, start, end ts.Time, out *Summary) error {
	cur, err := x.resume(block, k)
	if err != nil {
		return err
	}
	cur.step = x.step(k)
	for left := x.count(k); cur.t < end; {
		if cur.t >= start {
			v := math.Float64frombits(cur.v)
			out.add(1, v, v, v)
		}
		if left--; left == 0 {
			return nil
		}
		if err := cur.next(); err != nil {
			return err
		}
	}
	return nil
}
