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

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	b    []byte
	free uint // unused low bits in the last byte (0 when b is "full")
}

func (w *bitWriter) writeBit(bit uint64) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	w.free--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.free
	}
}

// writeBits emits the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
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
	buf := make([]byte, 0, 2*n) // regular grids land well under this
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf
	}
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

	var bw bitWriter
	bw.writeBits(math.Float64bits(vals[0]), 64)
	prev := math.Float64bits(vals[0])
	lead, sig := uint(0), uint(0) // current window; sig == 0 means none yet
	for i := 1; i < n; i++ {
		cur := math.Float64bits(vals[i])
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			bw.writeBit(0)
			continue
		}
		bw.writeBit(1)
		l := uint(bits.LeadingZeros64(xor))
		if l > 31 {
			l = 31 // 5-bit field; deeper windows gain little
		}
		t := uint(bits.TrailingZeros64(xor))
		s := 64 - l - t
		// Reuse the previous window when the xor's meaningful bits fit
		// inside it: at least `lead` leading and `64-lead-sig` trailing zeros.
		if sig != 0 && l >= lead && t >= 64-lead-sig {
			bw.writeBit(0)
			bw.writeBits(xor>>(64-lead-sig), sig)
			continue
		}
		lead, sig = l, s
		bw.writeBit(1)
		bw.writeBits(uint64(lead), 5)
		bw.writeBits(uint64(sig-1), 6)
		bw.writeBits(xor>>t, sig)
	}
	buf = binary.AppendUvarint(buf, uint64(len(bw.b)))
	return append(buf, bw.b...)
}

// decodeChunk inflates a block produced by encodeChunk into freshly
// allocated slices. Corrupt input returns an error, never a panic — blocks
// also arrive from snapshots and spill files.
func decodeChunk(block []byte) ([]ts.Time, []float64, error) {
	rd := block
	n, w := binary.Uvarint(rd)
	if w <= 0 {
		return nil, nil, fmt.Errorf("tsstore: corrupt block count")
	}
	rd = rd[w:]
	// Every point past the second costs >= 1 timestamp byte; cap n before
	// allocating so corrupt headers can't OOM the loader.
	if n > uint64(len(block))+2 {
		return nil, nil, fmt.Errorf("tsstore: block count %d exceeds payload", n)
	}
	times := make([]ts.Time, n)
	vals := make([]float64, n)
	if n == 0 {
		return times, vals, nil
	}
	t0, w := binary.Varint(rd)
	if w <= 0 {
		return nil, nil, fmt.Errorf("tsstore: corrupt block t0")
	}
	rd = rd[w:]
	times[0] = ts.Time(t0)
	if n >= 2 {
		delta, w := binary.Varint(rd)
		if w <= 0 {
			return nil, nil, fmt.Errorf("tsstore: corrupt block delta")
		}
		rd = rd[w:]
		times[1] = times[0] + ts.Time(delta)
		for i := uint64(2); i < n; i++ {
			var dod int64
			if len(rd) > 0 && rd[0] < 0x80 { // one-byte varint: every point of a regular grid
				dod = int64(rd[0]>>1) ^ -int64(rd[0]&1)
				rd = rd[1:]
			} else {
				var w int
				if dod, w = binary.Varint(rd); w <= 0 {
					return nil, nil, fmt.Errorf("tsstore: corrupt block dod at %d", i)
				}
				rd = rd[w:]
			}
			delta += dod
			times[i] = times[i-1] + ts.Time(delta)
		}
	}
	vlen, w := binary.Uvarint(rd)
	if w <= 0 || vlen > uint64(len(rd[w:])) {
		return nil, nil, fmt.Errorf("tsstore: corrupt block value length")
	}
	br := bitReader{b: rd[w : w+int(vlen)]}
	first, err := br.readBits(64)
	if err != nil {
		return nil, nil, err
	}
	prev := first
	vals[0] = math.Float64frombits(first)
	lead, sig := uint(0), uint(0)
	for i := uint64(1); i < n; i++ {
		ctrl, err := br.readBits(1)
		if err != nil {
			return nil, nil, err
		}
		if ctrl == 0 {
			vals[i] = math.Float64frombits(prev)
			continue
		}
		reuse, err := br.readBits(1)
		if err != nil {
			return nil, nil, err
		}
		if reuse == 1 { // '1''1': new window, 5-bit lead and 6-bit sig-1 as one field
			hdr, err := br.readBits(11)
			if err != nil {
				return nil, nil, err
			}
			lead, sig = uint(hdr>>6), uint(hdr&63)+1
		} else if sig == 0 {
			return nil, nil, fmt.Errorf("tsstore: block reuses window before defining one")
		}
		mbits, err := br.readBits(sig)
		if err != nil {
			return nil, nil, err
		}
		prev ^= mbits << (64 - lead - sig)
		vals[i] = math.Float64frombits(prev)
	}
	for i := uint64(1); i < n; i++ {
		if times[i] <= times[i-1] {
			return nil, nil, fmt.Errorf("tsstore: block timestamps not increasing at %d", i)
		}
	}
	return times, vals, nil
}
