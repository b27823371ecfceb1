package tsstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hygraph/internal/ts"
)

func roundTrip(t *testing.T, times []ts.Time, vals []float64) {
	t.Helper()
	block := encodeChunk(times, vals)
	gotT, gotV, err := decodeChunk(block)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gotT) != len(times) || len(gotV) != len(vals) {
		t.Fatalf("length mismatch: %d/%d vs %d/%d", len(gotT), len(gotV), len(times), len(vals))
	}
	for i := range times {
		if gotT[i] != times[i] {
			t.Fatalf("time[%d] = %d, want %d", i, gotT[i], times[i])
		}
		if math.Float64bits(gotV[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("val[%d] = %x, want %x (bit-exact)", i, math.Float64bits(gotV[i]), math.Float64bits(vals[i]))
		}
	}
}

var codecShapes = []struct {
	name  string
	times []ts.Time
	vals  []float64
}{
	{"single", []ts.Time{42}, []float64{3.14}},
	{"pair", []ts.Time{-5, 7}, []float64{1, 1}},
	{"regular grid", []ts.Time{0, 3600000, 7200000, 10800000}, []float64{10, 10, 12, 9}},
	{"irregular", []ts.Time{-1000, 3, 4, 5000, 123456789}, []float64{0.1, -0.1, 1e300, -1e-300, 0}},
	{"constant", []ts.Time{1, 2, 3, 4, 5}, []float64{7, 7, 7, 7, 7}},
	{"specials", []ts.Time{1, 2, 3, 4, 5}, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64}},
}

func TestCodecRoundTripShapes(t *testing.T) {
	for _, tc := range codecShapes {
		t.Run(tc.name, func(t *testing.T) { roundTrip(t, tc.times, tc.vals) })
	}
}

// hourlyBlock encodes one week of hourly integer-valued samples — the
// shape of a sealed bike-availability chunk.
func hourlyBlock() []byte {
	const n = 168
	times := make([]ts.Time, n)
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range times {
		times[i] = ts.Time(i) * ts.Hour
		vals[i] = float64(rng.Intn(40))
	}
	return encodeChunk(times, vals)
}

func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		times := make([]ts.Time, n)
		vals := make([]float64, n)
		cur := ts.Time(rng.Int63n(1 << 40))
		for i := 0; i < n; i++ {
			cur += ts.Time(1 + rng.Int63n(100000))
			times[i] = cur
			switch rng.Intn(4) {
			case 0:
				vals[i] = float64(rng.Intn(100)) // integer-ish, XOR-friendly
			case 1:
				vals[i] = rng.NormFloat64() * 1e6
			case 2:
				if i > 0 {
					vals[i] = vals[i-1] // repeated value, '0' control bit
				}
			default:
				vals[i] = math.Float64frombits(rng.Uint64()) // arbitrary bits
			}
		}
		roundTrip(t, times, vals)
	}
}

// Regular integer-valued grids are the bench workload; pin the size win the
// points-per-MB column depends on (raw layout: 16 bytes/point).
func TestCodecCompressesRegularGrid(t *testing.T) {
	n := 1000
	times := make([]ts.Time, n)
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range times {
		times[i] = ts.Time(i) * ts.Hour
		vals[i] = float64(rng.Intn(60))
	}
	block := encodeChunk(times, vals)
	if got, limit := len(block), 16*n/4; got > limit {
		t.Fatalf("block = %d bytes for %d points; want <= %d (4x under raw)", got, n, limit)
	}
}

// Corrupt blocks must come back as errors, never panics or giant
// allocations — blocks arrive from snapshots and spill files.
func TestDecodeCorruptBlocks(t *testing.T) {
	good := encodeChunk([]ts.Time{1, 2, 3}, []float64{1, 2, 3})
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeChunk(good[:cut]); err == nil && cut < len(good) {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		// Any outcome but a panic/OOM is fine; decode under recover-free test.
		decodeChunk(mut)
	}
	if _, _, err := decodeChunk([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("absurd count accepted")
	}
}

// Every point past the second costs at least one timestamp byte, so a
// count above len(block)+2 is rejected before the slices are allocated.
func TestDecodeCountCapMatchesFormat(t *testing.T) {
	block := append(binary.AppendUvarint(nil, 40), make([]byte, 10)...)
	_, _, err := decodeChunk(block)
	if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("count 40 in an 11-byte block: err = %v, want the exceeds-payload cap", err)
	}
}

// readBits must agree with the bit-at-a-time reference reader wherever a
// read starts relative to the 64-bit refill boundary.
func TestBitReaderWordBoundaries(t *testing.T) {
	buf := make([]byte, 24)
	rand.New(rand.NewSource(11)).Read(buf)
	widths := []uint{1, 2, 11, 56, 57, 63, 64}
	for off := uint(0); off < 64; off++ {
		for _, w := range widths {
			got := bitReader{b: buf}
			want := refBitReader{b: buf}
			// Skip off bits, read w, then drain the rest 7 bits at a time so
			// every later refill is checked too.
			for _, step := range []uint{off, w} {
				g, gerr := got.readBits(step)
				x, xerr := want.readBits(step)
				if gerr != nil || xerr != nil || g != x {
					t.Fatalf("off %d width %d step %d: got %x (%v), want %x (%v)", off, w, step, g, gerr, x, xerr)
				}
			}
			for left := 8*uint(len(buf)) - off - w; left > 0; {
				step := min(left, 7)
				g, gerr := got.readBits(step)
				x, _ := want.readBits(step)
				if gerr != nil || g != x {
					t.Fatalf("off %d width %d drain at %d left: got %x (%v), want %x", off, w, left, g, gerr, x)
				}
				left -= step
			}
			if _, err := got.readBits(1); err == nil {
				t.Fatalf("off %d width %d: read past the end accepted", off, w)
			}
		}
	}
	total := 8 * uint(len(buf))
	skip := func(r *bitReader, n uint) {
		for n > 0 {
			step := min(n, 64)
			if _, err := r.readBits(step); err != nil {
				t.Fatal(err)
			}
			n -= step
		}
	}
	for _, w := range widths {
		// A read ending on the last bit is accepted.
		r := bitReader{b: buf}
		skip(&r, total-w)
		ref := refBitReader{b: buf, pos: total - w}
		v, err := r.readBits(w)
		x, _ := ref.readBits(w)
		if err != nil || v != x {
			t.Fatalf("width %d ending on the last bit: got %x (%v), want %x", w, v, err, x)
		}
		// One needing a bit past the end fails and consumes nothing.
		r = bitReader{b: buf}
		skip(&r, total-w+1)
		if _, err := r.readBits(w); !errors.Is(err, errValuesTruncated) {
			t.Fatalf("width %d past the end: err = %v", w, err)
		}
		ref = refBitReader{b: buf, pos: total - w + 1}
		v, err = r.readBits(w - 1)
		x, _ = ref.readBits(w - 1)
		if err != nil || v != x {
			t.Fatalf("width %d: after the failed read got %x (%v), want %x", w, v, err, x)
		}
	}
}

// FuzzDecodeChunk checks the word-at-a-time decoder against the reference
// bit-at-a-time decoder on arbitrary bytes: both accept or both reject, and
// an accepted block decodes to identical times and bit-identical values.
func FuzzDecodeChunk(f *testing.F) {
	for _, tc := range codecShapes {
		f.Add(encodeChunk(tc.times, tc.vals))
	}
	block := hourlyBlock()
	for cut := 0; cut <= len(block); cut++ {
		f.Add(block[:cut])
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		gotT, gotV, err := decodeChunk(block)
		wantT, wantV, refErr := refDecodeChunk(block)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if len(gotT) != len(wantT) || len(gotV) != len(wantV) {
			t.Fatalf("lengths %d/%d, reference %d/%d", len(gotT), len(gotV), len(wantT), len(wantV))
		}
		for i := range wantT {
			if gotT[i] != wantT[i] || math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
				t.Fatalf("point %d: (%d, %x), reference (%d, %x)", i, gotT[i], math.Float64bits(gotV[i]), wantT[i], math.Float64bits(wantV[i]))
			}
		}
	})
}

func BenchmarkDecodeChunk(b *testing.B) {
	block := hourlyBlock()
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeChunk(block); err != nil {
			b.Fatal(err)
		}
	}
}

// refBitReader and refDecodeChunk are the original bit-at-a-time decoder,
// kept verbatim as the oracle for FuzzDecodeChunk and the reader tests.
type refBitReader struct {
	b   []byte
	pos uint // bits consumed so far
}

func (r *refBitReader) readBit() (uint64, error) {
	i := r.pos >> 3
	if i >= uint(len(r.b)) {
		return 0, fmt.Errorf("tsstore: value stream truncated")
	}
	bit := uint64(r.b[i]>>(7-(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for ; n > 0; n-- {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | bit
	}
	return v, nil
}

func refDecodeChunk(block []byte) ([]ts.Time, []float64, error) {
	rd := block
	n, w := binary.Uvarint(rd)
	if w <= 0 {
		return nil, nil, fmt.Errorf("tsstore: corrupt block count")
	}
	rd = rd[w:]
	// Every point past the second costs >= 1 timestamp byte and >= 1 value
	// bit; cap n before allocating so corrupt headers can't OOM the loader.
	if n > uint64(len(block))*8+2 {
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
			dod, w := binary.Varint(rd)
			if w <= 0 {
				return nil, nil, fmt.Errorf("tsstore: corrupt block dod at %d", i)
			}
			rd = rd[w:]
			delta += dod
			times[i] = times[i-1] + ts.Time(delta)
		}
	}
	vlen, w := binary.Uvarint(rd)
	if w <= 0 || vlen > uint64(len(rd[w:])) {
		return nil, nil, fmt.Errorf("tsstore: corrupt block value length")
	}
	br := refBitReader{b: rd[w : w+int(vlen)]}
	first, err := br.readBits(64)
	if err != nil {
		return nil, nil, err
	}
	prev := first
	vals[0] = math.Float64frombits(first)
	lead, sig := uint(0), uint(0)
	for i := uint64(1); i < n; i++ {
		ctrl, err := br.readBit()
		if err != nil {
			return nil, nil, err
		}
		if ctrl == 0 {
			vals[i] = math.Float64frombits(prev)
			continue
		}
		reuse, err := br.readBit()
		if err != nil {
			return nil, nil, err
		}
		if reuse == 1 { // '1''1': new window
			l, err := br.readBits(5)
			if err != nil {
				return nil, nil, err
			}
			s, err := br.readBits(6)
			if err != nil {
				return nil, nil, err
			}
			lead, sig = uint(l), uint(s)+1
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

func TestDecodeRejectsNonIncreasingTimes(t *testing.T) {
	// Encode a legal pair, then flip the delta sign byte by re-encoding with
	// crafted deltas: emit via the real encoder on decreasing input is not
	// possible (chunks are sorted), so build the frame by hand.
	block := encodeChunk([]ts.Time{10, 20}, []float64{1, 2})
	// varint(d1) sits right after uvarint(n)=1 byte and varint(t0)=1 byte;
	// overwrite delta 10 (varint 0x14) with -10 (varint 0x13).
	block[2] = 0x13
	if _, _, err := decodeChunk(block); err == nil {
		t.Fatal("non-increasing timestamps accepted")
	}
}
