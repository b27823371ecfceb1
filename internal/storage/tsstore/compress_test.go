package tsstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

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
// allocations — blocks arrive from snapshots.
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
// an accepted block decodes to identical times and bit-identical values,
// which encodeChunk and the reference encoder re-encode to the same bytes.
// The sub-slot index builder accepts exactly the same blocks, and on an
// accepted one checkIndex proves every checkpoint and sub-slot summary and
// checkScan proves the index scan over a window picked by lo and hi.
func FuzzDecodeChunk(f *testing.F) {
	for i, tc := range codecShapes {
		f.Add(encodeChunk(tc.times, tc.vals), uint16(i), uint16(3*i+5))
	}
	block := hourlyBlock()
	for cut := 0; cut <= len(block); cut++ {
		f.Add(block[:cut], uint16(cut), uint16(cut*7+1))
	}
	// Regular, irregular and all-but-one-point regular blocks, so the
	// folds take both the arithmetic and the time-stream step.
	for i, b := range cadenceBlocks() {
		f.Add(b, uint16(7*i+3), uint16(40*i+90))
	}
	f.Fuzz(func(t *testing.T, block []byte, lo, hi uint16) {
		gotT, gotV, err := decodeChunk(block)
		wantT, wantV, refErr := refDecodeChunk(block)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder err = %v, reference err = %v", err, refErr)
		}
		x, idxErr := buildIndex(block)
		if (idxErr == nil) != (err == nil) {
			t.Fatalf("index builder err = %v, decoder err = %v", idxErr, err)
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
		checkIndex(t, block, x, wantT, wantV)
		checkScan(t, block, x, wantT, wantV, lo, hi)
		if re, want := encodeChunk(gotT, gotV), refEncodeChunk(wantT, wantV); !bytes.Equal(re, want) {
			t.Fatalf("re-encoding the decoded points: encodeChunk % x, reference % x", re, want)
		}
	})
}

// checkScan proves the index scan and the sub-slot folds against a block's
// full decode over the whole time line and over one window whose bounds lo
// and hi pick from the checkpoint times, two decoded times and both ends of
// the time line, each also moved one either way: the scan yields exactly the
// decoded points in the window, times equal and value bits equal, and each
// sub-slot's fold equals the fold of its decoded points in the window.
func checkScan(t *testing.T, block []byte, x *subSlotIndex, times []ts.Time, vals []float64, lo, hi uint16) {
	t.Helper()
	const minT, maxT = ts.Time(math.MinInt64), ts.Time(math.MaxInt64)
	bounds := []ts.Time{minT, maxT}
	for k := 0; k < int(x.k); k++ {
		bounds = append(bounds, x.t[k])
	}
	if n := len(times); n > 0 {
		bounds = append(bounds, times[int(lo)%n], times[int(hi)%n], times[n-1])
	}
	for _, b := range bounds[:len(bounds):len(bounds)] {
		bounds = append(bounds, b-1, b+1)
	}
	windows := [][2]ts.Time{{minT, maxT}, {bounds[int(lo)%len(bounds)], bounds[int(hi)%len(bounds)]}}
	for _, w := range windows {
		start, end := w[0], w[1]
		var gotT []ts.Time
		var gotV []uint64
		err := x.scan(block, start, end, func(at ts.Time, v float64) {
			gotT = append(gotT, at)
			gotV = append(gotV, math.Float64bits(v))
		})
		if err != nil {
			t.Fatalf("scan [%d, %d): %v", start, end, err)
		}
		j := 0
		for i, at := range times {
			if at < start || at >= end {
				continue
			}
			if j >= len(gotT) || gotT[j] != at || gotV[j] != math.Float64bits(vals[i]) {
				t.Fatalf("scan [%d, %d): point %d of the window differs from decoded point %d (%d, %x); scan yielded %d points",
					start, end, j, i, at, math.Float64bits(vals[i]), len(gotT))
			}
			j++
		}
		if j != len(gotT) {
			t.Fatalf("scan [%d, %d) yielded %d points, decode has %d in the window", start, end, len(gotT), j)
		}
		checkFolds(t, block, x, times, vals, start, end)
	}
}

// checkFolds proves every sub-slot's fold over [start, end) against the
// fold of its decoded points in that window: count equal, sum, min and max
// bits equal.
func checkFolds(t *testing.T, block []byte, x *subSlotIndex, times []ts.Time, vals []float64, start, end ts.Time) {
	t.Helper()
	for k := 0; k < int(x.k); k++ {
		got := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
		if err := x.fold(block, k, start, end, &got); err != nil {
			t.Fatalf("fold %d [%d, %d): %v", k, start, end, err)
		}
		want := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
		first := k * int(x.per)
		for i := first; i < first+x.count(k); i++ {
			if start <= times[i] && times[i] < end {
				want.add(1, vals[i], vals[i], vals[i])
			}
		}
		if got.Count != want.Count || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) ||
			math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
			t.Fatalf("fold %d (step %d) [%d, %d): %+v, fold of the decoded points %+v", k, x.step(k), start, end, got, want)
		}
	}
}

// checkIndex proves a block's sub-slot index against its full decode: the
// checkpoints split the points by count, checkpoint k resumes to exactly
// suffix k of the decode (times equal, value bits equal), each sub-slot
// summary equals a fold of its points, a sub-slot is flagged regular exactly
// when its deltas and the one into the next checkpoint are all one step,
// which step returns, and the last time is the block's.
func checkIndex(t *testing.T, block []byte, x *subSlotIndex, times []ts.Time, vals []float64) {
	t.Helper()
	n := len(times)
	if int(x.n) != n {
		t.Fatalf("index holds %d points, decode %d", x.n, n)
	}
	if n == 0 {
		return
	}
	per, nk := int(x.per), int(x.k)
	if x.last != times[n-1] || per != (n+subSlots-1)/subSlots || nk < 1 || nk > subSlots || (nk-1)*per >= n || nk*per < n {
		t.Fatalf("index shape: n %d per %d k %d last %d, want last %d", n, x.per, x.k, x.last, times[n-1])
	}
	for k := 0; k < nk; k++ {
		first := k * per
		cur, err := x.resume(block, k)
		if err != nil {
			t.Fatalf("resume %d: %v", k, err)
		}
		for i := first; i < n; i++ {
			if i > first {
				if err := cur.next(); err != nil {
					t.Fatalf("resume %d: point %d: %v", k, i, err)
				}
			}
			if cur.t != times[i] || cur.v != math.Float64bits(vals[i]) {
				t.Fatalf("resume %d: point %d = (%d, %x), decode (%d, %x)", k, i, cur.t, cur.v, times[i], math.Float64bits(vals[i]))
			}
		}
		want := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
		for _, v := range vals[first : first+x.count(k)] {
			want.add(1, v, v, v)
		}
		if math.Float64bits(x.sum[k]) != math.Float64bits(want.Sum) || x.min[k] != want.Min || x.max[k] != want.Max {
			t.Fatalf("sub-slot %d summary {%v %v %v}, fold {%v %v %v}", k, x.sum[k], x.min[k], x.max[k], want.Sum, want.Min, want.Max)
		}
		steps := map[ts.Time]bool{}
		for i := first + 1; i <= min(first+x.count(k), n-1); i++ {
			steps[times[i]-times[i-1]] = true
		}
		if flagged := x.tOff[k]&regular != 0; flagged != (len(steps) <= 1) {
			t.Fatalf("sub-slot %d: regular flag %v, decoded steps %v", k, flagged, steps)
		}
		if st := x.step(k); len(steps) == 1 && x.count(k) > 1 && !steps[ts.Time(st)] {
			t.Fatalf("sub-slot %d: step %d, decoded steps %v", k, st, steps)
		}
	}
}

// cadenceBlocks encodes a week of hourly points three ways: on the hour,
// each point up to a minute late, and on the hour but for point 100, a
// minute late inside sub-slot 2 of 4.
func cadenceBlocks() [][]byte {
	const n = 168
	rng := rand.New(rand.NewSource(19))
	var out [][]byte
	for shape := 0; shape < 3; shape++ {
		times := make([]ts.Time, n)
		vals := make([]float64, n)
		for i := range times {
			times[i] = ts.Time(i) * ts.Hour
			switch {
			case shape == 1:
				times[i] += ts.Time(rng.Int63n(int64(ts.Minute)))
			case shape == 2 && i == 100:
				times[i] += ts.Minute
			}
			vals[i] = float64(rng.Intn(40))
		}
		out = append(out, encodeChunk(times, vals))
	}
	return out
}

// A block that is regular but for one point inside a sub-slot loses the
// regular flag on that sub-slot alone, and every sub-slot's fold over
// windows cut on, next to and between points equals the fold of the
// bit-at-a-time reference decoder's points.
func TestRegularExceptOnePoint(t *testing.T) {
	blocks := cadenceBlocks()
	for i, wantFlags := range [][subSlots]bool{{true, true, true, true}, {false, false, false, false}, {true, true, false, true}} {
		block := blocks[i]
		x, err := buildIndex(block)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantFlags {
			if got := x.tOff[k]&regular != 0; got != wantFlags[k] {
				t.Fatalf("block %d sub-slot %d: regular %v, want %v", i, k, got, wantFlags[k])
			}
		}
		if i == 0 && x.step(1) != int64(ts.Hour) || i == 2 && (x.step(2) != 0 || x.step(3) != int64(ts.Hour)) {
			t.Fatalf("block %d: steps %d %d %d %d", i, x.step(0), x.step(1), x.step(2), x.step(3))
		}
		times, vals, err := refDecodeChunk(block)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, block, x, times, vals)
		var bounds []ts.Time
		for _, at := range times {
			bounds = append(bounds, at-1, at, at+1, at+ts.Hour/2)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for trial := 0; trial < 2000; trial++ {
			a, b := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
			checkFolds(t, block, x, times, vals, min(a, b), max(a, b))
		}
	}
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

// refBitWriter and refEncodeChunk are the original bit-at-a-time encoder,
// kept verbatim as the oracle for the word-at-a-time bitWriter.
type refBitWriter struct {
	b    []byte
	free uint // unused low bits in the last byte (0 when b is "full")
}

func (w *refBitWriter) writeBit(bit uint64) {
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
func (w *refBitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

func refEncodeChunk(times []ts.Time, vals []float64) []byte {
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

	var bw refBitWriter
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

// bitWriter must emit exactly the reference writer's bytes wherever a write
// starts relative to the 64-bit accumulator, for every width, including
// values with bits set above the width.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		var got bitWriter
		var want refBitWriter
		for k := rng.Intn(40); k >= 0; k-- {
			n := uint(rng.Intn(65))
			v := rng.Uint64()
			got.writeBits(v, n)
			want.writeBits(v, n)
		}
		if g := got.bytes(); !bytes.Equal(g, want.b) {
			t.Fatalf("trial %d: bitWriter % x, reference % x", trial, g, want.b)
		}
	}
}

// encodeChunk must write the reference encoder's bytes for every value
// shape the XOR stream distinguishes: repeats, reused and new windows,
// windows the full 64 bits wide, NaN payloads, signed zeros, single points.
func TestEncodeChunkMatchesReference(t *testing.T) {
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7FF0000000000000 | payload) }
	shapes := [][]float64{
		{3.14},
		{math.NaN()},
		{math.Copysign(0, -1)},
		{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{nan(1), nan(0x8000000000000), nan(0xFFFFFFFFFFFFF), math.Float64frombits(0xFFF0000000000001), math.NaN()},
		{math.Float64frombits(0), math.Float64frombits(0x8000000000000001), 0, math.Float64frombits(0xFFFFFFFFFFFFFFFF), 1},
		{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64},
	}
	for _, tc := range codecShapes {
		shapes = append(shapes, tc.vals)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, 1+rng.Intn(300))
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = float64(rng.Intn(40))
			case 1:
				vals[i] = rng.NormFloat64()
			case 2:
				if i > 0 {
					vals[i] = vals[i-1]
				}
			case 3:
				vals[i] = nan(1 + rng.Uint64()&(1<<52-2))
			default:
				vals[i] = math.Float64frombits(rng.Uint64())
			}
		}
		shapes = append(shapes, vals)
	}
	for i, vals := range shapes {
		times := make([]ts.Time, len(vals))
		for j := range times {
			times[j] = ts.Time(j)*ts.Hour - ts.Time(i)
		}
		got, want := encodeChunk(times, vals), refEncodeChunk(times, vals)
		if !bytes.Equal(got, want) {
			t.Fatalf("shape %d (%d points): encodeChunk % x, reference % x", i, len(vals), got, want)
		}
	}
}

func BenchmarkEncodeChunk(b *testing.B) {
	times, vals, err := decodeChunk(hourlyBlock())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeChunk(times, vals)
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

// The index is paid once per chunk that has been an edge, so its size is
// part of the design (docs/STORAGE.md): one allocation of 256 bytes.
func TestSubSlotIndexSize(t *testing.T) {
	if got := unsafe.Sizeof(subSlotIndex{}); got != 256 {
		t.Fatalf("subSlotIndex is %d bytes, want 256", got)
	}
}
