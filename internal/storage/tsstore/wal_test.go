package tsstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/storage/walrec"
	"hygraph/internal/ts"
)

func sampleSeries(n int, base float64) *ts.Series {
	s := ts.New("availability")
	for i := 0; i < n; i++ {
		s.MustAppend(ts.Time(i)*ts.Hour, base+math.Sin(float64(i)/5))
	}
	return s
}

func TestTSWALReplayReconstructs(t *testing.T) {
	var log bytes.Buffer
	orig := New(ts.Day)
	wal := NewWAL(orig, &log)
	k1 := SeriesKey{Entity: 1, Metric: "availability"}
	k2 := SeriesKey{Entity: 2, Metric: "availability"}
	if err := wal.InsertSeries(k1, sampleSeries(24*10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := wal.InsertSeries(k2, sampleSeries(24*10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Insert(k1, 5*ts.Hour, 99); err != nil { // upsert one point
		t.Fatal(err)
	}
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}

	rebuilt := New(ts.Day)
	sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Applied != 3 || sum.Points != 2*24*10+1 {
		t.Fatalf("sum=%+v", sum)
	}
	for _, k := range []SeriesKey{k1, k2} {
		a := orig.Range(k, 0, 1000*ts.Hour)
		b := rebuilt.Range(k, 0, 1000*ts.Hour)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("series %v: %d vs %d points", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("series %v point %d: %v vs %v", k, i, a[i], b[i])
			}
		}
	}
	if pts := rebuilt.Range(k1, 5*ts.Hour, 6*ts.Hour); len(pts) != 1 || pts[0].V != 99 {
		t.Fatalf("upsert lost: %v", pts)
	}
}

func TestTSWALDeleteSeries(t *testing.T) {
	var log bytes.Buffer
	db := New(0)
	wal := NewWAL(db, &log)
	k := SeriesKey{Entity: 7, Metric: "availability"}
	wal.InsertSeries(k, sampleSeries(48, 5))
	if err := wal.DeleteSeries(k); err != nil {
		t.Fatal(err)
	}
	wal.Flush()
	if db.NumSeries() != 0 {
		t.Fatal("live delete did not apply")
	}
	rebuilt := New(0)
	if _, err := ReplayWithSummary(rebuilt, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumSeries() != 0 || len(rebuilt.Keys()) != 0 {
		t.Fatalf("replayed delete left %d series", rebuilt.NumSeries())
	}
	// Idempotent on absent keys.
	if rebuilt.DeleteSeries(k) {
		t.Fatal("deleting absent series reported true")
	}
}

// Torn tails lose at most the final record: truncate the log at every byte
// offset of the last batch record and recover.
func TestTSWALTornTailAtEveryOffset(t *testing.T) {
	k1 := SeriesKey{Entity: 1, Metric: "m"}
	k2 := SeriesKey{Entity: 2, Metric: "m"}
	writeLog := func(withLast bool) []byte {
		var log bytes.Buffer
		wal := NewWAL(New(ts.Day), &log)
		wal.InsertSeries(k1, sampleSeries(24, 1))
		if withLast {
			wal.InsertSeries(k2, sampleSeries(24, 2))
		}
		wal.Flush()
		return log.Bytes()
	}
	full := writeLog(true)
	prefix := writeLog(false)
	for cut := len(prefix); cut < len(full); cut += 7 { // stride keeps runtime sane
		rebuilt := New(ts.Day)
		sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if sum.Applied != 1 || rebuilt.NumSeries() != 1 {
			t.Fatalf("cut %d: applied=%d series=%d", cut, sum.Applied, rebuilt.NumSeries())
		}
	}
}

func TestTSWALMidLogCorruption(t *testing.T) {
	var log bytes.Buffer
	wal := NewWAL(New(0), &log)
	wal.InsertSeries(SeriesKey{Entity: 1, Metric: "m"}, sampleSeries(24, 1))
	wal.InsertSeries(SeriesKey{Entity: 2, Metric: "m"}, sampleSeries(24, 2))
	wal.Flush()
	raw := append([]byte(nil), log.Bytes()...)
	raw[8] ^= 0x20
	if _, err := ReplayWithSummary(New(0), bytes.NewReader(raw)); err == nil {
		t.Fatal("mid-log corruption replayed cleanly")
	}
}

func TestTSRecoverSnapshotPlusLog(t *testing.T) {
	base := New(ts.Day)
	k1 := SeriesKey{Entity: 1, Metric: "m"}
	k2 := SeriesKey{Entity: 2, Metric: "m"}
	base.InsertSeries(k1, sampleSeries(48, 3))
	var snap bytes.Buffer
	if err := base.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	wal := NewWAL(base, &log)
	wal.InsertSeries(k2, sampleSeries(48, 4))
	wal.Flush()

	rec, sum, err := Recover(bytes.NewReader(snap.Bytes()), bytes.NewReader(log.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumSeries() != 2 || sum.Points != 48 {
		t.Fatalf("series=%d sum=%+v", rec.NumSeries(), sum)
	}
	a := base.Aggregate(k2, 0, 100*ts.Hour)
	b := rec.Aggregate(k2, 0, 100*ts.Hour)
	if a != b {
		t.Fatalf("aggregate mismatch: %+v vs %+v", a, b)
	}
}

func TestTSWALFuzzNeverPanics(t *testing.T) {
	inputs := [][]byte{
		{}, {1}, {0x05, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		bytes.Repeat([]byte{0xff}, 32), {0x02, 0, 0, 0, 0, 0x01, 0x01},
	}
	for _, in := range inputs {
		_, _ = ReplayWithSummary(New(0), bytes.NewReader(in))
	}
}

// errWriter fails after n bytes — the same harness graphstore uses to prove
// its WAL latches write errors.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

// The TS WAL must latch write errors exactly like the graph WAL: once the
// underlying writer fails, every later mutation is refused rather than
// silently diverging the store from the log.
func TestTSWALWriteErrorFailsFast(t *testing.T) {
	wal := NewWAL(New(0), &errWriter{n: 4})
	k := SeriesKey{Entity: 1, Metric: "availability"}
	// Appends buffer 4096 bytes, so force the failure through Flush.
	for i := 0; i < 600; i++ {
		wal.Insert(k, ts.Time(i)*ts.Hour, float64(i))
	}
	if err := wal.Flush(); err == nil {
		t.Fatal("flush on failing writer succeeded")
	}
	if wal.Err() == nil {
		t.Fatal("write error not latched")
	}
	if err := wal.Insert(k, 0, 1); err == nil {
		t.Fatal("insert after write error accepted")
	}
	if err := wal.InsertSeries(k, sampleSeries(4, 1)); err == nil {
		t.Fatal("batch insert after write error accepted")
	}
	if err := wal.DeleteSeries(k); err == nil {
		t.Fatal("delete after write error accepted")
	}
	if err := wal.Flush(); err == nil {
		t.Fatal("second flush did not report the latched error")
	}
}

// Bit rot on the final record truncates it, keeping everything before — the
// same contract TestWALCorruptTailDropped pins on the graph side.
func TestTSWALCorruptTailDropped(t *testing.T) {
	var log bytes.Buffer
	wal := NewWAL(New(0), &log)
	k := SeriesKey{Entity: 3, Metric: "availability"}
	wal.InsertSeries(k, sampleSeries(24, 7))
	wal.Insert(k, 999*ts.Hour, 42)
	wal.Flush()
	raw := append([]byte(nil), log.Bytes()...)
	raw[len(raw)-1] ^= 0x10 // bit rot on the final record
	rebuilt := New(0)
	sum, err := ReplayWithSummary(rebuilt, bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("corrupt tail should truncate: %v", err)
	}
	if sum.Applied != 1 || !sum.CorruptTail || sum.Points != 24 {
		t.Fatalf("sum=%+v", sum)
	}
	if pts := rebuilt.Range(k, 999*ts.Hour, 1000*ts.Hour); len(pts) != 0 {
		t.Fatalf("corrupt final record partially applied: %v", pts)
	}
}

// Crash-matrix over the TS WAL fault points: an injected failure at append
// or flush must leave store and log consistent (the record is in neither),
// and clearing the fault must leave the WAL fully usable — injections are
// rejections, not latched errors.
func TestTSWALFaultMatrix(t *testing.T) {
	defer faults.Reset()
	k := SeriesKey{Entity: 9, Metric: "availability"}
	for _, pt := range []string{FaultWALAppend, FaultWALFlush} {
		faults.Reset()
		var log bytes.Buffer
		db := New(0)
		wal := NewWAL(db, &log)
		if err := wal.InsertSeries(k, sampleSeries(24, 1)); err != nil {
			t.Fatalf("%s: pre-fault insert: %v", pt, err)
		}
		if err := wal.Flush(); err != nil {
			t.Fatalf("%s: pre-fault flush: %v", pt, err)
		}
		preLog := log.Len()
		prePts := len(db.Range(k, 0, 1000*ts.Hour))

		faults.Enable(pt, faults.Spec{Err: errors.New("injected")})
		insErr := wal.Insert(k, 2000*ts.Hour, 5)
		flushErr := wal.Flush()
		if insErr == nil && flushErr == nil {
			t.Fatalf("%s: fault did not surface", pt)
		}
		if faults.Hits(pt) == 0 {
			t.Fatalf("%s: fault point never fired", pt)
		}
		faults.Reset() // the "reboot"

		if pt == FaultWALAppend {
			// The record must have reached neither the store nor the log.
			if got := len(db.Range(k, 0, 10000*ts.Hour)); got != prePts {
				t.Fatalf("%s: store advanced across failed append: %d vs %d", pt, got, prePts)
			}
			if err := wal.Flush(); err != nil {
				t.Fatalf("%s: flush after cleared fault: %v", pt, err)
			}
			if log.Len() != preLog {
				t.Fatalf("%s: failed append still reached the log", pt)
			}
		}
		// The WAL stays usable after the injection clears.
		if err := wal.Insert(k, 3000*ts.Hour, 6); err != nil {
			t.Fatalf("%s: insert after cleared fault: %v", pt, err)
		}
		if err := wal.Flush(); err != nil {
			t.Fatalf("%s: final flush: %v", pt, err)
		}
		rebuilt := New(0)
		if _, err := ReplayWithSummary(rebuilt, bytes.NewReader(log.Bytes())); err != nil {
			t.Fatalf("%s: replay after faults: %v", pt, err)
		}
		livePts := db.Range(k, 0, 10000*ts.Hour)
		recPts := rebuilt.Range(k, 0, 10000*ts.Hour)
		if len(livePts) != len(recPts) {
			t.Fatalf("%s: store/log diverged: %d live vs %d replayed", pt, len(livePts), len(recPts))
		}
	}
}

// framedLog frames each payload as one CRC-valid log record.
func framedLog(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	w := walrec.NewWriter(&buf)
	for _, p := range payloads {
		w.Append(p)
	}
	w.Flush()
	return buf.Bytes()
}

// batchRecord is an opInsertBatch payload claiming n points: the raw delta
// and value bytes follow the count as given, so a test can cut either.
func batchRecord(key SeriesKey, n uint64, deltas, values []byte) []byte {
	buf := appendKey(nil, opInsertBatch, key)
	buf = binary.AppendUvarint(buf, n)
	return append(append(buf, deltas...), values...)
}

// shortBatchRecord is a batch record that claims two points but carries
// the value of only one.
func shortBatchRecord(key SeriesKey) []byte {
	return batchRecord(key, 2, []byte{2, 2}, binary.LittleEndian.AppendUint64(make([]byte, 0, 16), math.Float64bits(1)))
}

// A CRC-valid batch record whose payload ends before the points it claims
// is rejected as a whole: Replay reports a corrupt batch and applies none of
// its points.
func TestTSWALShortBatchRejected(t *testing.T) {
	key := SeriesKey{Entity: 7, Metric: "availability"}
	value := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	longDelta := binary.AppendVarint(nil, math.MaxInt64/2) // 10 varint bytes
	cases := []struct {
		name    string
		payload []byte
	}{
		{"short values", shortBatchRecord(key)},
		// Two 10-byte deltas cut to 18 bytes: enough for the count cap, but
		// the second delta runs past the end.
		{"short deltas", batchRecord(key, 2, append(append([]byte{}, longDelta...), longDelta[:8]...), nil)},
		{"count over the cap", batchRecord(key, 3, []byte{2, 2, 2}, append(value(1), value(2)[:7]...))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := New(0)
			sum, err := ReplayWithSummary(db, bytes.NewReader(framedLog(tc.payload)))
			if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "corrupt WAL batch") {
				t.Fatalf("replay err = %v, want a corrupt WAL batch wrapping io.ErrUnexpectedEOF", err)
			}
			if sum.Applied != 0 || sum.Points != 0 {
				t.Fatalf("summary %+v, want nothing applied", sum)
			}
			if db.HasSeries(key) {
				t.Fatalf("rejected batch left points behind: %v", db.Range(key, math.MinInt64, math.MaxInt64))
			}
		})
	}
}

// FuzzTSWALReplay replays arbitrary bytes as a time-series log. Replay must
// never panic, and whether or not it fails, the store it leaves must equal
// a fresh store that applied only the records Replay counted as applied:
// a record that fails applies nothing.
func FuzzTSWALReplay(f *testing.F) {
	var log bytes.Buffer
	wal := NewWAL(New(ts.Day), &log)
	k1 := SeriesKey{Entity: 1, Metric: "availability"}
	k2 := SeriesKey{Entity: 2, Metric: "temp"}
	wal.InsertSeries(k1, sampleSeries(30, 10))
	wal.Insert(k2, 3*ts.Hour, 4.5)
	wal.Insert(k1, 5*ts.Hour, 99)
	wal.InsertSeries(k2, sampleSeries(5, 1))
	wal.DeleteSeries(k1)
	wal.Insert(k1, -ts.Hour, math.NaN())
	wal.Flush()
	valid := log.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), framedLog(shortBatchRecord(k2))...))
	f.Add(framedLog(shortBatchRecord(k1)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := New(0)
		sum, err := ReplayWithSummary(db, bytes.NewReader(data))
		ref := New(0)
		sc := walrec.NewScanner(bytes.NewReader(data))
		for i := 0; i < sum.Applied; i++ {
			payload, serr := sc.Next()
			if serr != nil {
				t.Fatalf("record %d of %d applied: %v", i, sum.Applied, serr)
			}
			if _, aerr := applyTSRecord(ref, payload); aerr != nil {
				t.Fatalf("record %d of %d applied: %v", i, sum.Applied, aerr)
			}
		}
		keys := db.Keys()
		if !reflect.DeepEqual(keys, ref.Keys()) {
			t.Fatalf("replay (err %v) holds keys %v, the applied records %v", err, keys, ref.Keys())
		}
		for _, key := range keys {
			got, want := db.Range(key, math.MinInt64, math.MaxInt64), ref.Range(key, math.MinInt64, math.MaxInt64)
			if len(got) != len(want) {
				t.Fatalf("replay (err %v): %v holds %d points, the applied records %d", err, key, len(got), len(want))
			}
			for i := range got {
				if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
					t.Fatalf("replay (err %v): %v point %d = %v, the applied records %v", err, key, i, got[i], want[i])
				}
			}
		}
	})
}

// varintLen sizes InsertSeries's batch record; it must match the encoder.
func TestVarintLen(t *testing.T) {
	xs := []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, math.MaxInt64, math.MinInt64}
	for k := 0; k < 63; k++ {
		xs = append(xs, 1<<k, -1<<k, 1<<k-1, -1<<k+1)
	}
	for _, x := range xs {
		if got, want := varintLen(x), len(binary.AppendVarint(nil, x)); got != want {
			t.Fatalf("varintLen(%d) = %d, want %d", x, got, want)
		}
	}
}
