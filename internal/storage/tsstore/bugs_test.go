package tsstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// Regression: a NaN first point used to set minV=maxV=NaN, and every later
// `v < minV` comparison stayed false — pushdown min/max disagreed with the
// edge-scan path and with a Save/Load recompute. All paths must now skip
// NaN for min/max and agree; Sum stays NaN-poisoned on all of them.
func TestNaNFirstPointSummaryAgreement(t *testing.T) {
	key := SeriesKey{Entity: 1, Metric: "m"}
	db := NewSharded(10, 1)
	db.Insert(key, 0, math.NaN())
	db.Insert(key, 1, 5)
	db.Insert(key, 2, 3)

	push := db.Aggregate(key, 0, 10) // full cover: summary pushdown
	scan := db.Aggregate(key, 0, 9)  // partial cover: edge scan
	if push.Count != 3 || scan.Count != 3 {
		t.Fatalf("counts: push=%d scan=%d, want 3", push.Count, scan.Count)
	}
	if push.Min != 3 || push.Max != 5 {
		t.Fatalf("pushdown min/max = %v/%v, want 3/5 (NaN first point must not poison)", push.Min, push.Max)
	}
	if scan.Min != push.Min || scan.Max != push.Max {
		t.Fatalf("edge scan min/max = %v/%v disagrees with pushdown %v/%v", scan.Min, scan.Max, push.Min, push.Max)
	}
	if !math.IsNaN(push.Sum) || !math.IsNaN(scan.Sum) {
		t.Fatalf("sum = %v/%v, want NaN on both paths (documented NaN poisoning)", push.Sum, scan.Sum)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reload := db2.Aggregate(key, 0, 10)
	if reload.Min != push.Min || reload.Max != push.Max || reload.Count != push.Count || !math.IsNaN(reload.Sum) {
		t.Fatalf("after Save/Load: %+v, want min/max/count %v/%v/%d sum NaN", reload, push.Min, push.Max, push.Count)
	}
}

// An all-NaN chunk must report NaN min/max on both paths (not +Inf/-Inf).
func TestAllNaNChunkNormalizes(t *testing.T) {
	key := SeriesKey{Entity: 1, Metric: "m"}
	db := NewSharded(10, 1)
	db.Insert(key, 0, math.NaN())
	db.Insert(key, 1, math.NaN())
	for name, s := range map[string]Summary{
		"pushdown": db.Aggregate(key, 0, 10),
		"edge":     db.Aggregate(key, 0, 9),
	} {
		if s.Count != 2 || !math.IsNaN(s.Min) || !math.IsNaN(s.Max) || !math.IsNaN(s.Sum) {
			t.Fatalf("%s: %+v, want count 2 and NaN min/max/sum", name, s)
		}
	}
}

// NaN arriving or leaving via upsert must rebuild the summary, not fold
// incrementally (sum would stay poisoned after the NaN is overwritten).
func TestNaNUpsertRecoversSummary(t *testing.T) {
	key := SeriesKey{Entity: 1, Metric: "m"}
	db := NewSharded(10, 1)
	db.Insert(key, 0, 4)
	db.Insert(key, 1, math.NaN())
	db.Insert(key, 2, 8)
	if s := db.Aggregate(key, 0, 10); !math.IsNaN(s.Sum) {
		t.Fatalf("sum with stored NaN = %v, want NaN", s.Sum)
	}
	db.Insert(key, 1, 6) // upsert replaces the NaN
	if s := db.Aggregate(key, 0, 10); s.Sum != 18 || s.Min != 4 || s.Max != 8 {
		t.Fatalf("after overwriting NaN: %+v, want sum 18 min 4 max 8", s)
	}
}

// deleteDuringSave deletes victim the first time any snapshot byte reaches
// the underlying writer — i.e. between Save's key snapshot and the victim's
// saveSeries.
type deleteDuringSave struct {
	buf    bytes.Buffer
	db     *DB
	victim SeriesKey
	done   bool
}

func (w *deleteDuringSave) Write(p []byte) (int, error) {
	if !w.done {
		w.done = true
		w.db.DeleteSeries(w.victim)
	}
	return w.buf.Write(p)
}

// Regression: a series deleted mid-Save was persisted as an empty series
// and Load materialized it as a live zero-chunk key — flipping HasSeries,
// which crash recovery uses to decide whether a prepared ingest reached the
// TS side. Load must skip zero-chunk keys.
func TestDeleteDuringSaveDoesNotResurrect(t *testing.T) {
	db := New(0)
	// A metric longer than bufio's 4096-byte buffer forces a flush to the
	// underlying writer while the first key is being written, which is when
	// the hook deletes the second key — deterministically mid-Save.
	first := SeriesKey{Entity: 1, Metric: strings.Repeat("a", 8192)}
	victim := SeriesKey{Entity: 2, Metric: "doomed"}
	db.Insert(first, 1, 1)
	db.Insert(victim, 1, 1)

	w := &deleteDuringSave{db: db, victim: victim}
	if err := db.Save(w); err != nil {
		t.Fatal(err)
	}
	if db.HasSeries(victim) {
		t.Fatal("hook did not run: victim still present in source store")
	}
	got, err := Load(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSeries(victim) {
		t.Fatal("Load resurrected a series deleted mid-Save")
	}
	if !got.HasSeries(first) || got.NumSeries() != 1 {
		t.Fatalf("surviving series wrong: has=%v num=%d", got.HasSeries(first), got.NumSeries())
	}
}

// Pin the wire-level rule with crafted bytes: a v2 snapshot containing a
// zero-chunk key loads without materializing it.
func TestLoadSkipsZeroChunkKeys(t *testing.T) {
	var raw bytes.Buffer
	raw.WriteString(snapshotMagic)
	putUvarint(&raw, snapshotVersion)
	putUvarint(&raw, 10)     // chunk width
	putUvarint(&raw, 1)      // one key
	putUvarint(&raw, 7)      // entity
	putUvarint(&raw, 5)      // metric length
	raw.WriteString("ghost") //
	putUvarint(&raw, 0)      // zero chunks: deleted mid-Save
	db, err := Load(&raw)
	if err != nil {
		t.Fatal(err)
	}
	if db.HasSeries(SeriesKey{Entity: 7, Metric: "ghost"}) || db.NumSeries() != 0 {
		t.Fatalf("zero-chunk key materialized: num=%d", db.NumSeries())
	}
	if len(db.Keys()) != 0 {
		t.Fatalf("Keys() = %v, want empty", db.Keys())
	}
}

// Regression: Load accepted a snapshot that lists one series twice. It kept
// the second record's chunks and listed the key twice, so AggregateShard
// returned two rows for the entity. Save writes each key once, so Load must
// refuse the file, whether the repeated record has chunks or not.
func TestLoadRejectsRepeatedSeries(t *testing.T) {
	db := New(10)
	db.Insert(k(7), 1, 1.5)
	db.Insert(k(9), 2, 2.5)
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	data := snap.Bytes()
	at := bytes.Index(data, []byte{9, 1, 'm'}) // entity 9, metric length 1, "m"
	if at < 0 {
		t.Fatal("entity 9's record not found in the snapshot")
	}
	data[at] = 7
	if got, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatalf("Load accepted series 7 twice: %d series, keys %v", got.NumSeries(), got.Keys())
	}

	var raw bytes.Buffer // a zero-chunk record, then the same key with a chunk
	raw.WriteString(snapshotMagic)
	putUvarint(&raw, snapshotVersion)
	putUvarint(&raw, 10) // chunk width
	putUvarint(&raw, 2)  // two keys
	for _, chunks := range []uint64{0, 1} {
		putUvarint(&raw, 7) // entity
		putUvarint(&raw, 1) // metric length
		raw.WriteString("m")
		putUvarint(&raw, chunks)
	}
	putVarint(&raw, 0) // slot 0: one raw point
	raw.WriteByte(chunkFormRaw)
	putUvarint(&raw, 1)
	putVarint(&raw, 3)
	putFloat(&raw, 1)
	if got, err := Load(&raw); err == nil {
		t.Fatalf("Load accepted a zero-chunk record and then the same series: keys %v", got.Keys())
	}
}

// Version-1 snapshots (raw chunks, no form byte) must keep loading.
func TestLoadVersion1Snapshot(t *testing.T) {
	var raw bytes.Buffer
	raw.WriteString(snapshotMagic)
	putUvarint(&raw, 1)  // version 1
	putUvarint(&raw, 10) // chunk width
	putUvarint(&raw, 1)  // one key
	putUvarint(&raw, 3)  // entity
	putUvarint(&raw, 1)  // metric length
	raw.WriteString("m")
	putUvarint(&raw, 1) // one chunk
	putVarint(&raw, 0)  // slot
	putUvarint(&raw, 2) // two points
	putVarint(&raw, 4)  // t0
	putVarint(&raw, 3)  // delta
	putFloat(&raw, 1.5)
	putFloat(&raw, 2.5)
	db, err := Load(&raw)
	if err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Entity: 3, Metric: "m"}
	pts := db.Range(key, 0, 10)
	if len(pts) != 2 || pts[0].T != 4 || pts[0].V != 1.5 || pts[1].T != 7 || pts[1].V != 2.5 {
		t.Fatalf("v1 load: %+v", pts)
	}
	if s := db.Aggregate(key, 0, 10); s.Count != 2 || s.Sum != 4 || s.Min != 1.5 || s.Max != 2.5 {
		t.Fatalf("v1 summary: %+v", s)
	}
}

// Regression: DeleteSeries incremented the obs write counter before the
// existence check, so idempotent rollback deletes of absent keys skewed the
// write counters the mixed bench reports. Only effective deletes count.
func TestDeleteSeriesCountsOnlyEffectiveWrites(t *testing.T) {
	r := obs.New()
	db := New(0)
	db.Instrument(r)
	writes := r.Counter("tsstore.writes")

	key := SeriesKey{Entity: 1, Metric: "m"}
	if db.DeleteSeries(key) {
		t.Fatal("delete of absent key reported true")
	}
	if got := writes.Value(); got != 0 {
		t.Fatalf("absent-key delete counted as write: %d", got)
	}
	db.Insert(key, 1, 1)
	after := writes.Value()
	if !db.DeleteSeries(key) {
		t.Fatal("delete of present key reported false")
	}
	if got := writes.Value(); got != after+1 {
		t.Fatalf("effective delete: writes %d, want %d", got, after+1)
	}
	if db.DeleteSeries(key) {
		t.Fatal("second delete reported true")
	}
	if got := writes.Value(); got != after+1 {
		t.Fatalf("repeated delete counted again: %d", got)
	}
}

func putUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w io.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func putFloat(w io.Writer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	w.Write(buf[:])
}

var _ = ts.Time(0)
