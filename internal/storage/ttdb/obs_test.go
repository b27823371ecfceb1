package ttdb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// TestObservedDurableIngest checks the durable layer's counters through a
// healthy ingest run: one begin/prepared/commit journal record and one
// completed ingest per station, WAL appends on both stores.
func TestObservedDurableIngest(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	reg := obs.New()
	d.Instrument(reg)
	for i := 0; i < 3; i++ {
		if _, err := d.IngestStation("st", "d", stationSeries(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for _, c := range []string{"ttdb.journal.begin", "ttdb.journal.prepared", "ttdb.journal.commit", "ttdb.ingest.stations"} {
		if got := snap.Counters[c]; got != 3 {
			t.Fatalf("%s = %d, want 3", c, got)
		}
	}
	if snap.Counters["graphstore.wal.appends"] == 0 || snap.Counters["tsstore.wal.appends"] == 0 {
		t.Fatalf("WAL appends missing from snapshot: %v", snap.Counters)
	}
	if snap.Counters["ttdb.queries.degraded"] != 0 {
		t.Fatal("healthy run counted degraded queries")
	}
}

// TestObservedDegradedQueries arms the TS-side fault points and checks that
// every degraded answer is counted, that the error still satisfies
// errors.Is(..., ErrDegraded), and that the snapshot keeps serializing while
// faults are armed.
func TestObservedDegradedQueries(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	reg := obs.New()
	d.Instrument(reg)
	id, err := d.IngestStation("ok", "d", stationSeries(0))
	if err != nil {
		t.Fatal(err)
	}

	// A permanent TS-side ingest failure latches tsErr; queries degrade.
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("ts store down")})
	if _, err := d.IngestStation("torn", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived the injected TS failure")
	}
	faults.Reset()
	if _, err := d.Exec(context.Background(), Q1(id, 0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("latched failure: got %v, want ErrDegraded", err)
	}
	if _, err := d.Exec(context.Background(), Q3(id, 0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("latched failure: got %v, want ErrDegraded", err)
	}
	if got := reg.Snapshot().Counters["ttdb.queries.degraded"]; got != 2 {
		t.Fatalf("degraded counter = %d, want 2", got)
	}

	// The query-time fault point also counts, while armed.
	faults.Enable(FaultQueryTS, faults.Spec{Err: errors.New("query-time outage")})
	if _, err := d.Exec(context.Background(), Q2(id, 0, 48*ts.Hour, 11)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("armed fault: got %v, want ErrDegraded", err)
	}
	// Snapshots must serialize cleanly even mid-outage.
	if _, err := json.Marshal(reg.Snapshot()); err != nil {
		t.Fatalf("snapshot does not serialize during outage: %v", err)
	}
	faults.Reset()
	if got := reg.Snapshot().Counters["ttdb.queries.degraded"]; got != 3 {
		t.Fatalf("degraded counter = %d, want 3", got)
	}
}

// TestObservedWALFaultStillSnapshots arms the graph-store WAL append fault:
// the ingest fails, but the registry snapshot stays serializable and the
// healthy-side counters keep their pre-fault values.
func TestObservedWALFaultStillSnapshots(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	reg := obs.New()
	d.Instrument(reg)
	if _, err := d.IngestStation("ok", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters["graphstore.wal.appends"]
	if before == 0 {
		t.Fatal("no graph WAL appends before fault")
	}
	faults.Enable("graphstore.wal.append", faults.Spec{Err: errors.New("disk gone")})
	if _, err := d.IngestStation("doomed", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived WAL failure")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["graphstore.wal.appends"]; got != before {
		t.Fatalf("failed appends were counted: %d -> %d", before, got)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot does not serialize with fault armed: %v", err)
	}
	if !bytes.Contains(data, []byte("graphstore.wal.appends")) {
		t.Fatal("snapshot JSON missing WAL counters")
	}
}

// TestObservedRecoverySpans crashes an ingest between the stores, then
// recovers with a registry attached: the recovery must leave a root span
// with per-phase children and fate counters behind.
func TestObservedRecoverySpans(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation("ok", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("crash between stores")})
	if _, err := d.IngestStation("torn", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived the injected crash")
	}
	faults.Reset()

	reg := obs.New()
	eng, rec, err := RecoverPolyglotObserved(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()),
		bytes.NewReader(dk.journal.Bytes()), ts.Day, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(eng); err != nil {
		t.Fatalf("observed recovery inconsistent: %v", err)
	}
	if rec.Committed != 1 || rec.RolledBack != 1 {
		t.Fatalf("fates: %+v", rec)
	}
	snap := reg.Snapshot()
	if snap.Trace == nil {
		t.Fatal("no trace in snapshot")
	}
	for _, span := range []string{"ttdb.recover", "ttdb.recover.graph", "ttdb.recover.ts", "ttdb.recover.journal", "ttdb.recover.fates"} {
		if st, ok := snap.Trace.Totals[span]; !ok || st.Count == 0 {
			t.Fatalf("span %s missing from trace totals: %v", span, snap.Trace.Totals)
		}
	}
	// Child spans must link back to the recovery root.
	var rootID uint64
	for _, s := range snap.Trace.Recent {
		if s.Name == "ttdb.recover" {
			rootID = s.ID
		}
	}
	if rootID == 0 {
		t.Fatal("root recovery span not in recent ring")
	}
	children := 0
	for _, s := range snap.Trace.Recent {
		if s.Parent == rootID {
			children++
		}
	}
	if children < 4 {
		t.Fatalf("recovery root has %d linked children, want >= 4", children)
	}
	if got := snap.Counters["ttdb.recover.txns"]; got != 2 {
		t.Fatalf("ttdb.recover.txns = %d, want 2", got)
	}
	if snap.Counters["ttdb.recover.committed"] != 1 || snap.Counters["ttdb.recover.rolled_back"] != 1 {
		t.Fatalf("fate counters: %v", snap.Counters)
	}
	// The un-observed entry point must stay equivalent.
	eng2, rec2, err := RecoverPolyglot(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()),
		bytes.NewReader(dk.journal.Bytes()), ts.Day)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(eng2); err != nil {
		t.Fatal(err)
	}
	if rec2.Committed != rec.Committed || rec2.RolledBack != rec.RolledBack {
		t.Fatalf("observed and plain recovery disagree: %+v vs %+v", rec, rec2)
	}
}
