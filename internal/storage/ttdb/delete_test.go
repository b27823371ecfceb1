package ttdb

import (
	"bytes"
	"errors"
	"testing"

	"hygraph/internal/faults"
)

// TestDeleteStationDurable proves the happy-path delete: the station
// disappears from both stores, survivors stay whole, and replaying the logs
// reproduces the deletion with nothing left for the repair to remove.
func TestDeleteStationDurable(t *testing.T) {
	var dk disk
	d := dk.open(t)
	var ids []StationID
	for i := 0; i < 3; i++ {
		id, err := d.IngestStation("st", "d", stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.AddTrip(ids[0], ids[1], 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTrip(ids[1], ids[2], 5); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteStation(ids[1]); err != nil {
		t.Fatal(err)
	}
	if d.eng.G.NodeExists(ids[1]) {
		t.Fatal("deleted station still in live graph")
	}
	if d.eng.T.HasSeries(key(ids[1])) {
		t.Fatal("deleted station still has a live series")
	}

	eng, rec := dk.recover(t)
	if rec.OrphanNodes+rec.OrphanSeries != 0 {
		t.Fatalf("a completed delete left torn writes: %s", rec)
	}
	if eng.G.NodeExists(ids[1]) {
		t.Fatal("deleted station resurrected by recovery")
	}
	if eng.T.HasSeries(key(ids[1])) {
		t.Fatal("deleted series resurrected by recovery")
	}
	for _, id := range []StationID{ids[0], ids[2]} {
		if !eng.G.NodeExists(id) || !eng.T.HasSeries(key(id)) {
			t.Fatalf("survivor %d incomplete after recovery", id)
		}
	}
	if err := CheckConsistency(eng); err != nil {
		t.Fatalf("inconsistent after delete recovery: %v", err)
	}
	// Neighbors of ids[0] must not include the deleted station.
	if ns := eng.G.Neighbors(ids[0], "TRIP"); len(ns) != 0 {
		t.Fatalf("edges to deleted station survived: %v", ns)
	}
}

// TestDeleteStationCrashRollsForward: a delete whose graph write reached
// disk completes on recovery — the repair removes the series it left behind
// — and one that crashed before its graph write leaves the station whole.
func TestDeleteStationCrashRollsForward(t *testing.T) {
	defer faults.Reset()
	var dk disk
	d := dk.open(t)
	var ids []StationID
	for i := 0; i < 2; i++ {
		id, err := d.IngestStation("st", "d", stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("disk gone")})
	if err := d.DeleteStation(ids[0]); err == nil {
		t.Fatal("DeleteStation succeeded despite armed ts fault")
	}
	faults.Reset()
	faults.Enable(FaultIngestGraph, faults.Spec{Err: errors.New("disk gone")})
	if err := d.DeleteStation(ids[1]); err == nil {
		t.Fatal("DeleteStation succeeded despite armed graph fault")
	}
	faults.Reset()

	for pass := 1; pass <= 2; pass++ {
		eng, rec := dk.recover(t)
		if rec.OrphanNodes != 0 || rec.OrphanSeries != 1 {
			t.Fatalf("recovery %d: %s, want the one torn delete's series removed", pass, rec)
		}
		if eng.G.NodeExists(ids[0]) || eng.T.HasSeries(key(ids[0])) {
			t.Fatalf("recovery %d: delete torn between the stores not rolled forward", pass)
		}
		if !eng.G.NodeExists(ids[1]) || !eng.T.HasSeries(key(ids[1])) {
			t.Fatalf("recovery %d: delete that never reached disk removed the station", pass)
		}
		if err := CheckConsistency(eng); err != nil {
			t.Fatalf("recovery %d: %v", pass, err)
		}
	}
}

// TestBoundaryVertexDurable proves the graph-only boundary-replica ops
// round-trip through the WAL and stay invisible to the Station-keyed
// invariants.
func TestBoundaryVertexDurable(t *testing.T) {
	var dk disk
	d := dk.open(t)
	st, err := d.IngestStation("st", "d", stationSeries(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.TagStation(st, 42); err != nil {
		t.Fatal(err)
	}
	b, err := d.AddBoundary(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddTrip(st, b, 3); err != nil {
		t.Fatal(err)
	}

	eng, _ := dk.recover(t)
	if err := CheckConsistency(eng); err != nil {
		t.Fatalf("boundary vertex broke the station invariant: %v", err)
	}
	if got := len(eng.G.NodesByLabel("Station")); got != 1 {
		t.Fatalf("stations after recovery = %d, want 1", got)
	}
	if got := len(eng.G.NodesByLabel("Boundary")); got != 1 {
		t.Fatalf("boundaries after recovery = %d, want 1", got)
	}
	gv, ok := eng.G.NodeProp(st, "gid")
	if !ok || gv.I != 42 {
		t.Fatalf("station gid tag lost: %v %v", gv, ok)
	}
	bv, ok := eng.G.NodeProp(b, "gid")
	if !ok || bv.I != 7 {
		t.Fatalf("boundary gid lost: %v %v", bv, ok)
	}
	if ns := eng.G.Neighbors(st, "TRIP"); len(ns) != 1 || ns[0] != b {
		t.Fatalf("boundary edge lost: %v", ns)
	}

	// Deleting the boundary removes it and its edges, durably.
	d2 := ResumeDurable(eng, &bytes.Buffer{}, &bytes.Buffer{})
	if err := d2.DeleteBoundary(b); err != nil {
		t.Fatal(err)
	}
	if eng.G.NodeExists(b) {
		t.Fatal("boundary survived DeleteBoundary")
	}
	if ns := eng.G.Neighbors(st, "TRIP"); len(ns) != 0 {
		t.Fatalf("boundary edges survived DeleteBoundary: %v", ns)
	}
}
