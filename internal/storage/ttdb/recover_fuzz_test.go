package ttdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/ts"
)

// FuzzRecoverPolyglot recovers arbitrary bytes as the graph log and the TS
// log. Recovery must never panic; the same bytes recovered twice must give
// the same summary, error and state; and a recovered engine must pass
// CheckConsistency, leave nothing for a second repair, and come back
// unchanged from the snapshots CompactDir would write of it. Run the fuzzer
// with:
//
//	go test ./internal/storage/ttdb -run FuzzRecoverPolyglot -fuzz FuzzRecoverPolyglot -fuzztime 30s
func FuzzRecoverPolyglot(f *testing.F) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(f)
	type cut struct{ graph, ts int }
	var cuts []cut // both logs' lengths after each step
	step := func(what string, pt string, op func() error) {
		if pt != "" {
			faults.Enable(pt, faults.Spec{Err: errors.New("injected crash"), Count: 1})
		}
		err := op()
		faults.Reset()
		if (pt == "") != (err == nil) {
			f.Fatalf("%s: err = %v", what, err)
		}
		cuts = append(cuts, cut{dk.graphLog.Len(), dk.tsLog.Len()})
	}
	var ids []StationID
	ingest := func(i int) func() error {
		return func() error {
			id, err := d.IngestStation(uint64(i), fmt.Sprintf("st%d", i), "d", stationSeries(i))
			ids = append(ids, id)
			return err
		}
	}
	step("ingest", "", ingest(0))
	step("ingest", "", ingest(1))
	step("trip", "", func() error { return d.AddTrip(ids[0], ids[1], 3) })
	step("append", "", func() error { return d.AppendPoint(ids[1], 49*ts.Hour, 7) })
	step("ingest torn between the stores", FaultIngestTS, ingest(2))
	step("ingest lost before the graph write", FaultIngestGraph, ingest(3))
	step("delete torn between the stores", FaultIngestTS, func() error { return d.DeleteStation(ids[0]) })
	graphLog, tsLog := dk.graphLog.Bytes(), dk.tsLog.Bytes()

	for i, c := range cuts {
		f.Add(graphLog[:c.graph], tsLog[:c.ts])
		if i > 0 {
			// The graph side of step i without its TS side.
			f.Add(graphLog[:c.graph], tsLog[:cuts[i-1].ts])
		}
	}
	f.Add(graphLog[:len(graphLog)-1], tsLog[:len(tsLog)-1])
	flipped := append([]byte(nil), graphLog...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped, tsLog)
	f.Add(graphLog, []byte{})
	f.Add([]byte{}, tsLog)
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32))

	// A nil slice is an absent artifact: no snapshot is not an empty one.
	reader := func(b []byte) io.Reader {
		if b == nil {
			return nil
		}
		return bytes.NewReader(b)
	}
	recoverLogs := func(snapG, logG, snapT, logT []byte) (*Polyglot, PolyglotRecovery, string, error) {
		eng, rec, err := RecoverPolyglot(reader(snapG), reader(logG), reader(snapT), reader(logT), ts.Day, nil)
		if err != nil {
			return nil, rec, "", err
		}
		return eng, rec, dumpState(eng), nil
	}
	if _, rec, _, err := recoverLogs(nil, graphLog, nil, tsLog); err != nil || rec.OrphanNodes != 1 || rec.OrphanSeries != 1 {
		f.Fatalf("seed history: %s, %v; want one torn ingest and one torn delete repaired", rec, err)
	}

	f.Fuzz(func(t *testing.T, graphLog, tsLog []byte) {
		eng, rec, state, err := recoverLogs(nil, graphLog, nil, tsLog)
		_, rec2, state2, err2 := recoverLogs(nil, graphLog, nil, tsLog)
		if fmt.Sprint(err) != fmt.Sprint(err2) || rec != rec2 || state != state2 {
			t.Fatalf("recovering twice diverged:\n%v %+v\n%v %+v", err, rec, err2, rec2)
		}
		if err != nil {
			return
		}
		if err := CheckConsistency(eng); err != nil {
			t.Fatalf("recovered engine inconsistent: %v (%s)", err, rec)
		}
		if nodes, series, err := repair(eng); nodes+series != 0 || err != nil {
			t.Fatalf("second repair removed %d nodes, %d series (%v)", nodes, series, err)
		}
		var snapG, snapT bytes.Buffer
		if err := eng.G.Save(&snapG); err != nil {
			t.Fatal(err)
		}
		if err := eng.T.Save(&snapT); err != nil {
			t.Fatal(err)
		}
		_, rec3, state3, err := recoverLogs(snapG.Bytes(), nil, snapT.Bytes(), nil)
		if err != nil {
			t.Fatalf("recovering the compacted state: %v", err)
		}
		if rec3.OrphanNodes+rec3.OrphanSeries != 0 {
			t.Fatalf("the compacted state needed a repair: %s", rec3)
		}
		sameState(t, "compacted", state3, state)
	})
}
