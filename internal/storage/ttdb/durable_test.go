package ttdb

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// disk simulates the durable artifacts a crash leaves behind: only flushed
// bytes exist. The live DurablePolyglot and its in-memory stores are simply
// dropped at "crash" time; recovery sees these buffers alone.
type disk struct {
	graphLog, tsLog bytes.Buffer
}

func (dk *disk) open(t testing.TB) *DurablePolyglot {
	t.Helper()
	d := NewDurable(ts.Day, &dk.graphLog, &dk.tsLog)
	d.Retry = RetryPolicy{MaxAttempts: 3} // no backoff sleeps in tests
	return d
}

func (dk *disk) recover(t *testing.T) (*Polyglot, PolyglotRecovery) {
	t.Helper()
	eng, rec, err := RecoverPolyglot(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()), ts.Day, nil)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return eng, rec
}

// replayRaw replays both logs without the repair: what each store holds on
// its own.
func (dk *disk) replayRaw(t *testing.T) *Polyglot {
	t.Helper()
	g, _, err := graphstore.Recover(nil, bytes.NewReader(dk.graphLog.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tsdb, _, err := tsstore.Recover(nil, bytes.NewReader(dk.tsLog.Bytes()), ts.Day)
	if err != nil {
		t.Fatal(err)
	}
	return &Polyglot{G: g, T: tsdb}
}

func stationSeries(i int) *ts.Series {
	s := ts.New(Metric)
	for h := 0; h < 48; h++ {
		s.MustAppend(ts.Time(h)*ts.Hour, 10+float64(i)+math.Sin(float64(h)))
	}
	return s
}

// ingestUntilCrash ingests stations (with a trip chaining each to the
// previous) until an operation fails, returning the committed ids.
func ingestUntilCrash(d *DurablePolyglot, n int) []StationID {
	var ids []StationID
	for i := 0; i < n; i++ {
		id, err := d.IngestStation(uint64(i), "st", "d", stationSeries(i))
		if err != nil {
			return ids
		}
		ids = append(ids, id)
		if len(ids) >= 2 {
			if err := d.AddTrip(ids[len(ids)-2], id, 3); err != nil {
				return ids
			}
		}
	}
	return ids
}

// TestCrashMatrix arms every fault point at several visit counts, runs a
// bike-sharing-style ingest until the injected "crash", recovers from the
// flushed bytes only, and requires the cross-store invariant — every
// committed station survives whole, nothing is half-applied, no orphan nodes
// or series.
func TestCrashMatrix(t *testing.T) {
	points := []string{
		FaultIngestGraph,
		FaultIngestTS,
		"graphstore.wal.append",
		"graphstore.wal.flush",
		"tsstore.wal.append",
		"tsstore.wal.flush",
	}
	const stations = 6
	for _, pt := range points {
		// Varying Nth walks the crash across the write steps of successive
		// ingests and trips.
		for nth := 1; nth <= 9; nth++ {
			t.Run(pt+"/nth="+string(rune('0'+nth)), func(t *testing.T) {
				defer faults.Reset()
				faults.Reset()
				var dk disk
				d := dk.open(t)
				faults.Enable(pt, faults.Spec{Err: errors.New("injected crash"), Nth: nth})
				committed := ingestUntilCrash(d, stations)
				faults.Reset() // the "reboot": faults are gone

				eng, rec := dk.recover(t)
				if err := CheckConsistency(eng); err != nil {
					t.Fatalf("inconsistent after recovery: %v\nsummary:\n%s", err, rec)
				}
				// Every station the live engine committed must survive whole.
				for _, id := range committed {
					if !eng.G.NodeExists(id) {
						t.Fatalf("committed station %d lost its node", id)
					}
					if !eng.T.HasSeries(key(id)) {
						t.Fatalf("committed station %d lost its series", id)
					}
				}
				// Recovering the same disk twice gives the same stations,
				// properties, trips and series.
				eng2, _ := dk.recover(t)
				sameState(t, "second recovery", dumpState(eng2), dumpState(eng))
			})
		}
	}
}

// TestRepairRequiredBetweenStores: an ingest and a delete each crashed
// between the two stores' writes leave an orphan Station node and an orphan
// series on disk. Replaying the two logs on their own keeps them; the
// repair in RecoverPolyglot removes both and keeps the committed station.
func TestRepairRequiredBetweenStores(t *testing.T) {
	defer faults.Reset()
	for _, tc := range []struct {
		what  string
		crash func(d *DurablePolyglot, victim StationID) error
	}{
		{"ingest", func(d *DurablePolyglot, _ StationID) error {
			_, err := d.IngestStation(1, "torn", "d", stationSeries(2))
			return err
		}},
		{"delete", func(d *DurablePolyglot, victim StationID) error { return d.DeleteStation(victim) }},
	} {
		faults.Reset()
		var dk disk
		d := dk.open(t)
		keep, err := d.IngestStation(1, "ok", "d", stationSeries(0))
		if err != nil {
			t.Fatal(err)
		}
		victim, err := d.IngestStation(1, "victim", "d", stationSeries(1))
		if err != nil {
			t.Fatal(err)
		}
		// Kill the write exactly between the two stores.
		faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("crash between stores")})
		if err := tc.crash(d, victim); err == nil {
			t.Fatalf("%s survived the injected crash", tc.what)
		}
		faults.Reset()

		if err := CheckConsistency(dk.replayRaw(t)); err == nil {
			t.Fatalf("%s: raw replay of the two logs is consistent — the test lost its teeth", tc.what)
		}
		eng, rec := dk.recover(t)
		if err := CheckConsistency(eng); err != nil {
			t.Fatalf("%s: recovery inconsistent: %v", tc.what, err)
		}
		if rec.OrphanNodes+rec.OrphanSeries != 1 {
			t.Fatalf("%s: repair removed %d nodes and %d series, want one torn write", tc.what, rec.OrphanNodes, rec.OrphanSeries)
		}
		want := []StationID{keep, victim}
		if tc.what == "delete" {
			want = want[:1]
		}
		if got := eng.G.NodesByLabel("Station"); !slices.Equal(got, want) {
			t.Fatalf("%s: stations after recovery %v, want %v", tc.what, got, want)
		}
	}
}

// TestTransientErrorsRetried: transient injections at every point are
// absorbed by the bounded retry and the ingest succeeds end to end.
func TestTransientErrorsRetried(t *testing.T) {
	defer faults.Reset()
	for _, pt := range []string{FaultIngestGraph, FaultIngestTS} {
		faults.Reset()
		var dk disk
		d := dk.open(t)
		faults.Enable(pt, faults.Spec{Err: errors.New("blip"), Transient: true, Count: 2})
		id, err := d.IngestStation(1, "st", "d", stationSeries(0))
		if err != nil {
			t.Fatalf("%s: transient fault not retried: %v", pt, err)
		}
		if faults.Hits(pt) < 3 {
			t.Fatalf("%s: expected retries, hits=%d", pt, faults.Hits(pt))
		}
		faults.Reset()
		eng, _ := dk.recover(t)
		if !eng.G.NodeExists(id) || !eng.T.HasSeries(key(id)) {
			t.Fatalf("%s: station incomplete after transient retries", pt)
		}
		if err := CheckConsistency(eng); err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
	}
	// Retries exhausted → the error surfaces.
	faults.Reset()
	var dk disk
	d := dk.open(t)
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("stuck"), Transient: true})
	if _, err := d.IngestStation(1, "st", "d", stationSeries(0)); err == nil {
		t.Fatal("unbounded retry")
	}
}

// TestDegradedQueries: with the TS store unreachable, all eight queries
// return ErrDegraded and no answer. The graph-derivable partials of Q4, Q5
// and Q8 are the coordinator's (internal/coord TestExecDegradedPartials).
func TestDegradedQueries(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	var ids []StationID
	for i := 0; i < 4; i++ {
		id, err := d.IngestStation(uint64(i), "st", []string{"north", "south"}[i%2], stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.AddTrip(ids[0], ids[1], 2); err != nil {
		t.Fatal(err)
	}
	start, end := ts.Time(0), 48*ts.Hour

	// Healthy path first.
	ctx := context.Background()
	if res, err := d.Exec(ctx, Q1(ids[0], start, end)); err != nil || len(res.Points) != 48 {
		t.Fatalf("healthy Q1: %d pts, %v", len(res.Points), err)
	}

	faults.Enable(FaultQueryTS, faults.Spec{Err: errors.New("ts backend down")})
	if _, err := d.Exec(ctx, Q1(ids[0], start, end)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Q1 degraded err: %v", err)
	}
	if _, err := d.Exec(ctx, Q2(ids[0], start, end, 11)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q2 not degraded")
	}
	if _, err := d.Exec(ctx, Q3(ids[0], start, end)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q3 not degraded")
	}
	means, err := d.Exec(ctx, Q4(start, end))
	if !errors.Is(err, ErrDegraded) || means.IDs != nil {
		t.Fatalf("Q4 degraded: %v, %v", means.IDs, err)
	}
	sums, err := d.Exec(ctx, Q5(start, end))
	if !errors.Is(err, ErrDegraded) || sums.Names != nil {
		t.Fatalf("Q5 degraded: %v, %v", sums.Names, err)
	}
	if _, err := d.Exec(ctx, Q6(start, end, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q6 not degraded")
	}
	if _, err := d.Exec(ctx, Q7(ids[0], ids[1], start, end, ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q7 not degraded")
	}
	nm, err := d.Exec(ctx, Q8(ids[0], start, end))
	if !errors.Is(err, ErrDegraded) || nm.IDs != nil {
		t.Fatalf("Q8 degraded: %v, %v", nm.IDs, err)
	}
	// The typed error carries the query name and unwraps to the cause.
	var de *DegradedError
	_, err = d.Exec(ctx, Q3(ids[0], start, end))
	if !errors.As(err, &de) || de.Query != "Q3" || !strings.Contains(de.Error(), "ts store unavailable") {
		t.Fatalf("degraded error shape: %#v", err)
	}

	// Recovery clears degradation.
	faults.Reset()
	if m, err := d.Exec(ctx, Q3(ids[0], start, end)); err != nil || m.Scalar == 0 {
		t.Fatalf("post-recovery Q3: %v, %v", m.Scalar, err)
	}
}

// TestPermanentTSFailureDegradesUntilSuccess: an exhausted TS-side write
// marks the store degraded; the next successful write clears it.
func TestPermanentTSFailureDegradesUntilSuccess(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation(1, "ok", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("down"), Count: 5})
	if _, err := d.IngestStation(1, "bad", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived permanent TS failure")
	}
	faults.Reset()
	if _, err := d.Exec(context.Background(), Q3(0, 0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("queries not degraded after permanent TS failure: %v", err)
	}
	if _, err := d.IngestStation(1, "again", "d", stationSeries(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(context.Background(), Q3(0, 0, 48*ts.Hour)); err != nil {
		t.Fatalf("degradation not cleared by successful write: %v", err)
	}
}

// TestResumeAfterCrashReusesNodeID: when a crashed ingest's node create
// never reached disk, the next session reuses the node id, and recovering
// the combined logs keeps the new station.
func TestResumeAfterCrashReusesNodeID(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation(1, "s0", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	// Crash before any graph byte is flushed: the node id is reserved in
	// memory but never on disk.
	faults.Enable(FaultIngestGraph, faults.Spec{Err: errors.New("crash")})
	if _, err := d.IngestStation(1, "lost", "d", stationSeries(1)); err == nil {
		t.Fatal("expected crash")
	}
	faults.Reset()

	eng, rec := dk.recover(t)
	if rec.OrphanNodes+rec.OrphanSeries != 0 {
		t.Fatalf("nothing of the lost ingest reached disk, yet the repair removed some: %s", rec)
	}
	// Resume into the same logs and ingest a new station — it reuses id 1.
	d2 := ResumeDurable(eng, &dk.graphLog, &dk.tsLog)
	d2.Retry = RetryPolicy{MaxAttempts: 1}
	id, err := d2.IngestStation(1, "s1", "d", stationSeries(2))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("expected node id 1 reused, got %d", id)
	}
	eng2, rec2 := dk.recover(t)
	if !eng2.G.NodeExists(id) || !eng2.T.HasSeries(key(id)) {
		t.Fatalf("the station that reused the id is incomplete: %s", rec2)
	}
	if err := CheckConsistency(eng2); err != nil {
		t.Fatal(err)
	}
	if n := len(eng2.G.NodesByLabel("Station")); n != 2 {
		t.Fatalf("stations=%d", n)
	}
}

// TestRecoverySummaryString: the recover CLI renders counts from the summary.
func TestRecoverySummaryString(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation(1, "st", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	tearIngest(t, d)
	_, rec := dk.recover(t)
	out := rec.String()
	for _, want := range []string{"graph: 8 ops", "ts:    1 ops, 48 points", "repair: 1 orphan station nodes, 0 orphan series removed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestIngestRejectsEmptySeries: a station with no points would be an orphan
// node to the next recovery, so the ingest fails before writing anything.
func TestIngestRejectsEmptySeries(t *testing.T) {
	var dk disk
	d := dk.open(t)
	for _, s := range []*ts.Series{nil, ts.New(Metric)} {
		if _, err := d.IngestStation(1, "empty", "d", s); err == nil {
			t.Fatal("empty series accepted")
		}
	}
	if dk.graphLog.Len()+dk.tsLog.Len() != 0 || d.Engine().G.NumNodes() != 0 {
		t.Fatalf("rejected ingest wrote %d log bytes, %d nodes", dk.graphLog.Len()+dk.tsLog.Len(), d.Engine().G.NumNodes())
	}
	if id, err := d.IngestStation(1, "st", "d", stationSeries(0)); err != nil || id != 0 {
		t.Fatalf("first station after the rejections: id %d, %v", id, err)
	}
}

// TestCheckConsistencyDetectsBothOrphans guards the guard.
func TestCheckConsistencyDetectsBothOrphans(t *testing.T) {
	eng := NewPolyglot(ts.Day)
	if err := CheckConsistency(eng); err != nil {
		t.Fatal(err)
	}
	st := eng.G.CreateNode("Station")
	if err := CheckConsistency(eng); err == nil {
		t.Fatal("orphan node undetected")
	}
	eng.T.InsertSeries(key(st), stationSeries(0))
	if err := CheckConsistency(eng); err != nil {
		t.Fatal(err)
	}
	// A series belongs to a Station node, not to any node.
	b := eng.G.CreateNode("Boundary")
	eng.T.InsertSeries(key(b), stationSeries(1))
	if err := CheckConsistency(eng); err == nil {
		t.Fatal("series of a boundary node undetected")
	}
	eng.T.DeleteSeries(key(b))
	eng.T.InsertSeries(key(99), stationSeries(1))
	if err := CheckConsistency(eng); err == nil {
		t.Fatal("orphan series undetected")
	}
}

// SyncAll is the drain step of a graceful server shutdown: after it returns
// nil, streaming appends that only rode shared flushes are recoverable from
// the logs alone.
func TestSyncAllMakesStreamedAppendsRecoverable(t *testing.T) {
	faults.Reset()
	var dk disk
	d := dk.open(t)
	id, err := d.IngestStation(1, "st", "north", stationSeries(0))
	if err != nil {
		t.Fatal(err)
	}
	for h := 48; h < 80; h++ {
		if err := d.AppendPoint(id, ts.Time(h)*ts.Hour, float64(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SyncAll(); err != nil {
		t.Fatal(err)
	}
	eng, _ := dk.recover(t)
	got := exec(t, eng, Q1(id, 0, 80*ts.Hour)).Points
	if len(got) != 80 {
		t.Fatalf("recovered %d points after SyncAll, want 80", len(got))
	}
	// The Engine accessor service code reads through.
	if d.Engine() == nil {
		t.Fatal("Engine accessor broken")
	}
}
