package ttdb

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/ts"
)

// disk simulates the durable artifacts a crash leaves behind: only flushed
// bytes exist. The live DurablePolyglot and its in-memory stores are simply
// dropped at "crash" time; recovery sees these buffers alone.
type disk struct {
	graphLog, tsLog, journal bytes.Buffer
}

func (dk *disk) open(t *testing.T) *DurablePolyglot {
	t.Helper()
	d := NewDurable(ts.Day, &dk.graphLog, &dk.tsLog, &dk.journal)
	d.Retry = RetryPolicy{MaxAttempts: 3} // no backoff sleeps in tests
	return d
}

func (dk *disk) recover(t *testing.T) (*Polyglot, PolyglotRecovery) {
	t.Helper()
	eng, rec, err := RecoverPolyglot(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()),
		bytes.NewReader(dk.journal.Bytes()), ts.Day)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return eng, rec
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
		id, err := d.IngestStation("st", "d", stationSeries(i))
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

// TestCrashMatrix is the issue's crash-matrix acceptance test: arm every
// fault point at several visit counts, run a bike-sharing-style ingest until
// the injected "crash", recover from the flushed bytes only, and require the
// cross-store invariant — every committed station survives whole, nothing is
// half-applied, no orphan nodes or series.
func TestCrashMatrix(t *testing.T) {
	points := []string{
		FaultJournalAppend,
		FaultIngestGraph,
		FaultIngestTS,
		"graphstore.wal.append",
		"graphstore.wal.flush",
		"tsstore.wal.append",
		"tsstore.wal.flush",
	}
	const stations = 6
	for _, pt := range points {
		// Varying Nth walks the crash across protocol steps and txns.
		for nth := 1; nth <= 9; nth += 2 {
			t.Run(pt+"/nth="+string(rune('0'+nth)), func(t *testing.T) {
				defer faults.Reset()
				faults.Reset()
				var dk disk
				d := dk.open(t)
				faults.Enable(pt, faults.Spec{Err: errors.New("injected crash"), Nth: nth})
				committed := ingestUntilCrash(d, stations)
				crashed := len(committed) < stations
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
				if crashed && rec.Txns == 0 && dk.journal.Len() > 0 {
					t.Fatal("crash occurred but recovery saw no transactions")
				}
				// Recovery is idempotent: recovering the same disk twice
				// converges to the same station set.
				eng2, _ := dk.recover(t)
				if got, want := len(eng2.G.NodesByLabel("Station")), len(eng.G.NodesByLabel("Station")); got != want {
					t.Fatalf("second recovery diverged: %d vs %d stations", got, want)
				}
			})
		}
	}
}

// TestJournalRequiredBetweenStores is the headline acceptance criterion: a
// crash between the graph-store write and the TS-store write leaves an
// orphan node that ONLY the intent journal can identify. Recovery with the
// journal restores consistency; recovery ignoring the journal does not.
func TestJournalRequiredBetweenStores(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation("ok", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	// Kill the second ingest exactly between the two stores' writes.
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("crash between stores")})
	if _, err := d.IngestStation("torn", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived the injected crash")
	}
	faults.Reset()

	// Without the journal the orphan node is invisible: both WALs replay
	// cleanly, but station 1 has a node and no series.
	engNoJ, _, err := RecoverPolyglot(nil, bytes.NewReader(dk.graphLog.Bytes()),
		nil, bytes.NewReader(dk.tsLog.Bytes()), nil, ts.Day)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(engNoJ); err == nil {
		t.Fatal("recovery without the journal claims consistency — the test lost its teeth")
	}

	// With the journal the half-applied txn is rolled back.
	eng, rec := dk.recover(t)
	if err := CheckConsistency(eng); err != nil {
		t.Fatalf("journal recovery inconsistent: %v", err)
	}
	if rec.RolledBack != 1 || rec.Committed != 1 {
		t.Fatalf("fates: %+v", rec)
	}
	if n := len(eng.G.NodesByLabel("Station")); n != 1 {
		t.Fatalf("stations after recovery: %d", n)
	}
}

// TestCommitRecordLossRollsForward: when both sides are durable and only the
// COMMIT record is lost, recovery keeps the station (roll-forward).
func TestCommitRecordLossRollsForward(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	// The 3rd journal append of the txn is the COMMIT record.
	faults.Enable(FaultJournalAppend, faults.Spec{Err: errors.New("crash at commit"), Nth: 3})
	id, err := d.IngestStation("st", "d", stationSeries(0))
	if err == nil {
		t.Fatal("commit-record failure not reported")
	}
	faults.Reset()
	eng, rec := dk.recover(t)
	if rec.RolledForward != 1 {
		t.Fatalf("expected roll-forward, got %+v", rec)
	}
	if !eng.G.NodeExists(id) || !eng.T.HasSeries(key(id)) {
		t.Fatal("rolled-forward station incomplete")
	}
	if err := CheckConsistency(eng); err != nil {
		t.Fatal(err)
	}
}

// TestTransientErrorsRetried: transient injections at every point are
// absorbed by the bounded retry and the ingest succeeds end to end.
func TestTransientErrorsRetried(t *testing.T) {
	defer faults.Reset()
	for _, pt := range []string{FaultJournalAppend, FaultIngestGraph, FaultIngestTS} {
		faults.Reset()
		var dk disk
		d := dk.open(t)
		faults.Enable(pt, faults.Spec{Err: errors.New("blip"), Transient: true, Count: 2})
		id, err := d.IngestStation("st", "d", stationSeries(0))
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
	if _, err := d.IngestStation("st", "d", stationSeries(0)); err == nil {
		t.Fatal("unbounded retry")
	}
}

// TestDegradedQueries: with the TS store unreachable, all eight queries
// return ErrDegraded and the graph-derivable partial results.
func TestDegradedQueries(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	var ids []StationID
	for i := 0; i < 4; i++ {
		id, err := d.IngestStation("st", []string{"north", "south"}[i%2], stationSeries(i))
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
	if !errors.Is(err, ErrDegraded) || len(means.ByStation) != 4 {
		t.Fatalf("Q4 partial: %d entries, %v", len(means.ByStation), err)
	}
	sums, err := d.Exec(ctx, Q5(start, end))
	if !errors.Is(err, ErrDegraded) || len(sums.ByDistrict) != 2 {
		t.Fatalf("Q5 partial: %v, %v", sums.ByDistrict, err)
	}
	if _, err := d.Exec(ctx, Q6(start, end, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q6 not degraded")
	}
	if _, err := d.Exec(ctx, Q7(ids[0], ids[1], start, end, ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatal("Q7 not degraded")
	}
	nm, err := d.Exec(ctx, Q8(ids[0], start, end))
	if !errors.Is(err, ErrDegraded) || len(nm.ByStation) != 1 {
		t.Fatalf("Q8 partial: %v, %v", nm.ByStation, err)
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
	if _, err := d.IngestStation("ok", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("down"), Count: 5})
	if _, err := d.IngestStation("bad", "d", stationSeries(1)); err == nil {
		t.Fatal("ingest survived permanent TS failure")
	}
	faults.Reset()
	if _, err := d.Exec(context.Background(), Q3(0, 0, 48*ts.Hour)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("queries not degraded after permanent TS failure: %v", err)
	}
	if _, err := d.IngestStation("again", "d", stationSeries(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(context.Background(), Q3(0, 0, 48*ts.Hour)); err != nil {
		t.Fatalf("degradation not cleared by successful write: %v", err)
	}
}

// TestResumeAfterCrashReusesNodeID: when a crashed txn's CreateNode never
// reached disk, the next session reuses the node id. A later recovery over
// the combined journal must keep the new txn's station (last-txn-wins).
func TestResumeAfterCrashReusesNodeID(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation("s0", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	// Crash before any graph byte is flushed: BEGIN is journaled, the node id
	// is claimed on paper but never on disk.
	faults.Enable(FaultIngestGraph, faults.Spec{Err: errors.New("crash")})
	if _, err := d.IngestStation("lost", "d", stationSeries(1)); err == nil {
		t.Fatal("expected crash")
	}
	faults.Reset()

	eng, rec := dk.recover(t)
	if rec.RolledBack != 1 {
		t.Fatalf("fates: %+v", rec)
	}
	// Resume into the same logs and ingest a new station — it reuses id 1.
	d2 := ResumeDurable(eng, &dk.graphLog, &dk.tsLog, &dk.journal, rec.NextTxn)
	d2.Retry = RetryPolicy{MaxAttempts: 1}
	id, err := d2.IngestStation("s1", "d", stationSeries(2))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("expected node id 1 reused, got %d", id)
	}
	// Recover the combined history: the old rolled-back txn must not take
	// the new txn's node with it.
	eng2, rec2 := dk.recover(t)
	if !eng2.G.NodeExists(id) || !eng2.T.HasSeries(key(id)) {
		t.Fatalf("later txn's station destroyed by stale rollback: %+v", rec2)
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
	faults.Reset()
	var dk disk
	d := dk.open(t)
	if _, err := d.IngestStation("st", "d", stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	_, rec := dk.recover(t)
	out := rec.String()
	for _, want := range []string{"graph:", "ts:", "journal:", "1 committed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if len(rec.Fates) != 1 || rec.Fates[0].Fate != "committed" {
		t.Fatalf("fates: %+v", rec.Fates)
	}
}

// TestCheckConsistencyDetectsBothOrphans guards the guard.
func TestCheckConsistencyDetectsBothOrphans(t *testing.T) {
	eng := NewPolyglot(ts.Day)
	if err := CheckConsistency(eng); err != nil {
		t.Fatal(err)
	}
	st, err := eng.AddStation("orphan-node", "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(eng); err == nil {
		t.Fatal("orphan node undetected")
	}
	if err := eng.LoadSeries(st, stationSeries(0)); err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(eng); err != nil {
		t.Fatal(err)
	}
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
	d.SetGroupCommit(64)
	id, err := d.IngestStation("st", "north", stationSeries(0))
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
	// Engine/Name accessors used by service code.
	if d.Engine() == nil || d.Name() == "" {
		t.Fatal("Engine/Name accessors broken")
	}
}
