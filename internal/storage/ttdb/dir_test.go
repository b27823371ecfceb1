package ttdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/ts"
)

// dumpState renders an engine's logical state canonically: every Station
// node as returned by the label index (duplicates kept), its properties and
// relationships, then every series' points.
func dumpState(eng *Polyglot) string {
	var b strings.Builder
	ids := eng.G.NodesByLabel("Station")
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		var props, rels []string
		eng.G.NodeProps(id, func(k string, v graphstore.PropValue) bool {
			props = append(props, fmt.Sprintf("%s=%+v", k, v))
			return true
		})
		eng.G.Rels(id, func(r graphstore.Rel) bool {
			count, _ := eng.G.RelProp(r.ID, "count")
			rels = append(rels, fmt.Sprintf("%d:%d-%s->%d(%+v)", r.ID, r.From, r.Type, r.To, count))
			return true
		})
		sort.Strings(props)
		sort.Strings(rels)
		fmt.Fprintf(&b, "station %d %v %v\n", id, props, rels)
	}
	keys := eng.T.Keys()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Entity != keys[j].Entity {
			return keys[i].Entity < keys[j].Entity
		}
		return keys[i].Metric < keys[j].Metric
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "series %v %v\n", k, eng.T.Range(k, math.MinInt64, ts.MaxTime))
	}
	return b.String()
}

func openDir(t *testing.T, dir string) (*DurablePolyglot, PolyglotRecovery, func()) {
	t.Helper()
	d, rec, closer, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	return d, rec, func() {
		if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// populate ingests stations with trips and streamed appends and syncs
// every log.
func populate(t *testing.T, d *DurablePolyglot) {
	t.Helper()
	var ids []StationID
	for i := 0; i < 4; i++ {
		id, err := d.IngestStation(uint64(i), fmt.Sprintf("st%d", i), "d", stationSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		if err := d.AddTrip(ids[i-1], ids[i], i); err != nil {
			t.Fatal(err)
		}
	}
	for h := 48; h < 52; h++ {
		if err := d.AppendPoint(ids[0], ts.Time(h)*ts.Hour, float64(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SyncAll(); err != nil {
		t.Fatal(err)
	}
}

// tearIngest crashes one ingest between the stores, leaving a Station node
// without a series that recovery's repair removes.
func tearIngest(t *testing.T, d *DurablePolyglot) {
	t.Helper()
	faults.Enable(FaultIngestTS, faults.Spec{Err: errors.New("injected crash")})
	defer faults.Reset()
	if _, err := d.IngestStation(1, "torn", "d", stationSeries(9)); err == nil {
		t.Fatal("expected the injected crash")
	}
}

// sameState fails the test at the first line where two dumps differ.
func sameState(t *testing.T, what, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d\n got %.200s\nwant %.200s", what, i+1, gl, wl)
		}
	}
}

// TestOpenDirReopen: what one OpenDir session writes and syncs, the next
// OpenDir of the same directory recovers, stations and points alike.
func TestOpenDirReopen(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	dir := filepath.Join(t.TempDir(), "tenant")
	d, rec, closeLogs := openDir(t, dir)
	if rec.Graph.Applied+rec.TS.Applied != 0 || d.Engine().G.NumNodes() != 0 {
		t.Fatalf("fresh directory recovered %s, %d nodes", rec, d.Engine().G.NumNodes())
	}
	populate(t, d)
	want := dumpState(d.Engine())
	tearIngest(t, d)
	closeLogs()

	d2, rec2, closeLogs2 := openDir(t, dir)
	defer closeLogs2()
	if rec2.OrphanNodes != 1 {
		t.Fatalf("want the torn ingest's node removed: %s", rec2)
	}
	sameState(t, "reopen", dumpState(d2.Engine()), want)
	if n := len(d2.Engine().G.NodesByLabel("Station")); n != 4 {
		t.Fatalf("stations=%d, want 4", n)
	}
	if pts := d2.Engine().T.Range(key(0), 0, ts.MaxTime); len(pts) != 52 {
		t.Fatalf("station 0 has %d points, want 52", len(pts))
	}
	if err := CheckConsistency(d2.Engine()); err != nil {
		t.Fatal(err)
	}
}

// TestCompactDirCrashAtEveryStep stops a compaction before each of its steps
// (both snapshot writes, the commit, both renames, both truncations and the
// marker's removal). Whatever the step, the directory must recover to
// the state a compaction without a crash recovers to, and recovering it a
// second time must give the same state again.
func TestCompactDirCrashAtEveryStep(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	seed := filepath.Join(t.TempDir(), "seed")
	d, _, closeLogs := openDir(t, seed)
	populate(t, d)
	tearIngest(t, d)
	closeLogs()

	steps := 0
	for nth := 1; ; nth++ {
		dir := filepath.Join(t.TempDir(), "tenant")
		copyDir(t, seed, dir)
		d, _, closeLogs := openDir(t, dir)
		want := dumpState(d.Engine())
		faults.Enable(FaultCompact, faults.Spec{Err: errors.New("injected crash"), Nth: nth})
		err := CompactDir(dir, d.Engine())
		faults.Reset()
		closeLogs()
		if err == nil {
			break
		}
		steps++

		for pass := 1; pass <= 2; pass++ {
			d, rec, closeLogs := openDir(t, dir)
			sameState(t, fmt.Sprintf("crash before step %d, recovery %d", nth, pass), dumpState(d.Engine()), want)
			if err := CheckConsistency(d.Engine()); err != nil {
				t.Fatalf("crash before step %d: %v (%s)", nth, err, rec)
			}
			for _, name := range dirNames(t, dir) {
				if name == compactFile {
					t.Fatalf("crash before step %d: OpenDir left the commit marker", nth)
				}
			}
			closeLogs()
		}
	}
	if steps != 8 {
		t.Fatalf("compaction crashed at %d steps, want 8", steps)
	}

	// A completed compaction leaves only the four files, logs empty, and
	// the next open replays nothing.
	dir := filepath.Join(t.TempDir(), "tenant")
	copyDir(t, seed, dir)
	d, _, closeLogs = openDir(t, dir)
	want := dumpState(d.Engine())
	if err := CompactDir(dir, d.Engine()); err != nil {
		t.Fatal(err)
	}
	closeLogs()
	if got := strings.Join(dirNames(t, dir), " "); got != "graph.snap graph.wal ts.snap ts.wal" {
		t.Fatalf("directory after compaction: %s", got)
	}
	for _, name := range []string{graphLogFile, tsLogFile} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() != 0 {
			t.Fatalf("log %s not empty after compaction (%v)", name, err)
		}
	}
	d, rec, closeLogs := openDir(t, dir)
	defer closeLogs()
	if rec.Graph.Applied != 0 || rec.TS.Applied != 0 || rec.OrphanNodes+rec.OrphanSeries != 0 {
		t.Fatalf("compacted directory replayed records: %s", rec)
	}
	sameState(t, "compacted", dumpState(d.Engine()), want)
}

// TestOpenDirRejectsStaleGraphLog: a graph.wal from before a compaction,
// put back beside the graph.snap that already holds its records, must fail
// recovery naming the re-created node, not recover every station twice.
func TestOpenDirRejectsStaleGraphLog(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	dir := filepath.Join(t.TempDir(), "tenant")
	d, _, closeLogs := openDir(t, dir)
	populate(t, d)
	closeLogs()
	oldLog, err := os.ReadFile(filepath.Join(dir, graphLogFile))
	if err != nil {
		t.Fatal(err)
	}

	d, _, closeLogs = openDir(t, dir)
	if err := CompactDir(dir, d.Engine()); err != nil {
		t.Fatal(err)
	}
	closeLogs()
	if err := os.WriteFile(filepath.Join(dir, graphLogFile), oldLog, 0o644); err != nil {
		t.Fatal(err)
	}

	d, rec, closer, err := OpenDir(dir)
	if err == nil {
		closer.Close()
		t.Fatalf("OpenDir replayed a stale graph log: %d stations (%s)", len(d.Engine().G.NodesByLabel("Station")), rec)
	}
	if !strings.Contains(err.Error(), "re-creates live node") {
		t.Fatalf("OpenDir: %v, want the re-created node named", err)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
