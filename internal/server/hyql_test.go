package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
)

// Served HyQL runs over the stores: the tenant memoises structure (stations,
// trips, one handle per series) and every ts.* function reads the hypertable
// in place. These tests pin the contract that follows: an acknowledged write
// of any kind is visible to the next query, only station and trip writes
// rebuild anything, and a series vertex's validity follows its appends.

// hyqlServers runs a test body against a single-engine tenant and a
// three-partition one; the contract is the same for both.
func hyqlServers(t *testing.T, body func(t *testing.T, base string, reg *obs.Registry)) {
	t.Run("engine", func(t *testing.T) {
		_, hs, _, reg := newTestServer(t, Limits{})
		body(t, hs.URL, reg)
	})
	t.Run("partitioned", func(t *testing.T) {
		s, hs := newPartitionedServer(t, NewMemBackend(), 3)
		body(t, hs.URL, s.reg)
	})
}

// hyqlRows posts one query and returns its rows as rendered strings.
func hyqlRows(t *testing.T, base, query string, at int64) [][]string {
	t.Helper()
	code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/hyql",
		map[string]any{"query": query, "at": at}, nil)
	if code != http.StatusOK {
		t.Fatalf("hyql %q: %d %v", query, code, body)
	}
	var rows [][]string
	for _, r := range body["rows"].([]any) {
		var row []string
		for _, c := range r.([]any) {
			row = append(row, c.(string))
		}
		rows = append(rows, row)
	}
	return rows
}

func appendPoint(t *testing.T, base string, station float64, at int64, v float64) {
	t.Helper()
	code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/points",
		map[string]any{"station": station, "t": at, "v": v}, nil)
	if code != http.StatusOK {
		t.Fatalf("point: %d %v", code, body)
	}
}

func rebuilds(reg *obs.Registry) int64 {
	return reg.Snapshot().Counters["hyql.view.structural_rebuilds"]
}

func TestHyQLReadYourWritesWithoutRebuild(t *testing.T) {
	hyqlServers(t, func(t *testing.T, base string, reg *obs.Registry) {
		pts := []map[string]any{{"t": 0, "v": 4}, {"t": 60, "v": 6}, {"t": 120, "v": 8}}
		a := ingestStation(t, base, "acme", "alpha", "north", pts, "")
		ingestStation(t, base, "acme", "beta", "south", pts, "")

		const q = `MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = 'alpha'
			RETURN ts.count(a), ts.mean(a, 0, 1000), ts.last(a, 0, 1000)`
		if got := fmt.Sprint(hyqlRows(t, base, q, 60)); got != "[[3 6 8]]" {
			t.Fatalf("before append: %s", got)
		}
		if n := rebuilds(reg); n != 1 {
			t.Fatalf("first query built the structure %d times, want 1", n)
		}
		// Acknowledged appends, each visible to the very next query, none
		// of them rebuilding anything.
		for i, want := range []string{"[[4 7 10]]", "[[5 8 12]]"} {
			appendPoint(t, base, a, int64(180+60*i), float64(10+2*i))
			if got := fmt.Sprint(hyqlRows(t, base, q, 60)); got != want {
				t.Fatalf("after append %d: %s, want %s", i, got, want)
			}
		}
		if n := rebuilds(reg); n != 1 {
			t.Fatalf("appends rebuilt the structure: %d builds, want 1", n)
		}

		snap := reg.Snapshot()
		if snap.Counters["hyql.series.pushdown"] == 0 {
			t.Fatal("count/mean never answered from chunk summaries")
		}
		if snap.Counters["hyql.series.decoded_points"] == 0 {
			t.Fatal("ts.last decoded no points")
		}
		if snap.Durations["hyql.clause.match"].Count == 0 {
			t.Fatal("served engine is not instrumented: no hyql.clause.match samples")
		}
	})
}

func TestHyQLSeriesValidityFollowsAppends(t *testing.T) {
	hyqlServers(t, func(t *testing.T, base string, reg *obs.Registry) {
		long := []map[string]any{{"t": 0, "v": 1}, {"t": 500, "v": 2}}
		ingestStation(t, base, "acme", "always", "d", long, "")
		short := ingestStation(t, base, "acme", "short", "d", []map[string]any{{"t": 0, "v": 1}, {"t": 100, "v": 2}}, "")
		empty := ingestStation(t, base, "acme", "empty", "d", nil, "")

		const q = `MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name, ts.len(a)`
		const at = 200
		if got := fmt.Sprint(hyqlRows(t, base, q, at)); got != "[[always 2]]" {
			t.Fatalf("at %d before appends: %s", at, got)
		}
		// The short series ends before the instant and the empty one has no
		// span; carrying each past the instant makes its vertex valid.
		appendPoint(t, base, short, 300, 3)
		if got := fmt.Sprint(hyqlRows(t, base, q, at)); got != "[[always 2] [short 3]]" {
			t.Fatalf("after extending short: %s", got)
		}
		appendPoint(t, base, empty, 150, 9)
		if got := fmt.Sprint(hyqlRows(t, base, q, at)); got != "[[always 2] [short 3]]" {
			t.Fatalf("a series that starts and ends before the instant became visible: %s", got)
		}
		appendPoint(t, base, empty, 250, 9)
		if got := fmt.Sprint(hyqlRows(t, base, q, at)); got != "[[always 2] [short 3] [empty 2]]" {
			t.Fatalf("after extending empty: %s", got)
		}
		// A later instant sees only what still covers it.
		if got := fmt.Sprint(hyqlRows(t, base, q, 400)); got != "[[always 2]]" {
			t.Fatalf("at 400: %s", got)
		}
		if n := rebuilds(reg); n != 1 {
			t.Fatalf("validity changes rebuilt the structure: %d builds, want 1", n)
		}
	})
}

func TestHyQLSeesNewStationsAndTrips(t *testing.T) {
	hyqlServers(t, func(t *testing.T, base string, reg *obs.Registry) {
		pts := []map[string]any{{"t": 0, "v": 4}, {"t": 60, "v": 6}}
		a := ingestStation(t, base, "acme", "alpha", "north", pts, "")

		const stations = `MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name, ts.sum(a)`
		const trips = `MATCH (x:Station)-[t:TRIP]->(y:Station) RETURN x.name, y.name, t.count`
		if got := fmt.Sprint(hyqlRows(t, base, stations, 0)); got != "[[alpha 10]]" {
			t.Fatalf("one station: %s", got)
		}
		b := ingestStation(t, base, "acme", "beta", "south", pts, "key-b")
		if got := fmt.Sprint(hyqlRows(t, base, stations, 0)); got != "[[alpha 10] [beta 10]]" {
			t.Fatalf("after station ingest: %s", got)
		}
		if got := hyqlRows(t, base, trips, 0); len(got) != 0 {
			t.Fatalf("trips before any: %v", got)
		}
		code, body, _ := doJSON(t, "POST", base+"/v1/tenants/acme/trips",
			map[string]any{"from": a, "to": b, "count": 7}, nil)
		if code != http.StatusOK {
			t.Fatalf("trip: %d %v", code, body)
		}
		if got := fmt.Sprint(hyqlRows(t, base, trips, 0)); got != "[[alpha beta 7]]" {
			t.Fatalf("after trip: %s", got)
		}
		// Three structural states were queried; the repeat queries in
		// between reused what was there.
		if n := rebuilds(reg); n != 3 {
			t.Fatalf("structure built %d times, want 3", n)
		}
	})
}

// TestKeyedIngestNotBlockedByHyQL pins the lock split: a HyQL query parked
// inside tenant execution must not hold anything a keyed station ingest on
// the same tenant needs.
func TestKeyedIngestNotBlockedByHyQL(t *testing.T) {
	defer faults.Reset()
	_, hs, _, _ := newTestServer(t, Limits{})
	base := hs.URL
	pts := []map[string]any{{"t": 0, "v": 1}}
	ingestStation(t, base, "acme", "alpha", "north", pts, "key-a")

	// Delay is slept on every visit; Nth keeps the error from ever firing.
	faults.Enable(FaultHyQL, faults.Spec{Delay: time.Minute, Nth: 1 << 30})
	before := faults.Hits(FaultHyQL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		b, _ := json.Marshal(map[string]any{"query": "MATCH (s:Station) RETURN s.name", "at": 0})
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/tenants/acme/hyql", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return
		}
		// Cancelled below: the only way this request ends.
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); faults.Hits(FaultHyQL) == before; {
		if time.Now().After(deadline) {
			t.Fatal("hyql query never reached its fault point")
		}
		time.Sleep(time.Millisecond)
	}

	ingestStation(t, base, "acme", "beta", "south", pts, "key-b")
	select {
	case <-parked:
		t.Fatal("hyql query finished early; the ingest was not racing a parked query")
	default:
	}
	cancel()
	<-parked
}

// TestConcurrentHyQLWithWrites runs queries from several goroutines — they
// share the tenant's engine and structure memo, with no execution lock —
// against concurrent appends and station/trip ingests. Run under -race.
func TestConcurrentHyQLWithWrites(t *testing.T) {
	hyqlServers(t, func(t *testing.T, base string, reg *obs.Registry) {
		pts := []map[string]any{{"t": 0, "v": 1}, {"t": 1000, "v": 2}}
		first := ingestStation(t, base, "acme", "s-0", "d", pts, "")
		const writers, appends, stations, readers, reads = 2, 40, 8, 4, 25

		post := func(path string, body map[string]any) error {
			b, _ := json.Marshal(body)
			resp, err := http.Post(base+"/v1/tenants/acme/"+path, "application/json", bytes.NewReader(b))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s %v: status %d", path, body, resp.StatusCode)
			}
			return nil
		}
		errs := make(chan error, writers+readers+1)
		for w := 0; w < writers; w++ {
			w := w
			go func() {
				for i := 0; i < appends; i++ {
					if err := post("points", map[string]any{"station": first, "t": 2000 + i*writers + w, "v": 1}); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		go func() {
			for i := 1; i <= stations; i++ {
				if err := post("stations", map[string]any{"name": fmt.Sprintf("s-%d", i), "district": "d", "points": pts}); err != nil {
					errs <- err
					return
				}
				// Station ids are allocated in ingest order on both backends.
				if err := post("trips", map[string]any{"from": first, "to": first + float64(i), "count": i}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		for r := 0; r < readers; r++ {
			go func() {
				for i := 0; i < reads; i++ {
					err := post("hyql", map[string]any{"at": 500, "query": `MATCH (st:Station)-[:HAS_SERIES]->(a)
						RETURN st.name, ts.count(a), ts.median(a, 0, 5000), ts.resample(a, 0, 4000, 1000, 'max')`})
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for i := 0; i < writers+readers+1; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}

		rows := hyqlRows(t, base, `MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN count(*), sum(ts.count(a))`, 500)
		if got, want := fmt.Sprint(rows), fmt.Sprintf("[[%d %d]]", stations+1, 2*(stations+1)+writers*appends); got != want {
			t.Fatalf("after the storm: %s, want %s", got, want)
		}
		rows = hyqlRows(t, base, `MATCH (:Station)-[t:TRIP]->(:Station) RETURN count(*)`, 500)
		if got, want := fmt.Sprint(rows), fmt.Sprintf("[[%d]]", stations); got != want {
			t.Fatalf("trips after the storm: %s, want %s", got, want)
		}
	})
}

// A variable-length hop bound the parser rejects is a 400 hyql_error, not an
// unbounded trail enumeration on the request path.
func TestHyQLRejectsUnboundedHops(t *testing.T) {
	_, hs, _, _ := newTestServer(t, Limits{})
	for _, hops := range []string{"*1..99999999999999999999", "*1.5", "*3..1"} {
		q := "MATCH (a)-[" + hops + "]->(b) RETURN count(*)"
		code, body, _ := doJSON(t, "POST", hs.URL+"/v1/tenants/acme/hyql",
			map[string]any{"query": q, "at": 0}, nil)
		e, _ := body["error"].(map[string]any)
		if code != http.StatusBadRequest || e["code"] != "hyql_error" {
			t.Fatalf("%s: %d %v, want 400 hyql_error", hops, code, body)
		}
	}
}
