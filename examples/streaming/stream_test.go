package main

import (
	"strings"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// smallInstance: one station with an availability series starting at t=0.
func smallInstance(t *testing.T) (*core.HyGraph, core.VID, core.VID) {
	t.Helper()
	h := core.New()
	st, err := h.AddVertex(tpg.Always, "Station")
	if err != nil {
		t.Fatal(err)
	}
	h.SetVertexProp(st, "name", lpg.Str("s0"))
	s := ts.New("availability")
	s.MustAppend(0, 10)
	tsv, err := h.AddTSVertexUni(s, "Availability")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddEdge(st, tsv, "HAS_SERIES", tpg.Always); err != nil {
		t.Fatal(err)
	}
	return h, st, tsv
}

func TestAppendAndUpsert(t *testing.T) {
	h, _, tsv := smallInstance(t)
	in := NewIngestor(h)
	for i := 1; i <= 10; i++ {
		if err := in.Apply(Update{Kind: Append, At: ts.Time(i) * ts.Minute, Vertex: tsv, Value: float64(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Stale replacement.
	if err := in.Apply(Update{Kind: Upsert, At: 5 * ts.Minute, Vertex: tsv, Value: 99}); err != nil {
		t.Fatal(err)
	}
	s, _ := h.Vertex(tsv).SeriesVar("")
	if s.Len() != 11 {
		t.Fatalf("len=%d", s.Len())
	}
	if v, _ := s.Lookup(5 * ts.Minute); v != 99 {
		t.Fatalf("upserted=%v", v)
	}
	st := in.Stats()
	if st.Appended != 10 || st.Upserted != 1 || st.Errors != 0 {
		t.Fatalf("stats=%+v", st)
	}
	if in.now != 10*ts.Minute {
		t.Fatalf("now=%v", in.now)
	}
}

func TestOutOfOrderAppendCountsError(t *testing.T) {
	h, _, tsv := smallInstance(t)
	in := NewIngestor(h)
	in.Apply(Update{Kind: Append, At: 10 * ts.Minute, Vertex: tsv, Value: 1})
	if err := in.Apply(Update{Kind: Append, At: 5 * ts.Minute, Vertex: tsv, Value: 2}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if in.Stats().Errors != 1 {
		t.Fatalf("errors=%d", in.Stats().Errors)
	}
	// Upsert handles the same event.
	if err := in.Apply(Update{Kind: Upsert, At: 5 * ts.Minute, Vertex: tsv, Value: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestStructuralUpdates(t *testing.T) {
	h, st, _ := smallInstance(t)
	st2, _ := h.AddVertex(tpg.Always, "Station")
	in := NewIngestor(h)
	before := h.NumEdges()
	if err := in.Apply(Update{Kind: AddEdge, At: 100, From: st, To: st2, Label: "TRIP"}); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != before+1 {
		t.Fatal("edge not added")
	}
	var eid core.EID = -1
	h.Edges(func(e *core.Edge) bool {
		if e.Label == "TRIP" {
			eid = e.ID
		}
		return true
	})
	if h.Edge(eid).Valid.Start != 100 {
		t.Fatalf("edge start=%v", h.Edge(eid).Valid)
	}
	if err := in.Apply(Update{Kind: EndEdge, At: 200, Edge: eid}); err != nil {
		t.Fatal(err)
	}
	if h.Edge(eid).Valid.End != 200 {
		t.Fatalf("edge end=%v", h.Edge(eid).Valid)
	}
	// Ending before start errors.
	if err := in.Apply(Update{Kind: EndEdge, At: 50, Edge: eid}); err == nil {
		t.Fatal("EndEdge before start accepted")
	}
	// Unknown targets error but don't kill the stream.
	if err := in.Apply(Update{Kind: AddEdge, At: 1, From: 999, To: st, Label: "X"}); err == nil {
		t.Fatal("edge from missing vertex accepted")
	}
	if err := in.Apply(Update{Kind: Append, At: 1000, Vertex: 999, Value: 1}); err == nil {
		t.Fatal("append to missing vertex accepted")
	}
	if err := in.Apply(Update{Kind: Append, At: 1001, Vertex: st, Value: 1}); err == nil {
		t.Fatal("append to PG vertex accepted")
	}
}

func TestContinuousQueryFires(t *testing.T) {
	h, _, tsv := smallInstance(t)
	in := NewIngestor(h)
	var fired []ts.Time
	var lastMean float64
	c := &Continuous{
		Query: `MATCH (a:Availability) RETURN ts.mean(a) AS m`,
		Slide: 10 * ts.Minute,
		Emit: func(at ts.Time, res *hyql.Result) {
			fired = append(fired, at)
			if len(res.Rows) == 1 {
				lastMean, _ = res.Rows[0][0].AsFloat()
			}
		},
	}
	if err := in.Register(c, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 35; i++ {
		in.Apply(Update{Kind: Append, At: ts.Time(i) * ts.Minute, Vertex: tsv, Value: 20})
	}
	// Windows at 10, 20, 30 minutes.
	if len(fired) != 3 || c.Fires() != 3 {
		t.Fatalf("fired=%v", fired)
	}
	if fired[0] != 10*ts.Minute || fired[2] != 30*ts.Minute {
		t.Fatalf("fire times=%v", fired)
	}
	if lastMean < 19 {
		t.Fatalf("last mean=%v", lastMean)
	}
	// Bad queries and slides are rejected at registration.
	if err := in.Register(&Continuous{Query: "BOGUS", Slide: ts.Minute}, 0); err == nil {
		t.Fatal("bad query registered")
	}
	if err := in.Register(&Continuous{Query: c.Query, Slide: 0}, 0); err == nil {
		t.Fatal("zero slide registered")
	}
}

// A window whose evaluation fails at run time surfaces the error from Apply
// and is neither emitted nor counted as a fire; the update itself applied.
func TestContinuousEvaluationErrorSurfaces(t *testing.T) {
	h, _, tsv := smallInstance(t)
	in := NewIngestor(h)
	emitted := 0
	c := &Continuous{
		Query: `MATCH (a:Availability) RETURN 1/0 AS x`,
		Slide: 10 * ts.Minute,
		Emit:  func(ts.Time, *hyql.Result) { emitted++ },
	}
	if err := in.Register(c, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Update{Kind: Append, At: 5 * ts.Minute, Vertex: tsv, Value: 1}); err != nil {
		t.Fatalf("no window closed yet, but Apply = %v", err)
	}
	err := in.Apply(Update{Kind: Append, At: 11 * ts.Minute, Vertex: tsv, Value: 1})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Apply = %v, want the window's division-by-zero error", err)
	}
	if c.Fires() != 0 || emitted != 0 {
		t.Fatalf("failed window counted: fires=%d emitted=%d", c.Fires(), emitted)
	}
	if st := in.Stats(); st.Appended != 2 || st.Errors != 0 {
		t.Fatalf("stats=%+v, want both appends applied", st)
	}
}

func TestContinuousSeesNewEdges(t *testing.T) {
	// A continuous structural count reflects streamed edges in later
	// windows but not earlier ones (the snapshot is taken as of window end).
	h, st, _ := smallInstance(t)
	st2, _ := h.AddVertex(tpg.Always, "Station")
	in := NewIngestor(h)
	var counts []float64
	c := &Continuous{
		Query: `MATCH (a:Station)-[:TRIP]->(b:Station) RETURN count(*) AS n`,
		Slide: 100,
		Emit: func(_ ts.Time, res *hyql.Result) {
			v, _ := res.Rows[0][0].AsFloat()
			counts = append(counts, v)
		},
	}
	if err := in.Register(c, 0); err != nil {
		t.Fatal(err)
	}
	in.Apply(Update{Kind: AddEdge, At: 150, From: st, To: st2, Label: "TRIP"})
	in.Apply(Update{Kind: AddEdge, At: 350, From: st2, To: st, Label: "TRIP"})
	in.Apply(Update{Kind: EndEdge, At: 399, Edge: lastEdge(h)})
	in.Apply(Update{Kind: AddEdge, At: 520, From: st, To: st2, Label: "TRIP"})
	// Windows: 100 (0 edges), 200 (1), 300 (1), 400 (1: second edge ended
	// at 399 before the window), 500 (1).
	want := []float64{0, 1, 1, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("counts=%v", counts)
	}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("window %d: count=%v want %v (all=%v)", i, counts[i], w, counts)
		}
	}
}

// TestStreamingIntoQueries: stream a day of points into a generated
// instance and watch a continuous hybrid query pick up the change.
func TestStreamingIntoQueries(t *testing.T) {
	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: 5, Districts: 1, Days: 2, StepMinutes: 60, TripsPerSt: 1, Seed: 2})
	h, stations := data.ToHyGraph()
	// Find station 0's series vertex.
	var tsv core.VID = -1
	for _, e := range h.OutEdges(stations[0]) {
		if e.Label == "HAS_SERIES" {
			tsv = e.To
		}
	}
	if tsv < 0 {
		t.Fatal("no series vertex")
	}
	in := NewIngestor(h)
	fires := 0
	c := &Continuous{
		Query: `MATCH (a:Availability) RETURN count(a) AS n`,
		Slide: 6 * ts.Hour,
		Emit: func(_ ts.Time, res *hyql.Result) {
			fires++
			// Past the generated span only the streamed series is still
			// valid (TS validity = series time span), so each window sees
			// exactly one live Availability vertex.
			if n, _ := res.Rows[0][0].AsFloat(); n != 1 {
				t.Errorf("window saw %v series vertices", n)
			}
		},
	}
	_, end := data.Span()
	if err := in.Register(c, end); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		at := end + ts.Time(i)*ts.Hour
		if err := in.Apply(Update{Kind: Append, At: at, Vertex: tsv, Value: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if fires != 3 { // windows at end+6h, +12h, +18h
		t.Fatalf("fires=%d", fires)
	}
	// The streamed points are queryable through HyQL immediately.
	res, err := hyql.NewEngine(h).Query(`
		MATCH (a:Availability)
		WHERE ts.len(a) > 60
		RETURN count(a) AS grown`, end+23*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "1" {
		t.Fatalf("grown=%v", res.Rows[0][0])
	}
}

func lastEdge(h *core.HyGraph) core.EID {
	var last core.EID = -1
	h.Edges(func(e *core.Edge) bool {
		last = e.ID
		return true
	})
	return last
}
