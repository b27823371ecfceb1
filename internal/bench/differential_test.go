package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// The differential battery runs Q1–Q8 through every execution path the repo
// has — the all-in-graph engine, the polyglot engine sequential and fanned
// out, the polyglot engine with instrumentation attached, and the HyQL
// surface, both over the equivalent HyGraph and over the stores themselves
// (hyql.View with store-backed series handles, single engine and partitioned)
// — and requires element-wise identical results. Timestamps must match exactly; floats within tolerance (the HyQL
// path may fold sums in a different order than a store pushdown).

// diffTol is the relative float tolerance of the battery.
const diffTol = 1e-9

func diffEq(a, b float64) bool {
	if a == b {
		return true
	}
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= diffTol*m
}

// diffConfigs are the two seeded workloads the battery runs over: a tiny
// coarse-grained network and a denser finer-grained one, so both the
// single-chunk and multi-chunk store paths are exercised.
var diffConfigs = []dataset.BikeConfig{
	{Stations: 12, Districts: 3, Days: 7, StepMinutes: 120, TripsPerSt: 2, Seed: 3},
	{Stations: 20, Districts: 4, Days: 10, StepMinutes: 60, TripsPerSt: 3, Seed: 11},
}

// qResults is one path's canonical answers, keyed by station/district name
// so engines with different internal id spaces compare directly.
type qResults struct {
	q1 []ts.Point
	q2 []ts.Point
	q3 float64
	q4 map[string]float64
	q5 map[string]float64
	q6 []string
	q7 float64
	q8 map[string]float64
}

// engineResults runs the battery against a loaded Table 1 engine, mapping
// station ids to names via generation order (ids[i] is data.Stations[i]).
func engineResults(t *testing.T, data *dataset.BikeData, e ttdb.Querier, ids []ttdb.StationID) qResults {
	t.Helper()
	names := make(map[ttdb.StationID]string, len(ids))
	for i, id := range ids {
		names[id] = data.Stations[i].Name
	}
	// byName keys an answer's rows by station name (Q4, Q8) or district (Q5).
	byName := func(r ttdb.Result) map[string]float64 {
		out := make(map[string]float64, len(r.Vals))
		for i, v := range r.Vals {
			if r.Names != nil {
				out[r.Names[i]] = v
			} else {
				out[names[r.IDs[i]]] = v
			}
		}
		return out
	}
	var res [8]ttdb.Result
	for i, q := range data.Table1Queries(ids) {
		var err error
		if res[i], err = e.Exec(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
	}
	var r qResults
	r.q1 = res[0].Points
	r.q2 = res[1].Points
	r.q3 = res[2].Scalar
	r.q4 = byName(res[3])
	r.q5 = byName(res[4])
	for _, id := range res[5].IDs {
		r.q6 = append(r.q6, names[id])
	}
	r.q7 = res[6].Scalar
	r.q8 = byName(res[7])
	return r
}

// hyqlResults runs the battery through the HyQL surface over the HyGraph
// built from the same dataset, querying "as of" the window end.
func hyqlResults(t *testing.T, data *dataset.BikeData) qResults {
	t.Helper()
	h, _ := data.ToHyGraph()
	return hyqlResultsOn(t, data, hyql.NewEngine(h))
}

// storeEngine is the HyQL engine a served tenant runs: structure from the
// stores, every series a handle onto them.
func storeEngine(structure *lpg.Graph) *hyql.Engine {
	return hyql.NewEngine(fixed{structure})
}

// storeView lays one polyglot engine's stations (loaded in dataset order as
// ids) and the dataset's trips out as the graph HyQL matches against, each
// station's series a handle onto the engine's hypertable.
func storeView(p *ttdb.Polyglot, data *dataset.BikeData, ids []ttdb.StationID) *lpg.Graph {
	stations := make([]ttdb.ViewStation, len(ids))
	for i, st := range data.Stations {
		stations[i] = ttdb.ViewStation{Name: st.Name, District: st.District, Series: p.Series(ids[i])}
	}
	trips := make([]ttdb.ViewTrip, len(data.Trips))
	for i, tr := range data.Trips {
		trips[i] = ttdb.ViewTrip{From: tr.From, To: tr.To, Count: int64(tr.Count)}
	}
	return ttdb.BuildView(stations, trips)
}

// hyqlResultsOn runs the HyQL battery through an explicit engine — the hook
// the store-backed paths use to prove they answer identically to the
// dataset-built graph.
func hyqlResultsOn(t *testing.T, data *dataset.BikeData, eng *hyql.Engine) qResults {
	t.Helper()
	start, end := data.Span()
	qStart := start + (end-start)/4
	qEnd := qStart + (end-start)/2
	at := qEnd
	name0 := data.Stations[0].Name
	name1 := data.Stations[len(data.Stations)/2].Name

	run := func(src string) *hyql.Result {
		t.Helper()
		res, err := eng.Query(src, at)
		if err != nil {
			t.Fatalf("hyql %q: %v", src, err)
		}
		return res
	}
	one := func(src string) hyql.Value {
		t.Helper()
		res := run(src)
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("hyql %q: want 1x1 result, got %dx%d", src, len(res.Rows), len(res.Columns))
		}
		return res.Rows[0][0]
	}
	points := func(v hyql.Value) []ts.Point {
		t.Helper()
		var pts []ts.Point
		for _, pv := range v.List() {
			pair := pv.List()
			if len(pair) != 2 {
				t.Fatalf("point pair has %d elements", len(pair))
			}
			ti, ok := pair[0].AsScalar().AsInt()
			if !ok {
				t.Fatalf("point timestamp not an int: %v", pair[0])
			}
			f, ok := pair[1].AsFloat()
			if !ok {
				t.Fatalf("point value not a float: %v", pair[1])
			}
			pts = append(pts, ts.Point{T: ts.Time(ti), V: f})
		}
		return pts
	}
	nameMap := func(res *hyql.Result) map[string]float64 {
		t.Helper()
		out := make(map[string]float64, len(res.Rows))
		for _, row := range res.Rows {
			n, ok := row[0].AsScalar().AsString()
			if !ok {
				t.Fatalf("row key not a string: %v", row[0])
			}
			f, ok := row[1].AsFloat()
			if !ok {
				t.Fatalf("row value not numeric: %v", row[1])
			}
			out[n] = f
		}
		return out
	}

	var r qResults
	r.q1 = points(one(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s'
		 RETURN ts.points(a, %d, %d)`, name0, qStart, qStart+2*ts.Day)))
	r.q2 = points(one(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s'
		 RETURN ts.below(a, %d, %d, 10)`, name0, qStart, qEnd)))
	q3v, ok := one(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s'
		 RETURN ts.mean(a, %d, %d)`, name0, qStart, qEnd)).AsFloat()
	if !ok {
		t.Fatal("Q3 mean not numeric")
	}
	r.q3 = q3v
	r.q4 = nameMap(run(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a)
		 RETURN st.name, ts.mean(a, %d, %d)`, qStart, qEnd)))
	r.q5 = nameMap(run(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a)
		 RETURN st.district, sum(ts.sum(a, %d, %d))`, qStart, qEnd)))
	top := run(fmt.Sprintf(
		`MATCH (st:Station)-[:HAS_SERIES]->(a)
		 RETURN st.name AS name, ts.mean(a, %d, %d) AS m
		 ORDER BY m DESC, name LIMIT 10`, qStart, qEnd))
	for _, row := range top.Rows {
		n, _ := row[0].AsScalar().AsString()
		r.q6 = append(r.q6, n)
	}
	q7v, ok := one(fmt.Sprintf(
		`MATCH (x:Station)-[:HAS_SERIES]->(a), (y:Station)-[:HAS_SERIES]->(b)
		 WHERE x.name = '%s' AND y.name = '%s'
		 RETURN ts.corr(a, b, %d, %d, %d)`, name0, name1, qStart, qEnd, ts.Hour)).AsFloat()
	if !ok {
		t.Fatal("Q7 corr not numeric")
	}
	r.q7 = q7v
	r.q8 = nameMap(run(fmt.Sprintf(
		`MATCH (st:Station)-[:TRIP]-(n:Station)-[:HAS_SERIES]->(a)
		 WHERE st.name = '%s'
		 RETURN DISTINCT n.name, ts.mean(a, %d, %d)`, name0, qStart, qEnd)))
	return r
}

// comparePaths asserts two paths produced element-wise identical answers.
func comparePaths(t *testing.T, label string, want, got qResults) {
	t.Helper()
	cmpPoints := func(q string, a, b []ts.Point) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d vs %d points", label, q, len(a), len(b))
		}
		for i := range a {
			if a[i].T != b[i].T {
				t.Fatalf("%s %s[%d]: time %d vs %d", label, q, i, a[i].T, b[i].T)
			}
			if !diffEq(a[i].V, b[i].V) {
				t.Fatalf("%s %s[%d]: value %v vs %v", label, q, i, a[i].V, b[i].V)
			}
		}
	}
	cmpMap := func(q string, a, b map[string]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d vs %d entries (%v vs %v)", label, q, len(a), len(b), a, b)
		}
		for k, av := range a {
			bv, ok := b[k]
			if !ok {
				t.Fatalf("%s %s: missing key %q", label, q, k)
			}
			if !diffEq(av, bv) {
				t.Fatalf("%s %s[%s]: %v vs %v", label, q, k, av, bv)
			}
		}
	}
	cmpPoints("Q1", want.q1, got.q1)
	cmpPoints("Q2", want.q2, got.q2)
	if !diffEq(want.q3, got.q3) {
		t.Fatalf("%s Q3: %v vs %v", label, want.q3, got.q3)
	}
	cmpMap("Q4", want.q4, got.q4)
	cmpMap("Q5", want.q5, got.q5)
	if len(want.q6) != len(got.q6) {
		t.Fatalf("%s Q6: %v vs %v", label, want.q6, got.q6)
	}
	for i := range want.q6 {
		if want.q6[i] != got.q6[i] {
			t.Fatalf("%s Q6[%d]: %q vs %q (%v vs %v)", label, i, want.q6[i], got.q6[i], want.q6, got.q6)
		}
	}
	if !diffEq(want.q7, got.q7) {
		t.Fatalf("%s Q7: %v vs %v", label, want.q7, got.q7)
	}
	cmpMap("Q8", want.q8, got.q8)
}

func TestDifferentialBattery(t *testing.T) {
	for ci, bike := range diffConfigs {
		bike := bike
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			data := dataset.GenerateBike(bike)
			load := func(e ttdb.Engine) []ttdb.StationID {
				ids, err := data.LoadEngine(e)
				if err != nil {
					t.Fatal(err)
				}
				return ids
			}
			neo := ttdb.NewAllInGraph()
			ref := engineResults(t, data, neo, load(neo))

			seq := ttdb.NewPolyglot(ts.Week)
			idsSeq := load(seq)
			seq.SetWorkers(1)
			comparePaths(t, "ttdb-seq", ref, engineResults(t, data, seq, idsSeq))
			comparePaths(t, "ttdb-seq-hyql", ref, hyqlResultsOn(t, data, storeEngine(storeView(seq, data, idsSeq))))

			// Chunk compression is on by default, so the paths above already
			// run over sealed blocks. Pin the raw layout explicitly.
			raw := ttdb.NewPolyglot(ts.Week)
			raw.T.SetCompress(false)
			idsRaw := load(raw)
			comparePaths(t, "ttdb-raw", ref, engineResults(t, data, raw, idsRaw))
			comparePaths(t, "ttdb-raw-hyql", ref, hyqlResultsOn(t, data, storeEngine(storeView(raw, data, idsRaw))))

			// The durable engine over the same stores: same answers, plus the
			// degraded-mode check every call makes.
			dur := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
			idsDur, err := preload(context.Background(), dur, data.Stations, data.Trips)
			if err != nil {
				t.Fatal(err)
			}
			comparePaths(t, "ttdb-durable", ref, engineResults(t, data, dur, idsDur))

			par := ttdb.NewPolyglot(ts.Week)
			idsPar := load(par)
			par.SetWorkers(4)
			comparePaths(t, "ttdb-par", ref, engineResults(t, data, par, idsPar))

			// Instrumentation attached must not change a single element,
			// and the per-query timers must actually fire.
			reg := obs.New()
			ins := ttdb.NewPolyglot(ts.Week)
			idsIns := load(ins)
			ins.SetWorkers(4)
			ins.Instrument(reg)
			comparePaths(t, "ttdb-instrumented", ref, engineResults(t, data, ins, idsIns))
			snap := reg.Snapshot()
			for op := ttdb.OpQ1; op <= ttdb.OpQ8; op++ {
				name := "ttdb." + strings.ToLower(op.String())
				if st := snap.Durations[name]; st.Count == 0 {
					t.Fatalf("instrumented path: timer %s never fired", name)
				}
			}
			if snap.Counters["tsstore.reads"] == 0 {
				t.Fatal("instrumented path: no store reads recorded")
			}

			comparePaths(t, "hyql", ref, hyqlResults(t, data))

			// Partitioned paths: the scatter-gather coordinator at 1, 2 and 4
			// partitions must be element-wise identical to the oracles, both
			// through the Engine surface and through HyQL over its stores —
			// partition count is an execution detail, never an answer change.
			for _, nparts := range []int{1, 2, 4} {
				co, err := coord.NewMem(nparts, ts.Week)
				if err != nil {
					t.Fatal(err)
				}
				idsCo := load(co)
				label := fmt.Sprintf("coord-%dp", nparts)
				comparePaths(t, label, ref, engineResults(t, data, co, idsCo))
				co.SetWorkers(2)
				comparePaths(t, label+"-par", ref, engineResults(t, data, co, idsCo))
				comparePaths(t, label+"-hyql", ref, hyqlResultsOn(t, data, storeEngine(co.Structure())))
			}
		})
	}
}

// fixed is the Source of a structure graph that never changes, with no ρ.
type fixed struct{ g *lpg.Graph }

func (f fixed) Version() uint64 { return 0 }

func (f fixed) Structure() (*lpg.Graph, []tpg.Interval, []tpg.Interval) { return f.g, nil, nil }
