package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// Store-backed == copy-backed. HyQL over the stores (hyql.View, every series
// a ttdb.StoreSeries handle: summary pushdown, aggregate cache, windowed
// decode) must answer exactly what HyQL over a full decoded copy of the same
// state answers (core.HyGraph, every series a *ts.Series) — for every ts.*
// function in every arity, for the Q1–Q8 and H1–H4 forms and the structural
// clauses around them, on raw and compressed stores, on one engine
// and on 1, 2 and 4 partitions, with NaN samples, empty windows, a station
// without samples and a series that ended before the query instant.

// materialize is the copy-backed path: the structure graph decoded into a
// HyGraph, every handle replaced by all of its samples. A series with no
// samples gets no TS vertex, as a copy built from the stores never had one.
func materialize(t *testing.T, g *lpg.Graph) *core.HyGraph {
	t.Helper()
	h := core.New()
	vids := map[lpg.VertexID]core.VID{}
	g.Vertices(func(v *lpg.Vertex) bool {
		if r, ok := v.Prop(core.SeriesPropKey).AsSeriesRef(); ok {
			all := r.(hyql.Series).Range(math.MinInt64, ts.MaxTime)
			if all.Empty() {
				return true
			}
			s := all.Clone()
			s.SetName(ttdb.Metric)
			id, err := h.AddTSVertexUni(s, v.Labels...)
			if err != nil {
				t.Fatal(err)
			}
			vids[v.ID] = id
			return true
		}
		id, err := h.AddVertex(tpg.Always, v.Labels...)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range v.PropKeys() {
			if k != core.KindPropKey {
				h.SetVertexProp(id, k, v.Prop(k))
			}
		}
		vids[v.ID] = id
		return true
	})
	g.Edges(func(e *lpg.Edge) bool {
		from, okF := vids[e.From]
		to, okT := vids[e.To]
		if !okF || !okT {
			return true
		}
		id, err := h.AddEdge(from, to, e.Label, tpg.Always)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range e.PropKeys() {
			if k != core.KindPropKey {
				h.SetEdgeProp(id, k, e.Prop(k))
			}
		}
		return true
	})
	return h
}

// sameValue compares two HyQL values element-wise: floats at the battery's
// tolerance, everything else exactly. A NaN never reaches a result (ts.*
// renders it as null), so null == null is the NaN == NaN case.
func sameValue(a, b hyql.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case hyql.VList:
		if len(a.List()) != len(b.List()) {
			return false
		}
		for i := range a.List() {
			if !sameValue(a.List()[i], b.List()[i]) {
				return false
			}
		}
		return true
	case hyql.VScalar:
		if a.AsScalar().Kind() != b.AsScalar().Kind() {
			return false
		}
		if a.AsScalar().Kind() == lpg.KindFloat {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			return diffEq(af, bf) || (math.IsNaN(af) && math.IsNaN(bf))
		}
	}
	return a.String() == b.String()
}

// equivWorld is the dataset of the equivalence battery and the instants its
// corpus is built around.
type equivWorld struct {
	data       *dataset.BikeData
	at         ts.Time // query instant: past the end of the short series
	start, end ts.Time // a window with ragged edges around whole week-chunks
	nanAt      ts.Time // start of a window whose first sample is NaN
}

func newEquivWorld() *equivWorld {
	data := dataset.GenerateBike(dataset.BikeConfig{
		Stations: 14, Districts: 3, Days: 21, StepMinutes: 60, TripsPerSt: 3, Seed: 5})
	w := &equivWorld{
		data:  data,
		at:    15 * ts.Day,
		start: 3*ts.Day + 5*ts.Hour,
		end:   17*ts.Day + 7*ts.Hour,
		nanAt: 4 * ts.Day,
	}
	nan := math.NaN()
	// Station 1: NaN as the first sample of a window, at a chunk edge, and
	// inside a chunk the window covers whole.
	for _, at := range []ts.Time{w.nanAt, w.start, 7 * ts.Day, 10*ts.Day + 3*ts.Hour} {
		data.Stations[1].Availability.Upsert(at, nan)
	}
	// Station 3: NaN only deep inside a fully covered chunk.
	data.Stations[3].Availability.Upsert(9*ts.Day, nan)
	// Station 2 stops reporting on day 5: its TS vertex is not valid at `at`.
	data.Stations[2].Availability = data.Stations[2].Availability.Slice(0, 5*ts.Day)
	// Station 4 reported once, on day 1: a one-sample series whose TS
	// vertex is long gone at `at`.
	data.Stations[4].Availability = data.Stations[4].Availability.Slice(ts.Day, ts.Day+ts.Hour)
	return w
}

type equivLoader interface {
	IngestStation(name, district string, s *ts.Series) (ttdb.StationID, error)
	AddTrip(from, to ttdb.StationID, count int) error
	AppendPoint(st ttdb.StationID, t ts.Time, v float64) error
}

func (w *equivWorld) load(t *testing.T, e equivLoader) []ttdb.StationID {
	t.Helper()
	ids := make([]ttdb.StationID, len(w.data.Stations))
	for i, st := range w.data.Stations {
		id, err := e.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, tr := range w.data.Trips {
		if err := e.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// corpus spells the battery's queries. Every ts.* function appears in each of
// its arities, over the ragged window, an empty one and a reversed one.
func (w *equivWorld) corpus() []string {
	name := func(i int) string { return w.data.Stations[i].Name }
	series := `MATCH (st:Station)-[:HAS_SERIES]->(a) `
	pair := fmt.Sprintf(`MATCH (x:Station)-[:HAS_SERIES]->(a), (y:Station)-[:HAS_SERIES]->(b) WHERE x.name = '%s' AND y.name <> x.name `, name(0))
	windows := [][2]ts.Time{
		{w.start, w.end},             // ragged edges around whole chunks
		{w.nanAt, w.nanAt + ts.Day},  // first sample NaN on station 1
		{7 * ts.Day, 14 * ts.Day},    // exactly one chunk
		{w.end, w.end},               // empty
		{w.end, w.start},             // reversed
		{40 * ts.Day, 50 * ts.Day},   // past every sample
		{-3 * ts.Day, 2*ts.Day + 30}, // starts before every sample
	}
	var qs []string
	for _, agg := range []string{"mean", "sum", "min", "max", "count", "std", "median", "first", "last"} {
		qs = append(qs, series+fmt.Sprintf(`RETURN st.name, ts.%s(a)`, agg))
		for _, win := range windows {
			qs = append(qs, series+fmt.Sprintf(`RETURN st.name, ts.%s(a, %d, %d)`, agg, win[0], win[1]))
		}
	}
	qs = append(qs,
		series+`RETURN st.name, ts.slope(a), ts.anomalies(a, 2.0), ts.len(a)`,
		series+fmt.Sprintf(`WHERE st.name = '%s' RETURN ts.points(a)`, name(1)),
		series+fmt.Sprintf(`RETURN st.name, ts.resample(a, %d, 'max')`, ts.Day),
		pair+fmt.Sprintf(`RETURN y.name, ts.corr(a, b, %d)`, 6*ts.Hour),
		pair+fmt.Sprintf(`RETURN y.name, ts.corr(a, b, %d, %d, 0)`, w.start, w.end),
	)
	for _, win := range windows {
		qs = append(qs,
			series+fmt.Sprintf(`RETURN st.name, ts.points(a, %d, %d)`, win[0], win[0]+2*ts.Day),
			series+fmt.Sprintf(`RETURN st.name, ts.below(a, %d, %d, 9.5)`, win[0], win[1]),
			pair+fmt.Sprintf(`RETURN y.name, ts.corr(a, b, %d, %d, %d)`, win[0], win[1], ts.Hour),
			pair+fmt.Sprintf(`RETURN y.name, ts.corr(a, b, %d, %d, %d)`, win[0], win[1], ts.Day),
		)
		for _, agg := range []string{"mean", "min", "count", "std", "median", "last"} {
			qs = append(qs, series+fmt.Sprintf(`RETURN st.name, ts.resample(a, %d, %d, %d, '%s')`,
				win[0], win[1], 6*ts.Hour, agg))
		}
	}
	s, e := w.start, w.end
	qs = append(qs,
		// H1–H4, the served dashboard forms.
		series+fmt.Sprintf(`WHERE st.name = '%s' RETURN ts.mean(a, %d, %d)`, name(0), s, e),
		series+fmt.Sprintf(`RETURN st.district, sum(ts.sum(a, %d, %d))`, s, e),
		series+fmt.Sprintf(`RETURN st.name AS name, ts.mean(a, %d, %d) AS m ORDER BY m DESC, name LIMIT 10`, s, e),
		fmt.Sprintf(`MATCH (st:Station)-[:TRIP]-(n:Station)-[:HAS_SERIES]->(a) WHERE st.name = '%s' RETURN DISTINCT n.name, ts.mean(a, %d, %d)`, name(0), s, e),
		// A ts.* predicate pushed into the matcher, and one left to WHERE.
		series+fmt.Sprintf(`WHERE ts.max(a, %d, %d) > 12 RETURN st.name`, s, e),
		fmt.Sprintf(`MATCH (x:Station)-[:HAS_SERIES]->(a), (x)-[t:TRIP]->(y:Station)-[:HAS_SERIES]->(b) WHERE ts.mean(a, %d, %d) > ts.mean(b, %d, %d) RETURN x.name, y.name, t.count`, s, e, s, e),
		// Structure: ids after hidden vertices are renumbered, labels, kinds,
		// edge properties, variable-length paths, WITH and aggregates.
		`MATCH (st:Station)-[h:HAS_SERIES]->(a) RETURN id(st), id(a), id(h), label(a), a._kind, st._kind`,
		`MATCH (n) RETURN id(n), label(n)`,
		`MATCH (st:Station) RETURN st.name, st.district`,
		`MATCH (a:Availability) RETURN count(*)`,
		`MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN a.name, b.name, t.count, id(t)`,
		fmt.Sprintf(`MATCH (a:Station)-[p:TRIP*1..2]->(b:Station) WHERE a.name = '%s' RETURN DISTINCT b.name, length(p)`, name(0)),
		fmt.Sprintf(`MATCH (a:Station)-[*1..2]-(x) WHERE a.name = '%s' RETURN DISTINCT id(x)`, name(2)),
		series+fmt.Sprintf(`WITH st.district AS d, collect(ts.mean(a, %d, %d)) AS ms WHERE length(ms) > 1 RETURN d, length(ms), ms`, s, e),
		series+fmt.Sprintf(`RETURN st.district, count(*), avg(ts.mean(a, %d, %d)), min(ts.min(a)), max(ts.last(a))`, s, e),
	)
	return qs
}

// compareEngines runs the corpus through both engines at the world's instant.
func (w *equivWorld) compareEngines(t *testing.T, label string, store, copied *hyql.Engine) {
	t.Helper()
	for _, q := range w.corpus() {
		want, err := copied.Query(q, w.at)
		if err != nil {
			t.Fatalf("%s copy-backed %q: %v", label, q, err)
		}
		got, err := store.Query(q, w.at)
		if err != nil {
			t.Fatalf("%s store-backed %q: %v", label, q, err)
		}
		if len(got.Rows) != len(want.Rows) || fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
			t.Fatalf("%s %q: %d rows %v, want %d rows %v", label, q, len(got.Rows), got.Columns, len(want.Rows), want.Columns)
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if !sameValue(got.Rows[i][j], want.Rows[i][j]) {
					t.Fatalf("%s %q row %d col %d: store %v, copy %v", label, q, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
	}
}

func TestHyQLStoreBackedEqualsCopyBacked(t *testing.T) {
	w := newEquivWorld()
	variants := []struct {
		name     string
		compress bool
	}{
		{"raw", false},
		{"compressed", true},
	}
	for _, v := range variants {
		v := v
		// newPart builds one partition in the variant's layout and records
		// its engine, so check can ask every store whether it degraded.
		newPart := func(engines *[]*ttdb.Polyglot) *ttdb.DurablePolyglot {
			d := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
			d.Engine().T.SetCompress(v.compress)
			*engines = append(*engines, d.Engine())
			return d
		}
		// check compares the engine over a structure built once, before the
		// appends, with a copy decoded after each step: the view must follow
		// the stores without being rebuilt.
		check := func(t *testing.T, e interface {
			AppendPoint(st ttdb.StationID, t ts.Time, v float64) error
		}, ids []ttdb.StationID, engines []*ttdb.Polyglot, structure func() *lpg.Graph) {
			store := storeEngine(structure())
			w.compareEngines(t, "loaded", store, hyql.NewEngine(materialize(t, structure())))

			// Appends: station 2 reports again (its vertex becomes valid at
			// the instant), so does station 4 after its one sample, station 0
			// gains a tail sample and a NaN, station 5 has a sample upserted.
			for _, a := range []struct {
				st int
				at ts.Time
				v  float64
			}{
				{2, 16 * ts.Day, 7.5}, {4, 14 * ts.Day, 3}, {4, 16 * ts.Day, 4.25},
				{0, 21*ts.Day + ts.Hour, 11}, {0, 12 * ts.Day, math.NaN()}, {5, 8 * ts.Day, -2},
			} {
				if err := e.AppendPoint(ids[a.st], a.at, a.v); err != nil {
					t.Fatal(err)
				}
			}
			w.compareEngines(t, "appended", store, hyql.NewEngine(materialize(t, structure())))
			for _, p := range engines {
				if err := p.T.Err(); err != nil {
					t.Fatalf("store degraded: %v", err)
				}
			}
		}
		// One engine's stores laid out by BuildView, as the coordinator lays
		// out each partition's.
		t.Run(v.name+"/engine", func(t *testing.T) {
			var engines []*ttdb.Polyglot
			d := newPart(&engines)
			ids, err := preload(context.Background(), d, w.data.Stations, w.data.Trips)
			if err != nil {
				t.Fatal(err)
			}
			check(t, d, ids, engines, func() *lpg.Graph { return storeView(d.Engine(), w.data, ids) })
		})
		for _, n := range []int{1, 2, 4} {
			n := n
			t.Run(fmt.Sprintf("%s/coord-%dp", v.name, n), func(t *testing.T) {
				var engines []*ttdb.Polyglot
				c, err := coord.New(n, func(int) (*ttdb.DurablePolyglot, error) { return newPart(&engines), nil })
				if err != nil {
					t.Fatal(err)
				}
				ids := w.load(t, c)
				check(t, c, ids, engines, c.Structure)
			})
		}
	}
}
