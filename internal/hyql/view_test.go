package hyql

import (
	"fmt"
	"strings"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// dumpGraph spells a graph's ids, labels, scalar properties and endpoints.
func dumpGraph(g *lpg.Graph) string {
	var b strings.Builder
	props := func(keys []string, get func(string) lpg.Value) {
		for _, k := range keys {
			if k != "_series" {
				fmt.Fprintf(&b, " %s=%s", k, get(k))
			}
		}
		b.WriteByte('\n')
	}
	g.Vertices(func(v *lpg.Vertex) bool {
		fmt.Fprintf(&b, "v%d %v", v.ID, v.Labels)
		props(v.PropKeys(), v.Prop)
		return true
	})
	g.Edges(func(e *lpg.Edge) bool {
		fmt.Fprintf(&b, "e%d %s %d->%d", e.ID, e.Label, e.From, e.To)
		props(e.PropKeys(), e.Prop)
		return true
	})
	return b.String()
}

// sensorSeries is one two-sample series per hub, each with a span of its own.
func sensorSeries() []*ts.Series {
	var out []*ts.Series
	for i, sp := range [][2]ts.Time{{0, 100}, {50, 60}, {80, 200}} {
		s := ts.New("reading")
		s.MustAppend(sp[0], float64(i))
		s.MustAppend(sp[1], float64(i)+1)
		out = append(out, s)
	}
	return out
}

// sensorHyGraph is a ring of hubs, each with its sensor series as a TS
// vertex; the instance copies the samples it is given.
func sensorHyGraph(t *testing.T, series []*ts.Series) *core.HyGraph {
	t.Helper()
	h := core.New()
	var hubs []core.VID
	for i, s := range series {
		hub, _ := h.AddVertex(tpg.Always, "Hub")
		h.SetVertexProp(hub, "name", lpg.Str(fmt.Sprintf("h%d", i)))
		sensor, err := h.AddTSVertexUni(s, "Sensor")
		if err != nil {
			t.Fatal(err)
		}
		h.AddEdge(hub, sensor, "HAS", tpg.Always)
		hubs = append(hubs, hub)
	}
	for i := range hubs {
		h.AddEdge(hubs[i], hubs[(i+1)%len(hubs)], "LINK", tpg.Always)
	}
	return h
}

// sensorStructure is the same ring as the structure graph a View wraps: the
// series are held by reference, so appends to them show through.
func sensorStructure(series []*ts.Series) *lpg.Graph {
	g := lpg.NewGraph()
	pg := lpg.Str("pg")
	var hubs []lpg.VertexID
	for i, s := range series {
		hub := g.AddVertex("Hub")
		g.SetVertexProp(hub, "name", lpg.Str(fmt.Sprintf("h%d", i)))
		g.SetVertexProp(hub, core.KindPropKey, pg)
		sensor := g.AddVertex("Sensor")
		g.SetVertexProp(sensor, core.KindPropKey, lpg.Str("ts"))
		g.SetVertexProp(sensor, "_series", lpg.SeriesRef(&refSeries{memSeries{s}}))
		g.SetEdgeProp(g.AddEdge(hub, sensor, "HAS"), core.KindPropKey, pg)
		hubs = append(hubs, hub)
	}
	for i := range hubs {
		g.SetEdgeProp(g.AddEdge(hubs[i], hubs[(i+1)%len(hubs)], "LINK"), core.KindPropKey, pg)
	}
	return g
}

// TestViewSnapshotMatchesHyGraph: at every instant the View projects exactly
// the graph HyGraph.SnapshotAt does — same survivors, same dense ids — and
// keeps doing so as the series behind it grow, without being rebuilt.
func TestViewSnapshotMatchesHyGraph(t *testing.T) {
	series := sensorSeries()
	view := NewView(sensorStructure(series), nil, nil)
	check := func(label string) {
		t.Helper()
		h := sensorHyGraph(t, series)
		for _, at := range []ts.Time{0, 49, 50, 55, 60, 61, 90, 100, 101, 150, 200, 201} {
			want := dumpGraph(h.SnapshotAt(at).Graph)
			if got := dumpGraph(view.GraphAt(at)); got != want {
				t.Fatalf("%s at %d:\n got\n%s\nwant\n%s", label, at, got, want)
			}
		}
	}
	check("built")
	// The middle series is carried past 60, the first past 100: vertices
	// invisible at 90 and 150 become visible there.
	series[1].MustAppend(95, 7)
	series[0].MustAppend(160, 7)
	check("appended")
}

// TestViewSharesStructureWhenNothingIsHidden pins the two memo properties
// the served path's latency rests on: with every series covering the
// instant the structure graph itself is handed out, and a projection that
// hides something is built once per hidden set, not once per query.
func TestViewSharesStructureWhenNothingIsHidden(t *testing.T) {
	series := sensorSeries()
	g := sensorStructure(series)
	view := NewView(g, nil, nil)
	if view.GraphAt(90) == g {
		t.Fatal("at 90 the middle series is over; its vertex must be hidden")
	}
	first := view.GraphAt(90)
	if again := view.GraphAt(95); again != first {
		t.Fatal("same hidden set at 90 and 95, yet the projection was rebuilt")
	}
	if other := view.GraphAt(150); other == first {
		t.Fatal("a different hidden set reused the projection")
	}
	series[1].MustAppend(120, 1)
	if view.GraphAt(90) != g {
		t.Fatal("every series covers 90 now; the structure graph itself should be returned")
	}
}

// TestViewValidityMemoMatchesFreshView pins the memo GraphAt keeps of the
// instants at which it last saw every series valid: it may skip reading
// spans only because a span never narrows between structural writes. After
// an append past a series' last sample, a backfill before its first, and a
// backfill that makes a series starting after the instant cover it, every
// instant projects what a View built afresh over the same series projects.
func TestViewValidityMemoMatchesFreshView(t *testing.T) {
	series := sensorSeries() // spans [0, 100], [50, 60], [80, 200]
	g := sensorStructure(series)
	view := NewView(g, nil, nil)
	reg := obs.New()
	scans := reg.Counter("scans")
	view.scans = scans
	instants := []ts.Time{-10, 0, 40, 55, 70, 90, 100, 150, 200, 250}
	check := func(label string) {
		t.Helper()
		fresh := NewView(g, nil, nil)
		for _, at := range instants {
			if got, want := dumpGraph(view.GraphAt(at)), dumpGraph(fresh.GraphAt(at)); got != want {
				t.Fatalf("%s at %d:\n got\n%s\nwant\n%s", label, at, got, want)
			}
		}
	}
	check("built")
	series[1].MustAppend(120, 1) // past the last sample: [50, 120]
	check("appended")
	// Every series covers [80, 100] now; the memo answers it with no scan.
	view.GraphAt(90)
	before := scans.Value()
	for _, at := range []ts.Time{80, 90, 100} {
		if view.GraphAt(at) != g {
			t.Fatalf("every series covers %d, yet the structure graph was not returned", at)
		}
	}
	if n := scans.Value() - before; n != 0 {
		t.Fatalf("%d span scans inside the memoised interval, want 0", n)
	}
	series[1].Upsert(10, 1) // before the first sample: [10, 120]
	check("backfilled")
	// The third series starts after 70; a backfill makes it cover 70.
	if view.GraphAt(70) == g {
		t.Fatal("at 70 the third series has not started; its vertex must be hidden")
	}
	series[2].Upsert(60, 1)
	check("started earlier")
	if view.GraphAt(70) != g {
		t.Fatal("every series covers 70 after the backfill")
	}
}

// TestSeriesOfRejectsForeignHandles: a reference resolves only when its
// handle is a Series.
func TestSeriesOfRejectsForeignHandles(t *testing.T) {
	if _, ok := seriesOf(lpg.SeriesRef("not a series")); ok {
		t.Fatal("a reference to something that is not a Series resolved")
	}
	h := &refSeries{memSeries{ts.New("s")}}
	if s, ok := seriesOf(lpg.SeriesRef(h)); !ok || s != Series(h) {
		t.Fatal("a reference to a Series did not resolve to it")
	}
}

// fixed is the Source of a structure graph that never changes, with no ρ.
type fixed struct{ g *lpg.Graph }

func (f fixed) Version() uint64 { return 0 }

func (f fixed) Structure() (*lpg.Graph, []tpg.Interval, []tpg.Interval) { return f.g, nil, nil }
