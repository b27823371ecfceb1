package hyql

import (
	"fmt"
	"strings"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
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
	view := NewView(sensorStructure(series))
	check := func(label string) {
		t.Helper()
		h := sensorHyGraph(t, series)
		for _, at := range []ts.Time{0, 49, 50, 55, 60, 61, 90, 100, 101, 150, 200, 201} {
			want := dumpGraph(h.SnapshotAt(at).Graph)
			if got := dumpGraph(view.SnapshotAt(at)); got != want {
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
	view := NewView(g)
	if view.SnapshotAt(90) == g {
		t.Fatal("at 90 the middle series is over; its vertex must be hidden")
	}
	first := view.SnapshotAt(90)
	if again := view.SnapshotAt(95); again != first {
		t.Fatal("same hidden set at 90 and 95, yet the projection was rebuilt")
	}
	if other := view.SnapshotAt(150); other == first {
		t.Fatal("a different hidden set reused the projection")
	}
	series[1].MustAppend(120, 1)
	if view.SnapshotAt(90) != g {
		t.Fatal("every series covers 90 now; the structure graph itself should be returned")
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
