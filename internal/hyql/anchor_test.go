package hyql

import (
	"fmt"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// anchorHub is one hub of anchorWorlds: its name, an optional code property
// and the span of its sensor series.
type anchorHub struct {
	name string
	code lpg.Value
	span [2]ts.Time
}

// anchorHubs carry two equal names and one code each of kind int, string and
// float, all spelling 5.
var anchorHubs = []anchorHub{
	{"h0", lpg.Int(5), [2]ts.Time{0, 100}},
	{"dup", lpg.Str("5"), [2]ts.Time{50, 150}},
	{"dup", lpg.Null, [2]ts.Time{80, 200}},
	{"x", lpg.Float(5), [2]ts.Time{0, 200}},
}

// anchorWorlds builds the hubs twice: as a HyGraph, which holds every
// sample and is never indexed, and as the structure graph a View wraps.
// Each hub has its sensor as a TS vertex behind HAS, and the hubs form a
// LINK ring.
func anchorWorlds(t *testing.T) (*core.HyGraph, *lpg.Graph) {
	t.Helper()
	h, g := core.New(), lpg.NewGraph()
	var hubs []core.VID
	var gHubs []lpg.VertexID
	for i, spec := range anchorHubs {
		s := ts.New("reading")
		s.MustAppend(spec.span[0], float64(10*i))
		s.MustAppend(spec.span[1], float64(10*i+1))
		hub, _ := h.AddVertex(tpg.Always, "Hub")
		gHub := g.AddVertex("Hub")
		for _, p := range []struct {
			key string
			val lpg.Value
		}{{"name", lpg.Str(spec.name)}, {"code", spec.code}} {
			if !p.val.IsNull() {
				h.SetVertexProp(hub, p.key, p.val)
				g.SetVertexProp(gHub, p.key, p.val)
			}
		}
		sensor, err := h.AddTSVertexUni(s, "Sensor")
		if err != nil {
			t.Fatal(err)
		}
		h.AddEdge(hub, sensor, "HAS", tpg.Always)
		gSensor := g.AddVertex("Sensor")
		g.SetVertexProp(gSensor, "_series", lpg.SeriesRef(&refSeries{memSeries{s}}))
		g.AddEdge(gHub, gSensor, "HAS")
		hubs, gHubs = append(hubs, hub), append(gHubs, gHub)
	}
	for i := range hubs {
		h.AddEdge(hubs[i], hubs[(i+1)%len(hubs)], "LINK", tpg.Always)
		g.AddEdge(gHubs[i], gHubs[(i+1)%len(gHubs)], "LINK")
	}
	return h, g
}

// TestAnchoredMatchEqualsScan: a query whose WHERE anchors a vertex on a
// string property answers over a View — which binds that vertex from the
// string index — exactly as the matcher does over an unindexed copy of the
// HyGraph's snapshot, which scans the label, at an
// instant where every TS vertex is valid (90) and at two where some are
// hidden (55, 160), so the index of a projection is exercised too. Only a
// string literal against a labelled vertex anchors.
func TestAnchoredMatchEqualsScan(t *testing.T) {
	h, g := anchorWorlds(t)
	reg := obs.New()
	indexed, scanned := NewEngine(fixed{g}), NewEngine(nil)
	indexed.Instrument(reg)
	for _, c := range []struct {
		q       string
		anchors int64
		at90    string // the rows at 90
	}{
		{`MATCH (h:Hub)-[:HAS]->(s) WHERE h.name = 'nobody' RETURN h.name, ts.first(s)`, 1, "[]"},
		{`MATCH (h:Hub) WHERE h.name = 'nobody' RETURN count(*)`, 1, "[[0]]"},
		{`MATCH (h:Hub)-[:HAS]->(s) WHERE h.name = 'dup' RETURN h.name, ts.first(s)`, 1, "[[dup 10] [dup 20]]"},
		{`MATCH (h:Hub) WHERE 'x' = h.name RETURN h.name`, 1, "[[x]]"},
		{`MATCH (h:Hub) WHERE h.code = '5' RETURN h.name`, 1, "[[dup]]"},
		{`MATCH (h:Hub) WHERE h.code = 5 RETURN h.name`, 0, "[[h0] [x]]"},
		{`MATCH (h)-[:HAS]->(s) WHERE h.name = 'dup' RETURN h.name, ts.first(s)`, 0, "[[dup 10] [dup 20]]"},
		{`MATCH (h:Hub)-[:HAS]->(s) WHERE h.name = 'dup' AND ts.max(s) > 15 RETURN ts.first(s)`, 1, "[[20]]"},
		{`MATCH (h:Hub) WHERE h.name = 'dup' AND h.code = '5' RETURN h.name`, 1, "[[dup]]"},
		{`MATCH (h:Hub)-[:LINK]->(n:Hub)-[:HAS]->(s) WHERE n.name = 'dup' AND h.name <> 'x'
			RETURN h.name, ts.last(s)`, 1, "[[h0 11] [dup 21]]"},
	} {
		for _, at := range []ts.Time{90, 55, 160} {
			before := reg.Snapshot().Counters["hyql.match.anchored"]
			got, err := indexed.Query(c.q, at)
			if err != nil {
				t.Fatalf("%q at %d: %v", c.q, at, err)
			}
			if n := reg.Snapshot().Counters["hyql.match.anchored"] - before; n != c.anchors {
				t.Fatalf("%q at %d anchored %d vertices, want %d", c.q, at, n, c.anchors)
			}
			q, err := Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scanned.exec(q, h.SnapshotAt(at).Graph)
			if err != nil {
				t.Fatalf("%q at %d over the HyGraph: %v", c.q, at, err)
			}
			if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
				t.Fatalf("%q at %d: View %s, HyGraph %s", c.q, at, g, w)
			}
			if at == 90 && fmt.Sprint(got.Rows) != c.at90 {
				t.Fatalf("%q at 90: %s, want %s", c.q, got.Rows, c.at90)
			}
		}
	}
}
