package core

import (
	"math/rand"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// randomTPG builds a random temporal graph for round-trip testing.
func randomTPG(seed int64, n int) *tpg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := tpg.NewGraph()
	ids := make([]tpg.VID, n)
	for i := range ids {
		start := ts.Time(rng.Intn(100))
		end := start + ts.Time(1+rng.Intn(1000))
		if rng.Intn(3) == 0 {
			end = ts.MaxTime
		}
		ids[i], _ = g.AddVertex(tpg.Between(start, end), []string{"A", "B", "C"}[rng.Intn(3)]) // start <= end: never fails
		g.SetVertexProp(ids[i], "w", lpg.Float(rng.Float64()))
	}
	for e := 0; e < n*2; e++ {
		f := ids[rng.Intn(n)]
		t := ids[rng.Intn(n)]
		iv := tpg.Between(ts.Time(rng.Intn(200)), ts.Time(200+rng.Intn(500)))
		if id, err := g.AddEdge(f, t, "r", iv); err == nil {
			g.SetEdgeProp(id, "x", lpg.Int(int64(rng.Intn(10))))
		}
	}
	return g
}

// TestTPGRoundTrip checks R1 (expressiveness): FromTPG followed by ToTPG
// preserves every element, label, interval and property.
func TestTPGRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomTPG(seed, 20)
		h, _ := FromTPG(g)
		back, _ := h.ToTPG()
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: counts %d/%d vs %d/%d", seed,
				back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		// FromTPG/ToTPG preserve insertion order, so ids correspond 1:1.
		g.Vertices(func(v *tpg.Vertex) bool {
			bv := back.Vertex(tpg.VID(v.ID))
			if bv.Valid != v.Valid {
				t.Fatalf("vertex %d interval %v vs %v", v.ID, bv.Valid, v.Valid)
			}
			if len(bv.Labels) != len(v.Labels) || bv.Labels[0] != v.Labels[0] {
				t.Fatalf("vertex %d labels", v.ID)
			}
			if bv.Prop("w") != v.Prop("w") {
				t.Fatalf("vertex %d prop", v.ID)
			}
			return true
		})
		g.Edges(func(e *tpg.Edge) bool {
			be := back.Edge(tpg.EID(e.ID))
			if be.Valid != e.Valid || be.Label != e.Label || be.From != e.From || be.To != e.To {
				t.Fatalf("edge %d mismatch", e.ID)
			}
			if be.Prop("x") != e.Prop("x") {
				t.Fatalf("edge %d prop", e.ID)
			}
			return true
		})
	}
}

func TestSnapshotAtMixedKinds(t *testing.T) {
	h, ids := fraudInstance(t)
	view := h.SnapshotAt(10 * ts.Hour)
	// All 6 vertices valid at 10h (series span 0..99h).
	if view.Graph.NumVertices() != 6 {
		t.Fatalf("view vertices=%d", view.Graph.NumVertices())
	}
	if view.Graph.NumEdges() != 5 {
		t.Fatalf("view edges=%d", view.Graph.NumEdges())
	}
	// TS vertex carries its series and kind marker.
	sid := view.VertexOf[ids["c1"]]
	v := view.Graph.Vertex(sid)
	if v.Prop(KindPropKey).String() != "ts" {
		t.Fatal("kind marker")
	}
	if _, ok := v.Prop(SeriesPropKey).AsMulti(); !ok {
		t.Fatal("series not attached in view")
	}
	// After the series end, TS elements vanish.
	view = h.SnapshotAt(5000 * ts.Hour)
	tsCount := 0
	view.Graph.Vertices(func(v *lpg.Vertex) bool {
		if v.Prop(KindPropKey).String() == "ts" {
			tsCount++
		}
		return true
	})
	if tsCount != 0 {
		t.Fatalf("expired TS vertices visible: %d", tsCount)
	}
	// Mapping consistency.
	view = h.SnapshotAt(10 * ts.Hour)
	for hv, sv := range view.VertexOf {
		if view.HyV[sv] != hv {
			t.Fatal("mapping not bijective")
		}
	}
}

func TestExtractSeries(t *testing.T) {
	h := New()
	for i := 0; i < 3; i++ {
		v, _ := h.AddVertex(tpg.Between(0, 100), "Station")
		h.SetVertexProp(v, "capacity", lpg.Int(int64(10*(i+1))))
	}
	// One station appears later.
	v, _ := h.AddVertex(tpg.Between(50, 100), "Station")
	h.SetVertexProp(v, "capacity", lpg.Int(100))
	s := h.ExtractSeries("Station", "capacity", ts.AggSum, 0, 100, 25)
	want := []float64{60, 60, 160, 160} // t=0,25,50,75
	if s.Len() != 4 {
		t.Fatalf("len=%d", s.Len())
	}
	for i, w := range want {
		if s.ValueAt(i) != w {
			t.Fatalf("extract[%d]=%v want %v", i, s.ValueAt(i), w)
		}
	}
	if got := h.ExtractSeries("Station", "capacity", ts.AggSum, 0, 100, 0); got.Len() != 0 {
		t.Fatal("zero step")
	}
}

func TestDegreeEvolutionStoresSeriesProp(t *testing.T) {
	h := New()
	a, _ := h.AddVertex(tpg.Always, "V")
	b, _ := h.AddVertex(tpg.Always, "V")
	h.AddEdge(a, b, "e", tpg.Between(10, 20))
	if err := h.DegreeEvolution(0, 30, 5); err != nil {
		t.Fatal(err)
	}
	s, ok := h.Vertex(a).Prop("degree_evolution").AsSeries()
	if !ok {
		t.Fatal("no degree_evolution property")
	}
	if v, _ := s.Lookup(15); v != 1 {
		t.Fatalf("degree at 15 = %v", v)
	}
	if v, _ := s.Lookup(25); v != 0 {
		t.Fatalf("degree at 25 = %v", v)
	}
}
