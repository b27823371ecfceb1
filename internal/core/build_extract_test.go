package core

import (
	"math/rand"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// lpgEdges counts an lpg graph's edges through Edges.
func lpgEdges(g *lpg.Graph) int {
	n := 0
	g.Edges(func(*lpg.Edge) bool { n++; return true })
	return n
}

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
	if lpgEdges(view.Graph) != 5 {
		t.Fatalf("view edges=%d", lpgEdges(view.Graph))
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

// degreeSeries runs DegreeEvolution and returns the series it stored on v.
func degreeSeries(t *testing.T, h *HyGraph, v VID, start, end, step ts.Time) (*ts.Series, bool) {
	t.Helper()
	if err := h.DegreeEvolution(start, end, step); err != nil {
		t.Fatal(err)
	}
	return h.Vertex(v).Prop("degree_evolution").AsSeries()
}

func TestDegreeEvolution(t *testing.T) {
	// b's degree: 0 before edge, 1 during [10,20), 0 after.
	h := New()
	a, _ := h.AddVertex(tpg.Always, "V")
	b, _ := h.AddVertex(tpg.Always, "V")
	h.AddEdge(a, b, "e", tpg.Between(10, 20))
	sb, ok := degreeSeries(t, h, b, 0, 30, 5)
	if !ok || sb.Len() != 6 {
		t.Fatalf("b evolution=%v", sb)
	}
	wants := []float64{0, 0, 1, 1, 0, 0} // t=0,5,10,15,20,25
	for i, w := range wants {
		if sb.ValueAt(i) != w {
			t.Fatalf("degree(b) at t=%d is %v want %v", 5*i, sb.ValueAt(i), w)
		}
	}
}

func TestDegreeEvolutionRespectsVertexValidity(t *testing.T) {
	h := New()
	a, _ := h.AddVertex(tpg.Between(10, 20), "V")
	sa, ok := degreeSeries(t, h, a, 0, 30, 5)
	if !ok {
		t.Fatal("no series for a")
	}
	// Samples only at t=10,15.
	if sa.Len() != 2 || sa.TimeAt(0) != 10 || sa.TimeAt(1) != 15 {
		t.Fatalf("a sampled at %v", sa.Times())
	}
}

func TestMetricEvolutionDegenerate(t *testing.T) {
	h := New()
	a, _ := h.AddVertex(tpg.Always, "V")
	if _, ok := degreeSeries(t, h, a, 100, 100, 10); ok {
		t.Fatal("empty window")
	}
	if _, ok := degreeSeries(t, h, a, 0, 100, 0); ok {
		t.Fatal("zero step")
	}
}

// companyStory is the paper's company lifecycle example as a temporal graph
// imported into an instance: company C is founded at t=0, listed on an
// exchange during [100, 300), acquired by D at t=300 (edge from then on),
// and D goes bankrupt (ends) at t=500.
func companyStory(t *testing.T) *HyGraph {
	t.Helper()
	g := tpg.NewGraph()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := g.AddVertex(tpg.From(0), "Company")
	must(err)
	must(g.SetVertexProp(c, "name", lpg.Str("C")))
	x, err := g.AddVertex(tpg.From(0), "Exchange")
	must(err)
	d, err := g.AddVertex(tpg.Between(0, 500), "Company")
	must(err)
	must(g.SetVertexProp(d, "name", lpg.Str("D")))
	_, err = g.AddEdge(c, x, "LISTED_ON", tpg.Between(100, 300))
	must(err)
	_, err = g.AddEdge(d, c, "ACQUIRED", tpg.From(300))
	must(err)
	h, _ := FromTPG(g)
	return h
}

func TestSnapshots(t *testing.T) {
	h := companyStory(t)
	// t=50: C, X, D alive; no edges.
	s := h.SnapshotAt(50)
	if s.Graph.NumVertices() != 3 || lpgEdges(s.Graph) != 0 {
		t.Fatalf("t=50: %v", s.Graph)
	}
	// t=150: LISTED_ON active.
	s = h.SnapshotAt(150)
	if lpgEdges(s.Graph) != 1 {
		t.Fatalf("t=150 edges=%d", lpgEdges(s.Graph))
	}
	// t=350: ACQUIRED active, LISTED_ON gone.
	s = h.SnapshotAt(350)
	if lpgEdges(s.Graph) != 1 {
		t.Fatalf("t=350 edges=%d", lpgEdges(s.Graph))
	}
	var label string
	s.Graph.Edges(func(e *lpg.Edge) bool { label = e.Label; return true })
	if label != "ACQUIRED" {
		t.Fatalf("t=350 edge=%s", label)
	}
	// t=550: D dead, and the ACQUIRED edge, clipped to [300, 500) by D's
	// validity, with it: no edges, 2 vertices.
	s = h.SnapshotAt(550)
	if s.Graph.NumVertices() != 2 || lpgEdges(s.Graph) != 0 {
		t.Fatalf("t=550: %v", s.Graph)
	}
	// Properties survive into snapshots, and mappings are consistent.
	s = h.SnapshotAt(150)
	for hv, sv := range s.VertexOf {
		if s.HyV[sv] != hv {
			t.Fatal("vertex mapping not bijective")
		}
	}
	foundC := false
	s.Graph.Vertices(func(v *lpg.Vertex) bool {
		if v.Prop("name").String() == "C" {
			foundC = true
		}
		return true
	})
	if !foundC {
		t.Fatal("property lost in snapshot")
	}
}

func TestSnapshotSubsetInvariant(t *testing.T) {
	// Every snapshot is a subgraph of the instance: counts match the
	// elements valid at that instant.
	h := companyStory(t)
	for _, at := range []ts.Time{0, 99, 100, 299, 300, 499, 500, 1000} {
		s := h.SnapshotAt(at)
		v, e := 0, 0
		h.Vertices(func(x *Vertex) bool {
			if x.Valid.Contains(at) {
				v++
			}
			return true
		})
		h.Edges(func(x *Edge) bool {
			if x.Valid.Contains(at) {
				e++
			}
			return true
		})
		if s.Graph.NumVertices() != v || lpgEdges(s.Graph) != e {
			t.Fatalf("t=%d snapshot %v vs active %d/%d", at, s.Graph, v, e)
		}
	}
}
