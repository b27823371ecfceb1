package lpg

import (
	"slices"
	"testing"
	"testing/quick"

	"hygraph/internal/ts"
)

func TestAddAndLookup(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("User")
	b := g.AddVertex("Merchant", "Shop")
	e := g.AddEdge(a, b, "TX")
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts %d/%d", g.NumVertices(), g.NumEdges())
	}
	if v := g.Vertex(a); v == nil || !slices.Contains(v.Labels, "User") {
		t.Fatal("vertex a lookup")
	}
	if v := g.Vertex(b); !slices.Contains(v.Labels, "Shop") || slices.Contains(v.Labels, "User") {
		t.Fatal("multi-label lookup")
	}
	if ed := g.Edge(e); ed == nil || ed.From != a || ed.To != b || ed.Label != "TX" {
		t.Fatal("edge lookup")
	}
	if g.Vertex(99) != nil || g.Edge(99) != nil || g.Vertex(-1) != nil {
		t.Fatal("out-of-range lookups must be nil")
	}
}

func TestProperties(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("User")
	g.SetVertexProp(a, "name", Str("alice"))
	g.SetVertexProp(a, "age", Int(30))
	if got := g.Vertex(a).Prop("name"); got != Str("alice") {
		t.Fatalf("name=%v", got)
	}
	if got := g.Vertex(a).Prop("missing"); !got.IsNull() {
		t.Fatalf("missing=%v", got)
	}
	keys := g.Vertex(a).PropKeys()
	if len(keys) != 2 || keys[0] != "age" || keys[1] != "name" {
		t.Fatalf("keys=%v", keys)
	}
	e := g.AddEdge(a, g.AddVertex("M"), "TX")
	g.SetEdgeProp(e, "amount", Float(99.5))
	if f, ok := g.Edge(e).Prop("amount").AsFloat(); !ok || f != 99.5 {
		t.Fatal("edge prop")
	}
}

func TestSeriesProperty(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("Station")
	s := ts.FromSamples("avail", 0, 10, []float64{5, 6, 7})
	g.SetVertexProp(a, "availability", SeriesVal(s))
	got, ok := g.Vertex(a).Prop("availability").AsSeries()
	if !ok || got.Len() != 3 {
		t.Fatal("series property round trip")
	}
	if !g.Vertex(a).Prop("availability").IsSeries() {
		t.Fatal("IsSeries")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewGraph()
	a, b := g.AddVertex("A"), g.AddVertex("B")
	e := g.AddEdge(a, b, "r")
	if !g.RemoveEdge(e) {
		t.Fatal("remove existing")
	}
	if g.RemoveEdge(e) {
		t.Fatal("double remove")
	}
	if g.NumEdges() != 0 || g.OutDegree(a) != 0 || g.InDegree(b) != 0 {
		t.Fatal("edge removal did not clean adjacency")
	}
}

func TestRemoveVertexCascades(t *testing.T) {
	g := NewGraph()
	a, b, c := g.AddVertex("A"), g.AddVertex("B"), g.AddVertex("C")
	g.AddEdge(a, b, "r")
	g.AddEdge(b, c, "r")
	g.AddEdge(c, a, "r")
	if !g.RemoveVertex(b) {
		t.Fatal("remove")
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("after cascade: %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.Vertex(b) != nil {
		t.Fatal("removed vertex still visible")
	}
	// Label index must skip the dead vertex.
	if ids := g.VerticesByLabel("B"); len(ids) != 0 {
		t.Fatalf("label index leaked: %v", ids)
	}
	// Remaining edge is c->a.
	es := g.OutEdges(c)
	if len(es) != 1 || es[0].To != a {
		t.Fatalf("remaining edges wrong: %v", es)
	}
}

func TestNeighborsAndDegrees(t *testing.T) {
	g := NewGraph()
	a, b, c := g.AddVertex("A"), g.AddVertex("B"), g.AddVertex("C")
	g.AddEdge(a, b, "r")
	g.AddEdge(c, a, "r")
	g.AddEdge(a, b, "r2") // parallel edge
	if g.OutDegree(a) != 2 || g.InDegree(a) != 1 || g.Degree(a) != 3 {
		t.Fatalf("degrees: %d/%d", g.OutDegree(a), g.InDegree(a))
	}
	nbrs := g.Neighbors(a)
	if len(nbrs) != 2 || nbrs[0] != b || nbrs[1] != c {
		t.Fatalf("neighbors=%v", nbrs)
	}
}

func TestLabelIndex(t *testing.T) {
	g := NewGraph()
	var users []VertexID
	for i := 0; i < 5; i++ {
		users = append(users, g.AddVertex("User"))
		g.AddVertex("Merchant")
	}
	got := g.VerticesByLabel("User")
	if len(got) != 5 {
		t.Fatalf("by label: %v", got)
	}
	for i := range got {
		if got[i] != users[i] {
			t.Fatalf("order: %v vs %v", got, users)
		}
	}
	if got := g.VerticesByLabel("Nope"); len(got) != 0 {
		t.Fatal("unknown label")
	}
}

func TestIterationStops(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.AddVertex("V")
	}
	count := 0
	g.Vertices(func(v *Vertex) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Property: after any interleaving of adds/removes, adjacency is consistent:
// every live edge appears in its endpoints' out/in lists exactly once and
// points at live vertices.
func TestQuickAdjacencyConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		g := NewGraph()
		var vs []VertexID
		var es []EdgeID
		for _, op := range ops {
			switch op % 4 {
			case 0:
				vs = append(vs, g.AddVertex("V"))
			case 1:
				if len(vs) >= 2 {
					from := vs[int(op)%len(vs)]
					to := vs[int(op/2)%len(vs)]
					if g.Vertex(from) != nil && g.Vertex(to) != nil {
						es = append(es, g.AddEdge(from, to, "r"))
					}
				}
			case 2:
				if len(es) > 0 {
					g.RemoveEdge(es[int(op)%len(es)])
				}
			case 3:
				if len(vs) > 0 {
					g.RemoveVertex(vs[int(op)%len(vs)])
				}
			}
		}
		ok := true
		g.Edges(func(e *Edge) bool {
			if g.Vertex(e.From) == nil || g.Vertex(e.To) == nil {
				ok = false
				return false
			}
			found := 0
			for _, oe := range g.OutEdges(e.From) {
				if oe.ID == e.ID {
					found++
				}
			}
			for _, ie := range g.InEdges(e.To) {
				if ie.ID == e.ID {
					found++
				}
			}
			if found != 2 {
				ok = false
				return false
			}
			return true
		})
		// Count consistency.
		live := 0
		g.Edges(func(*Edge) bool { live++; return true })
		if len(g.VertexIDs()) != g.NumVertices() || live != g.NumEdges() {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
