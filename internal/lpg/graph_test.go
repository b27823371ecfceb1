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
	if g.NumVertices() != 2 || numEdges(g) != 1 {
		t.Fatalf("counts %d/%d", g.NumVertices(), numEdges(g))
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

// TestIndexStrings: the string index lists, per (label, key, value), the
// ascending ids of exactly the vertices whose property is that string —
// not one holding another kind with the same text — and an indexed graph
// refuses vertex writes rather than let the index go stale.
func TestIndexStrings(t *testing.T) {
	g := NewGraph()
	for _, v := range []Value{Str("5"), Int(5), Str("5"), Float(5), Str("x")} {
		g.SetVertexProp(g.AddVertex("Hub", "Site"), "code", v)
	}
	if _, ok := g.VerticesByString("Hub", "code", "5"); ok {
		t.Fatal("a graph nobody indexed answered from an index")
	}
	g.IndexStrings()
	for _, label := range []string{"Hub", "Site"} {
		if ids, ok := g.VerticesByString(label, "code", "5"); !ok || !slices.Equal(ids, []VertexID{0, 2}) {
			t.Fatalf("%s code '5': %v %v, want [0 2]", label, ids, ok)
		}
	}
	if ids, _ := g.VerticesByString("Other", "code", "5"); len(ids) != 0 {
		t.Fatalf("a label no vertex carries: %v", ids)
	}
	g.AddEdge(0, 1, "LINK") // edges may still be added
	for name, write := range map[string]func(){
		"AddVertex":     func() { g.AddVertex("Hub") },
		"SetVertexProp": func() { g.SetVertexProp(4, "code", Str("5")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after IndexStrings did not panic", name)
				}
			}()
			write()
		}()
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

// numEdges counts the graph's edges through Edges.
func numEdges(g *Graph) int {
	n := 0
	g.Edges(func(*Edge) bool { n++; return true })
	return n
}

// Property: after any sequence of adds the graph is append-only and
// consistent: vertex ids are exactly 0..NumVertices()-1, every edge's id is
// its position in Edges(), and every edge appears in its endpoints' out/in
// lists exactly once and points at existing vertices.
func TestQuickAdjacencyConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		g := NewGraph()
		var vs []VertexID
		var es []EdgeID
		for _, op := range ops {
			switch op % 2 {
			case 0:
				vs = append(vs, g.AddVertex("V"))
			case 1:
				if len(vs) >= 2 {
					from := vs[int(op)%len(vs)]
					to := vs[int(op/2)%len(vs)]
					es = append(es, g.AddEdge(from, to, "r"))
				}
			}
		}
		ids := g.VertexIDs()
		if len(ids) != g.NumVertices() || len(ids) != len(vs) {
			return false
		}
		for i, id := range ids {
			if id != VertexID(i) || vs[i] != id {
				return false
			}
		}
		ok := true
		pos := 0
		g.Edges(func(e *Edge) bool {
			if e.ID != EdgeID(pos) || es[pos] != e.ID {
				ok = false
				return false
			}
			pos++
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
		return ok && pos == len(es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
