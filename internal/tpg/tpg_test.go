package tpg

import (
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// lpgEdges counts an lpg graph's edges through Edges.
func lpgEdges(g *lpg.Graph) int {
	n := 0
	g.Edges(func(*lpg.Edge) bool { n++; return true })
	return n
}

// MustAddVertex is AddVertex that panics on error.
func (g *Graph) MustAddVertex(valid Interval, labels ...string) VID {
	id, err := g.AddVertex(valid, labels...)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to VID, label string, valid Interval) EID {
	id, err := g.AddEdge(from, to, label, valid)
	if err != nil {
		panic(err)
	}
	return id
}

// companyStory builds the paper's company lifecycle example: company C is
// founded at t=0, listed on an exchange during [100, 300), acquired by D at
// t=300 (edge from then on), and D goes bankrupt (ends) at t=500.
func companyStory(t *testing.T) (*Graph, VID, VID, VID) {
	t.Helper()
	g := NewGraph()
	c := g.MustAddVertex(From(0), "Company")
	if err := g.SetVertexProp(c, "name", lpg.Str("C")); err != nil {
		t.Fatal(err)
	}
	x := g.MustAddVertex(From(0), "Exchange")
	d := g.MustAddVertex(Between(0, 500), "Company")
	if err := g.SetVertexProp(d, "name", lpg.Str("D")); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(c, x, "LISTED_ON", Between(100, 300))
	g.MustAddEdge(d, c, "ACQUIRED", From(300))
	return g, c, x, d
}

func TestAddAndIntervals(t *testing.T) {
	g, c, _, d := companyStory(t)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("counts %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g.Vertex(c).Valid.End != ts.MaxTime {
		t.Fatal("open-ended vertex should end at MaxTime (paper: t_end = max(T))")
	}
	if got := g.Vertex(d).Valid; got != Between(0, 500) {
		t.Fatalf("d validity %v", got)
	}
	if _, err := g.AddVertex(Between(10, 5)); err != ErrBadInterval {
		t.Fatalf("inverted interval: %v", err)
	}
	if g.Vertex(99) != nil || g.Edge(99) != nil {
		t.Fatal("missing lookups")
	}
	if err := g.SetVertexProp(99, "x", lpg.Int(1)); err == nil {
		t.Fatal("prop set on missing vertex accepted")
	}
	if err := g.SetEdgeProp(99, "x", lpg.Int(1)); err == nil {
		t.Fatal("prop set on missing edge accepted")
	}
}

func TestEdgeClippedToEndpoints(t *testing.T) {
	g := NewGraph()
	a := g.MustAddVertex(Between(0, 100), "A")
	b := g.MustAddVertex(Between(50, 200), "B")
	e := g.MustAddEdge(a, b, "r", Always)
	if got := g.Edge(e).Valid; got != Between(50, 100) {
		t.Fatalf("edge clipped to %v", got)
	}
	// Disjoint endpoint validity → error.
	c := g.MustAddVertex(Between(500, 600), "C")
	if _, err := g.AddEdge(a, c, "r", Always); err == nil {
		t.Fatal("edge across disjoint validities accepted")
	}
	// Missing endpoints.
	if _, err := g.AddEdge(a, 99, "r", Always); err == nil {
		t.Fatal("edge to missing vertex accepted")
	}
}

func TestSnapshots(t *testing.T) {
	g, _, _, _ := companyStory(t)
	// t=50: C, X, D alive; no edges.
	s := g.SnapshotAt(50)
	if s.Graph.NumVertices() != 3 || lpgEdges(s.Graph) != 0 {
		t.Fatalf("t=50: %v", s.Graph)
	}
	// t=150: LISTED_ON active.
	s = g.SnapshotAt(150)
	if lpgEdges(s.Graph) != 1 {
		t.Fatalf("t=150 edges=%d", lpgEdges(s.Graph))
	}
	// t=350: ACQUIRED active, LISTED_ON gone.
	s = g.SnapshotAt(350)
	if lpgEdges(s.Graph) != 1 {
		t.Fatalf("t=350 edges=%d", lpgEdges(s.Graph))
	}
	var label string
	s.Graph.Edges(func(e *lpg.Edge) bool { label = e.Label; return true })
	if label != "ACQUIRED" {
		t.Fatalf("t=350 edge=%s", label)
	}
	// t=550: D dead; ACQUIRED edge needs both endpoints... D ended at 500 so
	// the edge was clipped at creation? No: edge interval From(300) clipped
	// by D's [0,500) → [300,500). So no edges, 2 vertices.
	s = g.SnapshotAt(550)
	if s.Graph.NumVertices() != 2 || lpgEdges(s.Graph) != 0 {
		t.Fatalf("t=550: %v", s.Graph)
	}
	// Properties survive into snapshots, and mappings are consistent.
	s = g.SnapshotAt(150)
	for tid, sid := range s.VertexOf {
		if s.TempV[sid] != tid {
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

// activeCounts returns how many vertices and edges are valid at t.
func activeCounts(g *Graph, t ts.Time) (vertices, edges int) {
	g.Vertices(func(v *Vertex) bool {
		if v.Valid.Contains(t) {
			vertices++
		}
		return true
	})
	g.Edges(func(e *Edge) bool {
		if e.Valid.Contains(t) {
			edges++
		}
		return true
	})
	return vertices, edges
}

func TestSnapshotSubsetInvariant(t *testing.T) {
	// Every snapshot is a subgraph of the TPG: counts match the elements
	// valid at that instant.
	g, _, _, _ := companyStory(t)
	for _, at := range []ts.Time{0, 99, 100, 299, 300, 499, 500, 1000} {
		s := g.SnapshotAt(at)
		v, e := activeCounts(g, at)
		if s.Graph.NumVertices() != v || lpgEdges(s.Graph) != e {
			t.Fatalf("t=%d snapshot %v vs active %d/%d", at, s.Graph, v, e)
		}
	}
}

func TestDiffBetween(t *testing.T) {
	g, _, _, d := companyStory(t)
	diff := g.DiffBetween(50, 350)
	// LISTED_ON was not active at 50 nor 350? At 50 no (starts 100); at 350
	// no (ended 300). ACQUIRED added. No vertex changes.
	if len(diff.AddedVertices) != 0 || len(diff.RemovedVertices) != 0 {
		t.Fatalf("vertex diff: %+v", diff)
	}
	if len(diff.AddedEdges) != 1 {
		t.Fatalf("edge diff: %+v", diff)
	}
	diff = g.DiffBetween(350, 550)
	if len(diff.RemovedVertices) != 1 || diff.RemovedVertices[0] != d {
		t.Fatalf("D should disappear: %+v", diff)
	}
	if len(diff.RemovedEdges) != 1 {
		t.Fatalf("ACQUIRED should disappear: %+v", diff)
	}
}
