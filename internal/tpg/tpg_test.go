package tpg

import (
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

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
