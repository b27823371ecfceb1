package tpg

import (
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// degreeEvolution is MetricEvolution for total vertex degree.
func degreeEvolution(g *Graph, start, end, step ts.Time) map[VID]*ts.Series {
	return g.MetricEvolution(start, end, step, "degree", func(snap *lpg.Graph) map[lpg.VertexID]float64 {
		out := make(map[lpg.VertexID]float64, snap.NumVertices())
		for id, d := range snap.Degrees() {
			out[id] = float64(d)
		}
		return out
	})
}

func TestDegreeEvolution(t *testing.T) {
	// b's degree: 0 before edge, 1 during [10,20), 0 after.
	g := NewGraph()
	a := g.MustAddVertex(Always, "V")
	b := g.MustAddVertex(Always, "V")
	g.MustAddEdge(a, b, "e", Between(10, 20))
	evo := degreeEvolution(g, 0, 30, 5)
	sb := evo[b]
	if sb == nil || sb.Len() != 6 {
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
	g := NewGraph()
	a := g.MustAddVertex(Between(10, 20), "V")
	evo := degreeEvolution(g, 0, 30, 5)
	sa := evo[a]
	if sa == nil {
		t.Fatal("no series for a")
	}
	// Samples only at t=10,15.
	if sa.Len() != 2 || sa.TimeAt(0) != 10 || sa.TimeAt(1) != 15 {
		t.Fatalf("a sampled at %v", sa.Times())
	}
}

func TestMetricEvolutionDegenerate(t *testing.T) {
	g := NewGraph()
	g.MustAddVertex(Always, "V")
	if got := degreeEvolution(g, 100, 100, 10); len(got) != 0 {
		t.Fatal("empty window")
	}
	if got := degreeEvolution(g, 0, 100, 0); len(got) != 0 {
		t.Fatal("zero step")
	}
}
