package lpg

import (
	"math"
	"testing"
)

// chain builds a -> b -> c -> ... of n vertices and returns the graph + ids.
func chain(n int) (*Graph, []VertexID) {
	g := NewGraph()
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = g.AddVertex("V")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1], "next")
	}
	return g, ids
}

func TestDegreeDistribution(t *testing.T) {
	g, _ := chain(4) // degrees: 1,2,2,1
	st := g.DegreeDistribution()
	if st.Min != 1 || st.Max != 2 || st.Mean != 1.5 {
		t.Fatalf("stats=%+v", st)
	}
	empty := NewGraph()
	st = empty.DegreeDistribution()
	if st.Min != 0 || st.Max != 0 || st.Mean != 0 {
		t.Fatalf("empty stats=%+v", st)
	}
}

func TestPageRankSums(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")
	pr := g.PageRank(0.85, 100, 1e-12)
	var total float64
	for _, v := range pr {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", total)
	}
	// Symmetric ring → equal ranks.
	if math.Abs(pr[a]-pr[b]) > 1e-9 || math.Abs(pr[b]-pr[c]) > 1e-9 {
		t.Fatalf("ring ranks unequal: %v", pr)
	}
}

func TestPageRankHub(t *testing.T) {
	// Star pointing into the hub: hub gets the highest rank. Spokes have no
	// out-edges (dangling) so dangling mass handling is exercised too.
	g := NewGraph()
	hub := g.AddVertex("H")
	for i := 0; i < 5; i++ {
		s := g.AddVertex("S")
		g.AddEdge(s, hub, "e")
	}
	pr := g.PageRank(0.85, 100, 1e-12)
	for id, r := range pr {
		if id != hub && r >= pr[hub] {
			t.Fatalf("spoke %d rank %v >= hub %v", id, r, pr[hub])
		}
	}
	var total float64
	for _, v := range pr {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("with dangling, ranks sum to %v", total)
	}
}

func TestTriangles(t *testing.T) {
	g := NewGraph()
	a, b, c, d := g.AddVertex("A"), g.AddVertex("B"), g.AddVertex("C"), g.AddVertex("D")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")
	g.AddEdge(c, d, "e")
	per, total := g.Triangles()
	if total != 1 {
		t.Fatalf("total=%d", total)
	}
	if per[a] != 1 || per[b] != 1 || per[c] != 1 || per[d] != 0 {
		t.Fatalf("per-vertex=%v", per)
	}
	// Direction must not matter; add the reverse edges, still 1 triangle.
	g.AddEdge(b, a, "e")
	_, total = g.Triangles()
	if total != 1 {
		t.Fatalf("with reverse edge total=%d", total)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	g := NewGraph()
	center := g.AddVertex("C")
	n1, n2, n3 := g.AddVertex("N"), g.AddVertex("N"), g.AddVertex("N")
	g.AddEdge(center, n1, "e")
	g.AddEdge(center, n2, "e")
	g.AddEdge(center, n3, "e")
	if cc := g.ClusteringCoefficient(center); cc != 0 {
		t.Fatalf("open star cc=%v", cc)
	}
	g.AddEdge(n1, n2, "e")
	g.AddEdge(n2, n3, "e")
	g.AddEdge(n3, n1, "e")
	if cc := g.ClusteringCoefficient(center); math.Abs(cc-1) > 1e-9 {
		t.Fatalf("closed triad cc=%v", cc)
	}
	if cc := g.ClusteringCoefficient(n1); cc <= 0 {
		t.Fatalf("n1 cc=%v", cc)
	}
	lone := g.AddVertex("L")
	if cc := g.ClusteringCoefficient(lone); cc != 0 {
		t.Fatalf("lone cc=%v", cc)
	}
}

func TestTopKByDegree(t *testing.T) {
	g := NewGraph()
	hub := g.AddVertex("H")
	mid := g.AddVertex("M")
	for i := 0; i < 4; i++ {
		s := g.AddVertex("S")
		g.AddEdge(hub, s, "e")
	}
	g.AddEdge(mid, hub, "e")
	g.AddEdge(mid, g.AddVertex("S"), "e")
	top := g.TopKByDegree(2)
	if len(top) != 2 || top[0] != hub || top[1] != mid {
		t.Fatalf("top=%v", top)
	}
	if got := g.TopKByDegree(100); len(got) != g.NumVertices() {
		t.Fatalf("k>n returned %d", len(got))
	}
}
