package lpg

import "testing"

// twoClusters builds two dense cliques of size k joined by a single bridge
// edge.
func twoClusters(k int) (*Graph, []VertexID, []VertexID) {
	g := NewGraph()
	mk := func() []VertexID {
		ids := make([]VertexID, k)
		for i := range ids {
			ids[i] = g.AddVertex("V")
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(ids[i], ids[j], "e")
			}
		}
		return ids
	}
	a := mk()
	b := mk()
	g.AddEdge(a[0], b[0], "bridge")
	return g, a, b
}

func sameCommunity(c Communities, ids []VertexID) bool {
	for _, id := range ids[1:] {
		if c.Of[id] != c.Of[ids[0]] {
			return false
		}
	}
	return true
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	g, a, b := twoClusters(6)
	c := g.LabelPropagation(50, 1)
	if !sameCommunity(c, a) || !sameCommunity(c, b) {
		t.Fatalf("cliques split: %v", c.Of)
	}
	if c.Of[a[0]] == c.Of[b[0]] {
		t.Fatal("cliques merged")
	}
	if c.Count != 2 {
		t.Fatalf("count=%d", c.Count)
	}
}

func TestLabelPropagationIsolated(t *testing.T) {
	g := NewGraph()
	g.AddVertex("A")
	g.AddVertex("B")
	c := g.LabelPropagation(10, 1)
	if c.Count != 2 {
		t.Fatalf("isolated vertices: count=%d", c.Count)
	}
}

func TestLabelPropagationDeterministicPerSeed(t *testing.T) {
	g, _, _ := twoClusters(8)
	c1 := g.LabelPropagation(50, 7)
	c2 := g.LabelPropagation(50, 7)
	if c1.Count != c2.Count {
		t.Fatal("same seed, different counts")
	}
	for id, cm := range c1.Of {
		if c2.Of[id] != cm {
			t.Fatal("same seed, different assignment")
		}
	}
}
