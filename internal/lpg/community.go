package lpg

import (
	"math/rand"
	"sort"
)

// Communities holds a vertex → community assignment with dense community
// ids in [0, Count).
type Communities struct {
	Of    map[VertexID]int
	Count int
}

// Members returns the vertex sets per community, each sorted by ID.
func (c Communities) Members() [][]VertexID {
	out := make([][]VertexID, c.Count)
	for v, cm := range c.Of {
		out[cm] = append(out[cm], v)
	}
	for _, m := range out {
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	}
	return out
}

// LabelPropagation detects communities by synchronous label propagation over
// the undirected graph: every vertex repeatedly adopts the most frequent
// label among its neighbors (ties broken by smallest label) until no label
// changes or maxIter rounds pass. The seed fixes the vertex visiting order
// for reproducible results. This is the paper's D graph primitive
// (community detection, Table 2).
func (g *Graph) LabelPropagation(maxIter int, seed int64) Communities {
	ids := g.VertexIDs()
	label := make(map[VertexID]VertexID, len(ids))
	for _, id := range ids {
		label[id] = id
	}
	rng := rand.New(rand.NewSource(seed))
	order := append([]VertexID(nil), ids...)
	for iter := 0; iter < maxIter; iter++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := false
		for _, id := range order {
			counts := map[VertexID]int{}
			for _, n := range g.Neighbors(id) {
				counts[label[n]]++
			}
			if len(counts) == 0 {
				continue
			}
			best := label[id]
			bestCount := counts[best] // current label wins ties it participates in
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best = l
					bestCount = c
				}
			}
			if best != label[id] {
				label[id] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return denseCommunities(ids, func(id VertexID) VertexID { return label[id] })
}

// denseCommunities renumbers arbitrary community representatives into dense
// ids ordered by the smallest member vertex.
func denseCommunities(ids []VertexID, repOf func(VertexID) VertexID) Communities {
	rep2dense := map[VertexID]int{}
	of := make(map[VertexID]int, len(ids))
	for _, id := range ids { // ids are in ascending order
		r := repOf(id)
		d, ok := rep2dense[r]
		if !ok {
			d = len(rep2dense)
			rep2dense[r] = d
		}
		of[id] = d
	}
	return Communities{Of: of, Count: len(rep2dense)}
}

// Modularity computes the Newman modularity of an assignment over the
// undirected view of the graph (each directed edge counts once).
func (g *Graph) Modularity(c Communities) float64 {
	m := float64(g.eLive)
	if m == 0 {
		return 0
	}
	deg := g.Degrees()
	var q float64
	g.Edges(func(e *Edge) bool {
		if c.Of[e.From] == c.Of[e.To] {
			q += 1
		}
		return true
	})
	q /= m
	// Expected in-community fraction, folded in vertex-ID order so the float
	// result is identical across runs (map iteration order is random).
	sumDeg := make([]float64, c.Count)
	for _, v := range g.VertexIDs() {
		if cm, ok := c.Of[v]; ok && cm >= 0 && cm < len(sumDeg) {
			sumDeg[cm] += float64(deg[v])
		}
	}
	for _, s := range sumDeg {
		q -= (s / (2 * m)) * (s / (2 * m))
	}
	return q
}

// Louvain runs a single-level Louvain community detection: greedily move
// vertices to the neighboring community with the best modularity gain until
// no move improves, then return the assignment. Deterministic given the
// vertex ID order.
func (g *Graph) Louvain(maxPasses int) Communities {
	ids := g.VertexIDs()
	comm := make(map[VertexID]VertexID, len(ids))
	for _, id := range ids {
		comm[id] = id
	}
	deg := g.Degrees()
	m2 := 0.0 // 2m = total degree, summed in ID order for a stable float fold
	for _, id := range ids {
		m2 += float64(deg[id])
	}
	if m2 == 0 {
		return denseCommunities(ids, func(id VertexID) VertexID { return comm[id] })
	}
	commDeg := map[VertexID]float64{} // community -> total degree
	for _, id := range ids {
		commDeg[id] = float64(deg[id])
	}
	// weight to each neighboring community from a vertex.
	neighWeights := func(id VertexID) map[VertexID]float64 {
		w := map[VertexID]float64{}
		for _, e := range g.OutEdges(id) {
			if e.To != id {
				w[comm[e.To]]++
			}
		}
		for _, e := range g.InEdges(id) {
			if e.From != id {
				w[comm[e.From]]++
			}
		}
		return w
	}
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for _, id := range ids {
			cur := comm[id]
			kd := float64(deg[id])
			w := neighWeights(id)
			// Remove from current community.
			commDeg[cur] -= kd
			best := cur
			bestGain := w[cur] - commDeg[cur]*kd/m2
			for c, wc := range w {
				if c == cur {
					continue
				}
				gain := wc - commDeg[c]*kd/m2
				if gain > bestGain || (gain == bestGain && c < best) {
					best = c
					bestGain = gain
				}
			}
			comm[id] = best
			commDeg[best] += kd
			if best != cur {
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return denseCommunities(ids, func(id VertexID) VertexID { return comm[id] })
}
