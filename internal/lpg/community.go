package lpg

import "math/rand"

// Communities holds a vertex → community assignment with dense community
// ids in [0, Count).
type Communities struct {
	Of    map[VertexID]int
	Count int
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
