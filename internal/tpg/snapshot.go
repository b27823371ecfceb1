package tpg

import "hygraph/internal/ts"

// Diff summarizes the structural change between two instants.
type Diff struct {
	AddedVertices   []VID // valid at t2 but not t1
	RemovedVertices []VID // valid at t1 but not t2
	AddedEdges      []EID
	RemovedEdges    []EID
}

// DiffBetween computes which elements appeared or disappeared between t1 and
// t2 (t1 < t2 expected but not required; the diff is directional).
func (g *Graph) DiffBetween(t1, t2 ts.Time) Diff {
	var d Diff
	g.Vertices(func(v *Vertex) bool {
		a, b := v.Valid.Contains(t1), v.Valid.Contains(t2)
		switch {
		case !a && b:
			d.AddedVertices = append(d.AddedVertices, v.ID)
		case a && !b:
			d.RemovedVertices = append(d.RemovedVertices, v.ID)
		}
		return true
	})
	g.Edges(func(e *Edge) bool {
		a, b := e.Valid.Contains(t1), e.Valid.Contains(t2)
		switch {
		case !a && b:
			d.AddedEdges = append(d.AddedEdges, e.ID)
		case a && !b:
			d.RemovedEdges = append(d.RemovedEdges, e.ID)
		}
		return true
	})
	return d
}
