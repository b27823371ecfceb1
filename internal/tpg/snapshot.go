package tpg

import (
	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// Snapshot is the static LPG view of the temporal graph at one instant,
// with mappings back to the temporal element ids. It implements the paper's
// Q4 graph primitive (snapshot retrieval, Table 2).
type Snapshot struct {
	At       ts.Time
	Graph    *lpg.Graph
	VertexOf map[VID]lpg.VertexID // temporal id -> snapshot id
	EdgeOf   map[EID]lpg.EdgeID
	TempV    map[lpg.VertexID]VID // snapshot id -> temporal id
	TempE    map[lpg.EdgeID]EID
}

// SnapshotAt materializes the graph state at instant t: all vertices and
// edges whose validity contains t, with their labels and properties.
func (g *Graph) SnapshotAt(t ts.Time) *Snapshot {
	s := &Snapshot{
		At:       t,
		Graph:    lpg.NewGraph(),
		VertexOf: map[VID]lpg.VertexID{},
		EdgeOf:   map[EID]lpg.EdgeID{},
		TempV:    map[lpg.VertexID]VID{},
		TempE:    map[lpg.EdgeID]EID{},
	}
	g.Vertices(func(v *Vertex) bool {
		if !v.Valid.Contains(t) {
			return true
		}
		id := s.Graph.AddVertex(v.Labels...)
		for _, k := range v.PropKeys() {
			s.Graph.SetVertexProp(id, k, v.Prop(k))
		}
		s.VertexOf[v.ID] = id
		s.TempV[id] = v.ID
		return true
	})
	g.Edges(func(e *Edge) bool {
		if !e.Valid.Contains(t) {
			return true
		}
		from, okF := s.VertexOf[e.From]
		to, okT := s.VertexOf[e.To]
		if !okF || !okT {
			return true // endpoint invisible at t
		}
		id := s.Graph.AddEdge(from, to, e.Label)
		for _, k := range e.PropKeys() {
			s.Graph.SetEdgeProp(id, k, e.Prop(k))
		}
		s.EdgeOf[e.ID] = id
		s.TempE[id] = e.ID
		return true
	})
	return s
}

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

// ActiveCounts returns how many vertices and edges are valid at t.
func (g *Graph) ActiveCounts(t ts.Time) (vertices, edges int) {
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
