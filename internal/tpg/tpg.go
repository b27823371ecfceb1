package tpg

import (
	"errors"
	"fmt"

	"hygraph/internal/lpg"
)

// VID identifies a temporal vertex.
type VID int64

// EID identifies a temporal edge.
type EID int64

// Vertex is a temporal property graph vertex: labels, typed properties and a
// validity interval.
type Vertex struct {
	ID     VID
	Labels []string
	Valid  Interval
	props  map[string]lpg.Value
}

// Edge is a temporal property graph edge.
type Edge struct {
	ID    EID
	Label string
	From  VID
	To    VID
	Valid Interval
	props map[string]lpg.Value
}

// Graph is a temporal property graph. Deleting an element in temporal graphs
// means closing its validity interval, so the structure only ever grows;
// this matches the append-only nature of TPG systems like Gradoop.
type Graph struct {
	vertices []*Vertex
	edges    []*Edge
	outAdj   [][]EID
	inAdj    [][]EID
}

// ErrBadInterval is returned when an element would get an inverted interval.
var ErrBadInterval = errors.New("tpg: interval start after end")

// NewGraph returns an empty temporal graph.
func NewGraph() *Graph { return &Graph{} }

// NumVertices returns the total number of vertices ever added.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the total number of edges ever added.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex adds a vertex valid over the given interval.
func (g *Graph) AddVertex(valid Interval, labels ...string) (VID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	id := VID(len(g.vertices))
	g.vertices = append(g.vertices, &Vertex{
		ID: id, Labels: append([]string(nil), labels...),
		Valid: valid, props: map[string]lpg.Value{},
	})
	g.outAdj = append(g.outAdj, nil)
	g.inAdj = append(g.inAdj, nil)
	return id, nil
}

// AddEdge adds an edge valid over the given interval. The edge interval is
// clipped to the intersection of its endpoints' validity (temporal
// referential integrity, requirement R2): an edge cannot outlive its
// endpoints. An error is returned when the intersection is empty.
func (g *Graph) AddEdge(from, to VID, label string, valid Interval) (EID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	vf, vt := g.Vertex(from), g.Vertex(to)
	if vf == nil || vt == nil {
		return 0, fmt.Errorf("tpg: edge endpoints %d->%d missing", from, to)
	}
	clipped, ok := valid.Intersect(vf.Valid)
	if ok {
		clipped, ok = clipped.Intersect(vt.Valid)
	}
	if !ok {
		return 0, fmt.Errorf("tpg: edge interval %v disjoint from endpoint validity", valid)
	}
	id := EID(len(g.edges))
	g.edges = append(g.edges, &Edge{
		ID: id, Label: label, From: from, To: to, Valid: clipped,
		props: map[string]lpg.Value{},
	})
	g.outAdj[from] = append(g.outAdj[from], id)
	g.inAdj[to] = append(g.inAdj[to], id)
	return id, nil
}

// Vertex returns the vertex or nil.
func (g *Graph) Vertex(id VID) *Vertex {
	if id < 0 || int(id) >= len(g.vertices) {
		return nil
	}
	return g.vertices[id]
}

// Edge returns the edge or nil.
func (g *Graph) Edge(id EID) *Edge {
	if id < 0 || int(id) >= len(g.edges) {
		return nil
	}
	return g.edges[id]
}

// SetVertexProp sets a property on a vertex. It errors when the vertex does
// not exist; only the Must* constructors panic on the library path.
func (g *Graph) SetVertexProp(id VID, key string, val lpg.Value) error {
	v := g.Vertex(id)
	if v == nil {
		return fmt.Errorf("tpg: no vertex %d", id)
	}
	v.props[key] = val
	return nil
}

// SetEdgeProp sets a property on an edge.
func (g *Graph) SetEdgeProp(id EID, key string, val lpg.Value) error {
	e := g.Edge(id)
	if e == nil {
		return fmt.Errorf("tpg: no edge %d", id)
	}
	e.props[key] = val
	return nil
}

// Prop returns a vertex property (Null if absent).
func (v *Vertex) Prop(key string) lpg.Value { return v.props[key] }

// PropKeys returns sorted property keys.
func (v *Vertex) PropKeys() []string { return sortedKeys(v.props) }

// Prop returns an edge property (Null if absent).
func (e *Edge) Prop(key string) lpg.Value { return e.props[key] }

// PropKeys returns sorted property keys.
func (e *Edge) PropKeys() []string { return sortedKeys(e.props) }

func sortedKeys(m map[string]lpg.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Vertices calls fn for every vertex in ID order.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.vertices {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge in ID order.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// OutEdges returns the outgoing edges of a vertex (any validity).
func (g *Graph) OutEdges(id VID) []*Edge {
	if id < 0 || int(id) >= len(g.outAdj) {
		return nil
	}
	out := make([]*Edge, 0, len(g.outAdj[id]))
	for _, eid := range g.outAdj[id] {
		out = append(out, g.edges[eid])
	}
	return out
}
