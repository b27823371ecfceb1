package lpg

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex within one Graph. IDs are dense, assigned in
// insertion order, and never reused.
type VertexID int64

// EdgeID identifies an edge within one Graph.
type EdgeID int64

// Vertex is a labeled property graph vertex.
type Vertex struct {
	ID     VertexID
	Labels []string
	props  map[string]Value
	out    []EdgeID
	in     []EdgeID
	dead   bool
}

// Edge is a directed labeled property graph edge.
type Edge struct {
	ID    EdgeID
	Label string
	From  VertexID
	To    VertexID
	props map[string]Value
	dead  bool
}

// Graph is a directed labeled property graph. The zero value is not usable;
// call NewGraph. Graph is not safe for concurrent mutation.
type Graph struct {
	vertices []*Vertex
	edges    []*Edge
	nLive    int // live vertex count
	eLive    int // live edge count

	labelIndex map[string][]VertexID // vertex label -> ids (insertion order, may contain dead)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{labelIndex: make(map[string][]VertexID)}
}

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return g.nLive }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.eLive }

// AddVertex creates a vertex with the given labels and returns its ID.
func (g *Graph) AddVertex(labels ...string) VertexID {
	id := VertexID(len(g.vertices))
	v := &Vertex{ID: id, Labels: append([]string(nil), labels...), props: map[string]Value{}}
	g.vertices = append(g.vertices, v)
	g.nLive++
	for _, l := range labels {
		g.labelIndex[l] = append(g.labelIndex[l], id)
	}
	return id
}

// AddEdge creates a directed edge from -> to and returns its ID. It panics
// if either endpoint does not exist; graph construction bugs should fail
// loudly and early.
func (g *Graph) AddEdge(from, to VertexID, label string) EdgeID {
	vf := g.mustVertex(from)
	vt := g.mustVertex(to)
	id := EdgeID(len(g.edges))
	e := &Edge{ID: id, Label: label, From: from, To: to, props: map[string]Value{}}
	g.edges = append(g.edges, e)
	g.eLive++
	vf.out = append(vf.out, id)
	vt.in = append(vt.in, id)
	return id
}

// Vertex returns the vertex with the given ID, or nil if it does not exist
// or was removed.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if id < 0 || int(id) >= len(g.vertices) {
		return nil
	}
	if v := g.vertices[id]; !v.dead {
		return v
	}
	return nil
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id EdgeID) *Edge {
	if id < 0 || int(id) >= len(g.edges) {
		return nil
	}
	if e := g.edges[id]; !e.dead {
		return e
	}
	return nil
}

func (g *Graph) mustVertex(id VertexID) *Vertex {
	v := g.Vertex(id)
	if v == nil {
		panic(fmt.Sprintf("lpg: no vertex %d", id))
	}
	return v
}

// RemoveEdge deletes an edge, reporting whether it existed.
func (g *Graph) RemoveEdge(id EdgeID) bool {
	e := g.Edge(id)
	if e == nil {
		return false
	}
	e.dead = true
	g.eLive--
	if v := g.Vertex(e.From); v != nil {
		v.out = removeID(v.out, id)
	}
	if v := g.Vertex(e.To); v != nil {
		v.in = removeID(v.in, id)
	}
	return true
}

// RemoveVertex deletes a vertex and all incident edges, reporting whether it
// existed.
func (g *Graph) RemoveVertex(id VertexID) bool {
	v := g.Vertex(id)
	if v == nil {
		return false
	}
	for _, eid := range append(append([]EdgeID(nil), v.out...), v.in...) {
		g.RemoveEdge(eid)
	}
	v.dead = true
	g.nLive--
	return true
}

func removeID(ids []EdgeID, id EdgeID) []EdgeID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Vertices calls fn for every live vertex in ID order; fn returning false
// stops the iteration.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.vertices {
		if !v.dead && !fn(v) {
			return
		}
	}
}

// Edges calls fn for every live edge in ID order; fn returning false stops.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.edges {
		if !e.dead && !fn(e) {
			return
		}
	}
}

// VertexIDs returns all live vertex IDs in ID order.
func (g *Graph) VertexIDs() []VertexID {
	out := make([]VertexID, 0, g.nLive)
	g.Vertices(func(v *Vertex) bool { out = append(out, v.ID); return true })
	return out
}

// VerticesByLabel returns live vertex IDs carrying the label, in ID order.
func (g *Graph) VerticesByLabel(label string) []VertexID {
	var out []VertexID
	for _, id := range g.labelIndex[label] {
		if g.Vertex(id) != nil {
			out = append(out, id)
		}
	}
	return out
}

// Prop returns a vertex property value (Null if absent).
func (v *Vertex) Prop(key string) Value { return v.props[key] }

// PropKeys returns the vertex's property keys in sorted order.
func (v *Vertex) PropKeys() []string { return sortedKeys(v.props) }

// Prop returns an edge property value (Null if absent).
func (e *Edge) Prop(key string) Value { return e.props[key] }

// PropKeys returns the edge's property keys in sorted order.
func (e *Edge) PropKeys() []string { return sortedKeys(e.props) }

func sortedKeys(m map[string]Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SetVertexProp sets a property on a vertex.
func (g *Graph) SetVertexProp(id VertexID, key string, val Value) {
	g.mustVertex(id).props[key] = val
}

// SetEdgeProp sets a property on an edge.
func (g *Graph) SetEdgeProp(id EdgeID, key string, val Value) {
	e := g.Edge(id)
	if e == nil {
		panic(fmt.Sprintf("lpg: no edge %d", id))
	}
	e.props[key] = val
}

// OutEdges returns the live outgoing edges of a vertex in insertion order.
func (g *Graph) OutEdges(id VertexID) []*Edge {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	out := make([]*Edge, 0, len(v.out))
	for _, eid := range v.out {
		if e := g.Edge(eid); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// InEdges returns the live incoming edges of a vertex in insertion order.
func (g *Graph) InEdges(id VertexID) []*Edge {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	out := make([]*Edge, 0, len(v.in))
	for _, eid := range v.in {
		if e := g.Edge(eid); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// OutDegree returns the number of live outgoing edges.
func (g *Graph) OutDegree(id VertexID) int { return len(g.OutEdges(id)) }

// InDegree returns the number of live incoming edges.
func (g *Graph) InDegree(id VertexID) int { return len(g.InEdges(id)) }

// Degree returns in-degree + out-degree.
func (g *Graph) Degree(id VertexID) int { return g.OutDegree(id) + g.InDegree(id) }

// Degrees returns the total degree of every live vertex.
func (g *Graph) Degrees() map[VertexID]int {
	out := make(map[VertexID]int, g.nLive)
	g.Vertices(func(v *Vertex) bool {
		out[v.ID] = g.Degree(v.ID)
		return true
	})
	return out
}

// Neighbors returns the distinct vertices adjacent to id (both directions),
// in ascending ID order.
func (g *Graph) Neighbors(id VertexID) []VertexID {
	seen := map[VertexID]bool{}
	for _, e := range g.OutEdges(id) {
		seen[e.To] = true
	}
	for _, e := range g.InEdges(id) {
		seen[e.From] = true
	}
	delete(seen, id)
	out := make([]VertexID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d)", g.nLive, g.eLive)
}
