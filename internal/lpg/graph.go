package lpg

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex within one Graph. IDs are dense, assigned in
// insertion order: a graph's vertices are exactly 0..NumVertices()-1.
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
}

// Edge is a directed labeled property graph edge.
type Edge struct {
	ID    EdgeID
	Label string
	From  VertexID
	To    VertexID
	props map[string]Value
}

// Graph is a directed labeled property graph. The zero value is not usable;
// call NewGraph. Graph is not safe for concurrent mutation.
//
// A Graph is append-only: vertices and edges are added, never removed, so
// ids stay dense. An element leaves the graph the way it leaves a HyGraph,
// through a copy that selects what is valid at an instant (Without, which
// core.HyGraph.SnapshotAt and hyql.View call), never by mutation.
type Graph struct {
	vertices []*Vertex
	edges    []*Edge

	labelIndex map[string][]VertexID // vertex label -> ids (insertion order); "" -> all
	strIndex   map[strKey][]VertexID // nil until IndexStrings; then ascending ids
}

type strKey struct{ label, key, val string }

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{labelIndex: make(map[string][]VertexID)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// AddVertex creates a vertex with the given labels and returns its ID.
func (g *Graph) AddVertex(labels ...string) VertexID {
	g.mustNotBeIndexed()
	id := VertexID(len(g.vertices))
	v := &Vertex{ID: id, Labels: append([]string(nil), labels...), props: map[string]Value{}}
	g.vertices = append(g.vertices, v)
	g.labelIndex[""] = append(g.labelIndex[""], id)
	for _, l := range labels {
		if l != "" {
			g.labelIndex[l] = append(g.labelIndex[l], id)
		}
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
	vf.out = append(vf.out, id)
	vt.in = append(vt.in, id)
	return id
}

// Vertex returns the vertex with the given ID, or nil if it does not exist.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if id < 0 || int(id) >= len(g.vertices) {
		return nil
	}
	return g.vertices[id]
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id EdgeID) *Edge {
	if id < 0 || int(id) >= len(g.edges) {
		return nil
	}
	return g.edges[id]
}

func (g *Graph) mustVertex(id VertexID) *Vertex {
	v := g.Vertex(id)
	if v == nil {
		panic(fmt.Sprintf("lpg: no vertex %d", id))
	}
	return v
}

// Vertices calls fn for every vertex in ID order; fn returning false stops
// the iteration.
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.vertices {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge in ID order; fn returning false stops.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// VertexIDs returns all vertex IDs in ID order: 0..NumVertices()-1.
func (g *Graph) VertexIDs() []VertexID { return g.VerticesByLabel("") }

// VerticesByLabel returns the vertex IDs carrying the label, in ID order;
// "" lists every vertex.
func (g *Graph) VerticesByLabel(label string) []VertexID {
	return append([]VertexID(nil), g.labelIndex[label]...)
}

// Prop returns a vertex property value (Null if absent).
func (v *Vertex) Prop(key string) Value { return v.props[key] }

// PropKeys returns the vertex's property keys in sorted order.
func (v *Vertex) PropKeys() []string { return SortedKeys(v.props) }

// Prop returns an edge property value (Null if absent).
func (e *Edge) Prop(key string) Value { return e.props[key] }

// PropKeys returns the edge's property keys in sorted order.
func (e *Edge) PropKeys() []string { return SortedKeys(e.props) }

// SortedKeys returns the keys of a property map in sorted order.
func SortedKeys(m map[string]Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// SetVertexProp sets a property on a vertex.
func (g *Graph) SetVertexProp(id VertexID, key string, val Value) {
	g.mustNotBeIndexed()
	g.mustVertex(id).props[key] = val
}

// IndexStrings indexes every string vertex property under each label of its
// vertex for VerticesByString; AddVertex and SetVertexProp then panic. An
// indexed graph is left as it is, so concurrent readers may each call it.
func (g *Graph) IndexStrings() {
	if g.strIndex != nil {
		return
	}
	g.strIndex = map[strKey][]VertexID{}
	for _, v := range g.vertices {
		for key, val := range v.props {
			if s, ok := val.AsString(); ok {
				for _, l := range v.Labels {
					k := strKey{l, key, s}
					g.strIndex[k] = append(g.strIndex[k], v.ID)
				}
			}
		}
	}
}

// VerticesByString returns the ascending, shared ids of the vertices carrying
// label whose property key is the string val; ok is false before IndexStrings.
func (g *Graph) VerticesByString(label, key, val string) (ids []VertexID, ok bool) {
	if g.strIndex == nil {
		return nil, false
	}
	return g.strIndex[strKey{label, key, val}], true
}

func (g *Graph) mustNotBeIndexed() {
	if g.strIndex != nil {
		panic("lpg: vertex written after IndexStrings")
	}
}

// SetEdgeProp sets a property on an edge.
func (g *Graph) SetEdgeProp(id EdgeID, key string, val Value) {
	e := g.Edge(id)
	if e == nil {
		panic(fmt.Sprintf("lpg: no edge %d", id))
	}
	e.props[key] = val
}

// Without copies g leaving out the hidden vertices, their incident edges and
// the hidden edges; both lists are ascending. Survivors keep their relative
// order and get dense ids: vertexOf and edgeOf map each id of g to its id in
// the copy, -1 for one left out. The copy is not indexed.
func (g *Graph) Without(hiddenV []VertexID, hiddenE []EdgeID) (out *Graph, vertexOf []VertexID, edgeOf []EdgeID) {
	out = NewGraph()
	vertexOf = make([]VertexID, len(g.vertices))
	for _, x := range g.vertices {
		if len(hiddenV) > 0 && hiddenV[0] == x.ID {
			hiddenV = hiddenV[1:]
			vertexOf[x.ID] = -1
			continue
		}
		id := out.AddVertex(x.Labels...)
		for _, k := range x.PropKeys() {
			out.SetVertexProp(id, k, x.Prop(k))
		}
		vertexOf[x.ID] = id
	}
	edgeOf = make([]EdgeID, len(g.edges))
	for _, e := range g.edges {
		from, to := vertexOf[e.From], vertexOf[e.To]
		if len(hiddenE) > 0 && hiddenE[0] == e.ID {
			hiddenE = hiddenE[1:]
			from = -1
		}
		if from < 0 || to < 0 {
			edgeOf[e.ID] = -1
			continue
		}
		id := out.AddEdge(from, to, e.Label)
		for _, k := range e.PropKeys() {
			out.SetEdgeProp(id, k, e.Prop(k))
		}
		edgeOf[e.ID] = id
	}
	return out, vertexOf, edgeOf
}

// OutEdges returns the outgoing edges of a vertex in insertion order.
func (g *Graph) OutEdges(id VertexID) []*Edge {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	return g.edgesOf(v.out)
}

// InEdges returns the incoming edges of a vertex in insertion order.
func (g *Graph) InEdges(id VertexID) []*Edge {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	return g.edgesOf(v.in)
}

func (g *Graph) edgesOf(ids []EdgeID) []*Edge {
	out := make([]*Edge, len(ids))
	for i, eid := range ids {
		out[i] = g.edges[eid]
	}
	return out
}

// OutDegree returns the number of outgoing edges.
func (g *Graph) OutDegree(id VertexID) int { return len(g.OutEdges(id)) }

// InDegree returns the number of incoming edges.
func (g *Graph) InDegree(id VertexID) int { return len(g.InEdges(id)) }

// Degree returns in-degree + out-degree.
func (g *Graph) Degree(id VertexID) int { return g.OutDegree(id) + g.InDegree(id) }

// Degrees returns the total degree of every vertex.
func (g *Graph) Degrees() map[VertexID]int {
	out := make(map[VertexID]int, len(g.vertices))
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
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d)", len(g.vertices), len(g.edges))
}
