package hyql

import (
	"slices"
	"sync/atomic"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// View is a Source over a graph that holds structure only: every sample
// stays in a store, and a TS vertex carries its series as an lpg.SeriesRef
// handle under `_series`. The graph is immutable, so a View lives as long as
// the structure it was built from — it is replaced when a station or a trip
// is written, never when a series gains a sample.
//
// A TS vertex is valid from its series' first sample to its last, and an
// append moves the last. GraphAt therefore asks every handle for its span
// on every call and decides visibility afresh; nothing derived from a span
// outlives the call except as a memo keyed by the decision itself. When every
// TS vertex is visible — the steady state of a live dataset queried "as of"
// now — the structure graph is returned as is.
type View struct {
	g      *lpg.Graph
	series []refVertex
	// last memoises the most recent projection that hid something, keyed by
	// exactly which vertices it hid.
	last atomic.Pointer[projection]
}

type refVertex struct {
	id lpg.VertexID
	s  Series
}

type projection struct {
	hidden []lpg.VertexID
	g      *lpg.Graph
}

// NewView wraps a structure graph, which must not be modified afterwards.
func NewView(g *lpg.Graph) *View {
	v := &View{g: g}
	g.Vertices(func(x *lpg.Vertex) bool {
		if r, ok := x.Prop("_series").AsSeriesRef(); ok {
			if s, ok := r.(Series); ok {
				v.series = append(v.series, refVertex{x.ID, s})
			}
		}
		return true
	})
	return v
}

// GraphAt implements Source: the structure minus the TS vertices whose
// series does not cover the instant, and minus the edges that touch them,
// numbered as if they had never been there.
func (v *View) GraphAt(at ts.Time) *lpg.Graph {
	var hidden []lpg.VertexID
	for _, rv := range v.series {
		if first, last, ok := rv.s.Span(); !ok || at < first || at > last {
			hidden = append(hidden, rv.id)
		}
	}
	if len(hidden) == 0 {
		return v.g
	}
	if p := v.last.Load(); p != nil && slices.Equal(p.hidden, hidden) {
		return p.g
	}
	p := &projection{hidden: hidden, g: without(v.g, hidden)}
	v.last.Store(p)
	return p.g
}

// without copies g leaving out the hidden vertices (ascending ids) and their
// incident edges. Survivors keep their relative order and get dense ids, the
// numbering core.HyGraph.SnapshotAt gives the same selection.
func without(g *lpg.Graph, hidden []lpg.VertexID) *lpg.Graph {
	out := lpg.NewGraph()
	remap := make([]lpg.VertexID, 0, g.NumVertices())
	g.Vertices(func(x *lpg.Vertex) bool {
		if len(hidden) > 0 && hidden[0] == x.ID {
			hidden = hidden[1:]
			remap = append(remap, -1)
			return true
		}
		id := out.AddVertex(x.Labels...)
		for _, k := range x.PropKeys() {
			out.SetVertexProp(id, k, x.Prop(k))
		}
		remap = append(remap, id)
		return true
	})
	g.Edges(func(e *lpg.Edge) bool {
		from, to := remap[e.From], remap[e.To]
		if from < 0 || to < 0 {
			return true
		}
		id := out.AddEdge(from, to, e.Label)
		for _, k := range e.PropKeys() {
			out.SetEdgeProp(id, k, e.Prop(k))
		}
		return true
	})
	return out
}
