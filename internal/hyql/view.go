package hyql

import (
	"math"
	"slices"
	"sync/atomic"

	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// View is a Source over a graph that holds structure only: every sample
// stays in a store, and a TS vertex carries its series as an lpg.SeriesRef
// handle under `_series`. The graph is immutable, so a View lives as long as
// the structure it was built from — it is replaced when a station or a trip
// is written, never when a series gains a sample.
//
// A TS vertex is valid from its series' first sample to its last. When
// every TS vertex is visible — the steady state of a live dataset queried
// "as of" now — the structure graph is returned as is.
type View struct {
	g      *lpg.Graph
	series []refVertex
	// valid is [max first, min last] of the spans GraphAt last read, when
	// every series had one. Between two structural writes a span only
	// widens — an append moves its last sample later, a backfill its first
	// earlier, and only a station write, which replaces the View, removes a
	// series — so every TS vertex is still valid inside it: GraphAt answers
	// such an instant with the structure graph and no Span call.
	valid atomic.Pointer[[2]ts.Time]
	// last memoises the most recent projection that hid something, keyed by
	// exactly which vertices it hid.
	last  atomic.Pointer[projection]
	scans *obs.Counter // GraphAt calls that read spans
}

type refVertex struct {
	id lpg.VertexID
	s  Series
}

type projection struct {
	hidden []lpg.VertexID
	g      *lpg.Graph
}

// NewView wraps a structure graph, which must not be modified afterwards,
// and indexes its string properties for anchored queries.
func NewView(g *lpg.Graph) *View {
	g.IndexStrings()
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

// CountSpanScans counts on c every GraphAt call that reads spans (nil counts
// nothing). Call it before the View serves a query.
func (v *View) CountSpanScans(c *obs.Counter) { v.scans = c }

// GraphAt implements Source: the structure minus the TS vertices whose
// series does not cover the instant, and minus the edges that touch them,
// numbered as if they had never been there.
func (v *View) GraphAt(at ts.Time) *lpg.Graph {
	if w := v.valid.Load(); w != nil && w[0] <= at && at <= w[1] {
		return v.g
	}
	v.scans.Inc()
	var hidden []lpg.VertexID
	w, all := [2]ts.Time{math.MinInt64, math.MaxInt64}, true
	for _, rv := range v.series {
		first, last, ok := rv.s.Span()
		all = all && ok
		w = [2]ts.Time{max(w[0], first), min(w[1], last)}
		if !ok || at < first || at > last {
			hidden = append(hidden, rv.id)
		}
	}
	if all && w[0] <= w[1] {
		v.valid.Store(&w)
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
// incident edges, and indexes the copy as NewView does g. Survivors keep
// their relative order and get dense ids, the numbering
// core.HyGraph.SnapshotAt gives the same selection.
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
	out.IndexStrings()
	return out
}
