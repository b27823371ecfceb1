package core

import (
	"fmt"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// This file implements the HyGraphTo<X> interface (Section 5, Figure 4):
// extracting graph or time-series instances in their original formats so
// existing pipelines keep working.

// SeriesPropKey is the property under which a TS element's series appears
// when the element is projected into a static LPG view.
const SeriesPropKey = "_series"

// KindPropKey is the property carrying the element kind ("pg"/"ts") in
// projected LPG views.
const KindPropKey = "_kind"

// ToTPG exports the PG part of the instance as a temporal property graph —
// the inverse of FromTPG. TS elements are skipped (they have no ρ in the
// formal model); use SnapshotAt for a combined static view.
func (h *HyGraph) ToTPG() (*tpg.Graph, map[VID]tpg.VID) {
	g := tpg.NewGraph()
	vmap := map[VID]tpg.VID{}
	h.Vertices(func(v *Vertex) bool {
		if v.Kind != PG {
			return true
		}
		id, err := g.AddVertex(v.Valid, v.Labels...)
		if err != nil {
			panic(fmt.Sprintf("core: ToTPG vertex %d: %v", v.ID, err))
		}
		for _, k := range v.PropKeys() {
			g.SetVertexProp(id, k, v.Prop(k))
		}
		vmap[v.ID] = id
		return true
	})
	h.Edges(func(e *Edge) bool {
		if e.Kind != PG {
			return true
		}
		from, okF := vmap[e.From]
		to, okT := vmap[e.To]
		if !okF || !okT {
			return true // PG edge touching a TS vertex has no TPG home
		}
		id, err := g.AddEdge(from, to, e.Label, e.Valid)
		if err != nil {
			return true // interval clipped empty by endpoint validity
		}
		for _, k := range e.PropKeys() {
			g.SetEdgeProp(id, k, e.Prop(k))
		}
		return true
	})
	return g, vmap
}

// View is a static LPG projection of the HyGraph at one instant, with
// mappings back to HyGraph ids. TS elements valid at the instant appear
// with their series attached under SeriesPropKey, so graph-side operators
// (pattern matching, communities) can read them — this is how
// hybrid operators see both worlds at once.
type View struct {
	At       ts.Time
	Graph    *lpg.Graph
	VertexOf map[VID]lpg.VertexID
	HyV      map[lpg.VertexID]VID
	HyE      map[lpg.EdgeID]EID
}

// SnapshotAt projects the instance to a static LPG at instant t.
func (h *HyGraph) SnapshotAt(t ts.Time) *View {
	view := &View{
		At:       t,
		Graph:    lpg.NewGraph(),
		VertexOf: map[VID]lpg.VertexID{},
		HyV:      map[lpg.VertexID]VID{},
		HyE:      map[lpg.EdgeID]EID{},
	}
	h.Vertices(func(v *Vertex) bool {
		if !v.EffectiveValid().Contains(t) {
			return true
		}
		id := view.Graph.AddVertex(v.Labels...)
		for _, k := range v.PropKeys() {
			view.Graph.SetVertexProp(id, k, v.Prop(k))
		}
		view.Graph.SetVertexProp(id, KindPropKey, lpg.Str(v.Kind.String()))
		if v.Kind == TS {
			view.Graph.SetVertexProp(id, SeriesPropKey, lpg.MultiVal(v.Series))
		}
		view.VertexOf[v.ID] = id
		view.HyV[id] = v.ID
		return true
	})
	h.Edges(func(e *Edge) bool {
		if !e.EffectiveValid().Contains(t) {
			return true
		}
		from, okF := view.VertexOf[e.From]
		to, okT := view.VertexOf[e.To]
		if !okF || !okT {
			return true
		}
		id := view.Graph.AddEdge(from, to, e.Label)
		for _, k := range e.PropKeys() {
			view.Graph.SetEdgeProp(id, k, e.Prop(k))
		}
		view.Graph.SetEdgeProp(id, KindPropKey, lpg.Str(e.Kind.String()))
		if e.Kind == TS {
			view.Graph.SetEdgeProp(id, SeriesPropKey, lpg.MultiVal(e.Series))
		}
		view.HyE[id] = e.ID
		return true
	})
	return view
}

// GraphAt returns the graph of SnapshotAt(t): a fresh projection per call.
func (h *HyGraph) GraphAt(t ts.Time) *lpg.Graph { return h.SnapshotAt(t).Graph }

// MetricEvolution runs tpg.MetricEvolution over the PG part and stores each
// vertex's metric series back as a series-valued property named key — the
// metricEvolution operator of Section 5, demonstrating that HyGraphTo<X> and
// <X>ToHyGraph are dual: graph metrics become time-series data living in
// the graph.
func (h *HyGraph) MetricEvolution(key string, start, end, step ts.Time,
	metric func(*lpg.Graph) map[lpg.VertexID]float64) error {

	g, vmap := h.ToTPG()
	inverse := make(map[tpg.VID]VID, len(vmap))
	for hv, tv := range vmap {
		inverse[tv] = hv
	}
	evo := g.MetricEvolution(start, end, step, key, metric)
	for tv, series := range evo {
		series.SetName(key)
		if err := h.SetVertexProp(inverse[tv], key, lpg.SeriesVal(series)); err != nil {
			return err
		}
	}
	return nil
}

// DegreeEvolution is MetricEvolution for total degree, stored under
// "degree_evolution".
func (h *HyGraph) DegreeEvolution(start, end, step ts.Time) error {
	return h.MetricEvolution("degree_evolution", start, end, step,
		func(snap *lpg.Graph) map[lpg.VertexID]float64 {
			out := make(map[lpg.VertexID]float64, snap.NumVertices())
			for id, d := range snap.Degrees() {
				out[id] = float64(d)
			}
			return out
		})
}
