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

// SnapshotAt projects the instance to a static LPG at instant t: a copy of
// the structure graph minus every element whose EffectiveValid misses t.
func (h *HyGraph) SnapshotAt(t ts.Time) *View { return h.snapshotAt(t, false) }

// snapshotAt is SnapshotAt, leaving every TS element out too when pgOnly.
func (h *HyGraph) snapshotAt(t ts.Time, pgOnly bool) *View {
	var hiddenV []lpg.VertexID
	var hiddenE []lpg.EdgeID
	for _, v := range h.vertices {
		if pgOnly && v.Kind == TS || !v.EffectiveValid().Contains(t) {
			hiddenV = append(hiddenV, lpg.VertexID(v.ID))
		}
	}
	for _, e := range h.edges {
		if pgOnly && e.Kind == TS || !e.EffectiveValid().Contains(t) {
			hiddenE = append(hiddenE, lpg.EdgeID(e.ID))
		}
	}
	s, _, _ := h.Structure()
	g, vertexOf, edgeOf := s.Without(hiddenV, hiddenE)
	view := &View{At: t, Graph: g, VertexOf: make(map[VID]lpg.VertexID, g.NumVertices()),
		HyV: make(map[lpg.VertexID]VID, g.NumVertices()), HyE: make(map[lpg.EdgeID]EID, len(edgeOf))}
	for v, id := range vertexOf {
		if id >= 0 {
			view.VertexOf[VID(v)], view.HyV[id] = id, VID(v)
		}
	}
	for e, id := range edgeOf {
		if id >= 0 {
			view.HyE[id] = EID(e)
		}
	}
	return view
}

type structure struct {
	gen        uint64
	g          *lpg.Graph
	vRho, eRho []tpg.Interval
}

// Version implements hyql.Source: it moves with every write to the
// structure, and with nothing else.
func (h *HyGraph) Version() uint64 { return h.gen }

// Structure implements hyql.Source: every vertex and edge numbered by its
// id, with its kind under KindPropKey and a TS element's series under
// SeriesPropKey, and ρ by id. It is built once per generation, indexed and
// shared (SnapshotAt selects from it), so it must not be modified.
func (h *HyGraph) Structure() (g *lpg.Graph, vertexRho, edgeRho []tpg.Interval) {
	if s := h.structure.Load(); s != nil && s.gen == h.gen {
		return s.g, s.vRho, s.eRho
	}
	s := &structure{gen: h.gen, g: lpg.NewGraph(),
		vRho: make([]tpg.Interval, len(h.vertices)), eRho: make([]tpg.Interval, len(h.edges))}
	for _, v := range h.vertices {
		id := s.g.AddVertex(v.Labels...)
		for k, val := range v.props {
			s.g.SetVertexProp(id, k, val)
		}
		s.g.SetVertexProp(id, KindPropKey, lpg.Str(v.Kind.String()))
		if v.Kind == TS {
			s.g.SetVertexProp(id, SeriesPropKey, lpg.MultiVal(v.Series))
		}
		s.vRho[v.ID] = v.Valid
	}
	for _, e := range h.edges {
		id := s.g.AddEdge(lpg.VertexID(e.From), lpg.VertexID(e.To), e.Label)
		for k, val := range e.props {
			s.g.SetEdgeProp(id, k, val)
		}
		s.g.SetEdgeProp(id, KindPropKey, lpg.Str(e.Kind.String()))
		if e.Kind == TS {
			s.g.SetEdgeProp(id, SeriesPropKey, lpg.MultiVal(e.Series))
		}
		s.eRho[e.ID] = e.Valid
	}
	s.g.IndexStrings()
	h.structure.Store(s)
	return s.g, s.vRho, s.eRho
}

// MetricEvolution samples a graph metric over the PG part at start,
// start+step, … before end, and stores each PG vertex's samples, taken while
// it is valid, as a series-valued property named key — the metricEvolution
// operator of Section 5, demonstrating that HyGraphTo<X> and <X>ToHyGraph
// are dual: graph metrics become time-series data living in the graph.
func (h *HyGraph) MetricEvolution(key string, start, end, step ts.Time,
	metric func(*lpg.Graph) map[lpg.VertexID]float64) error {

	evo := map[VID]*ts.Series{}
	for t := start; step > 0 && t < end; t += step {
		view := h.snapshotAt(t, true)
		for id, m := range metric(view.Graph) {
			v := view.HyV[id]
			if evo[v] == nil {
				evo[v] = ts.New(key)
			}
			evo[v].MustAppend(t, m)
		}
	}
	for v, series := range evo {
		if err := h.SetVertexProp(v, key, lpg.SeriesVal(series)); err != nil {
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
