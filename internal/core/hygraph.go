// Package core implements the paper's primary contribution: the HyGraph
// Model (HGM), a hybrid of temporal property graphs and time series in which
// both are first-class citizens.
//
// An instance is the tuple HG = (V, E, S, TS, η, γ, λ, φ, ρ, δ) of Section 5:
//
//   - V = V_pg ∪ V_ts and E = E_pg ∪ E_ts split vertices and edges into
//     property-graph elements and time-series elements (ElemKind).
//   - δ maps every TS vertex/edge to a (multivariate) time series (Series
//     method / the Series field).
//   - ρ assigns PG elements and subgraphs their validity interval
//     [t_start, t_end), with t_end initialized to max(T) (tpg.Interval).
//   - λ assigns labels; φ assigns property values, which are either static
//     scalars or whole series (lpg.Value with N = N_Σ ∪ N_TS).
//   - S is a set of logical subgraphs (Subgraph) with labels and validity.
//     Their time-varying membership γ is not materialised: no operator
//     reads it.
//   - η maps edges to their endpoint vertices (From/To fields).
//
// Operators over an instance fall into the paper's three interfaces:
// <X>ToHyGraph (build.go), HyGraphTo<X> (extract.go), and
// HyGraphToHyGraph (hybrid.go).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// VID identifies a HyGraph vertex.
type VID int64

// EID identifies a HyGraph edge.
type EID int64

// SID identifies a logical subgraph.
type SID int64

// ElemKind distinguishes property-graph elements from time-series elements.
type ElemKind int

// Element kinds: the two halves of V = V_pg ∪ V_ts (and likewise for E).
const (
	PG ElemKind = iota // classic property-graph element
	TS                 // element whose identity is a time series (δ applies)
)

// String returns "pg" or "ts".
func (k ElemKind) String() string {
	if k == TS {
		return "ts"
	}
	return "pg"
}

// Vertex is a HyGraph vertex: either a PG vertex (labels, properties,
// validity) or a TS vertex (a time series that semantically represents an
// entity, e.g. the paper's credit-card balance vertices).
type Vertex struct {
	ID     VID
	Kind   ElemKind
	Labels []string
	Valid  tpg.Interval    // ρ for PG vertices (TS: see EffectiveValid); set only by HyGraph methods
	Series *ts.MultiSeries // δ payload; nil for PG vertices
	props  map[string]lpg.Value
}

// Edge is a HyGraph edge: a PG edge or a TS edge (a relationship whose
// essence is a time series, e.g. transaction flow between a card and a
// merchant, or a time-varying similarity between two cards).
type Edge struct {
	ID     EID
	Kind   ElemKind
	Label  string
	From   VID
	To     VID
	Valid  tpg.Interval // ρ, as on Vertex; set only by HyGraph methods (EndEdge)
	Series *ts.MultiSeries
	props  map[string]lpg.Value
}

// Subgraph is a logical subgraph s ∈ S: labels and validity ρ(s). The
// time-varying vertex membership γ(s, t) is not materialised.
type Subgraph struct {
	ID     SID
	Labels []string
	Valid  tpg.Interval
}

// HyGraph is one HGM instance. Reads may run concurrently; mutations may not.
type HyGraph struct {
	vertices  []*Vertex
	edges     []*Edge
	subgraphs []*Subgraph
	outAdj    [][]EID
	inAdj     [][]EID

	// gen counts writes to the structure: Add*, Set*Prop and EndEdge, not
	// appended samples (the structure holds each series by pointer).
	gen       uint64
	structure atomic.Pointer[structure] // of generation gen, built on first use
}

// Errors returned by HyGraph mutations.
var (
	ErrNoVertex    = errors.New("core: vertex does not exist")
	ErrNoEdge      = errors.New("core: edge does not exist")
	ErrNeedsSeries = errors.New("core: TS element requires a series (δ is total on V_ts ∪ E_ts)")
	ErrBadInterval = errors.New("core: interval start after end")
)

// New returns an empty HyGraph instance.
func New() *HyGraph { return &HyGraph{} }

// CountByKind returns how many vertices and edges are of the given kind.
func (h *HyGraph) CountByKind(k ElemKind) (vertices, edges int) {
	for _, v := range h.vertices {
		if v.Kind == k {
			vertices++
		}
	}
	for _, e := range h.edges {
		if e.Kind == k {
			edges++
		}
	}
	return vertices, edges
}

// AddVertex adds a PG vertex valid over the given interval.
func (h *HyGraph) AddVertex(valid tpg.Interval, labels ...string) (VID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	return h.addVertex(&Vertex{Kind: PG, Labels: append([]string(nil), labels...), Valid: valid}), nil
}

// AddTSVertex adds a TS vertex carrying the series (δ mapping). Its
// effective validity is the series' time span.
func (h *HyGraph) AddTSVertex(series *ts.MultiSeries, labels ...string) (VID, error) {
	if series == nil {
		return 0, ErrNeedsSeries
	}
	return h.addVertex(&Vertex{Kind: TS, Labels: append([]string(nil), labels...),
		Valid: tpg.Always, Series: series}), nil
}

// AddTSVertexUni wraps a univariate series into a single-variable TS vertex.
func (h *HyGraph) AddTSVertexUni(series *ts.Series, labels ...string) (VID, error) {
	if series == nil {
		return 0, ErrNeedsSeries
	}
	m, err := ts.Combine(series.Name(), series)
	if err != nil {
		return 0, err
	}
	return h.AddTSVertex(m, labels...)
}

func (h *HyGraph) addVertex(v *Vertex) VID {
	h.gen++
	v.ID = VID(len(h.vertices))
	v.props = map[string]lpg.Value{}
	h.vertices = append(h.vertices, v)
	h.outAdj = append(h.outAdj, nil)
	h.inAdj = append(h.inAdj, nil)
	return v.ID
}

// AddEdge adds a PG edge.
func (h *HyGraph) AddEdge(from, to VID, label string, valid tpg.Interval) (EID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	return h.addEdge(&Edge{Kind: PG, Label: label, From: from, To: to, Valid: valid})
}

// AddTSEdge adds a TS edge carrying the series (δ mapping), e.g. the
// paper's transaction-flow and card-similarity edges.
func (h *HyGraph) AddTSEdge(from, to VID, label string, series *ts.MultiSeries) (EID, error) {
	if series == nil {
		return 0, ErrNeedsSeries
	}
	return h.addEdge(&Edge{Kind: TS, Label: label, From: from, To: to,
		Valid: tpg.Always, Series: series})
}

// AddTSEdgeUni wraps a univariate series into a TS edge.
func (h *HyGraph) AddTSEdgeUni(from, to VID, label string, series *ts.Series) (EID, error) {
	if series == nil {
		return 0, ErrNeedsSeries
	}
	m, err := ts.Combine(series.Name(), series)
	if err != nil {
		return 0, err
	}
	return h.AddTSEdge(from, to, label, m)
}

func (h *HyGraph) addEdge(e *Edge) (EID, error) {
	if h.Vertex(e.From) == nil || h.Vertex(e.To) == nil {
		return 0, ErrNoVertex
	}
	h.gen++
	e.ID = EID(len(h.edges))
	e.props = map[string]lpg.Value{}
	h.edges = append(h.edges, e)
	h.outAdj[e.From] = append(h.outAdj[e.From], e.ID)
	h.inAdj[e.To] = append(h.inAdj[e.To], e.ID)
	return e.ID, nil
}

// Vertex returns the vertex or nil.
func (h *HyGraph) Vertex(id VID) *Vertex {
	if id < 0 || int(id) >= len(h.vertices) {
		return nil
	}
	return h.vertices[id]
}

// Edge returns the edge or nil.
func (h *HyGraph) Edge(id EID) *Edge {
	if id < 0 || int(id) >= len(h.edges) {
		return nil
	}
	return h.edges[id]
}

// Vertices calls fn for every vertex in ID order; returning false stops.
func (h *HyGraph) Vertices(fn func(*Vertex) bool) {
	for _, v := range h.vertices {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge in ID order; returning false stops.
func (h *HyGraph) Edges(fn func(*Edge) bool) {
	for _, e := range h.edges {
		if !fn(e) {
			return
		}
	}
}

// OutEdges returns all outgoing edges of a vertex.
func (h *HyGraph) OutEdges(id VID) []*Edge { return h.edgesOf(h.outAdj, id) }

// InEdges returns all incoming edges of a vertex.
func (h *HyGraph) InEdges(id VID) []*Edge { return h.edgesOf(h.inAdj, id) }

func (h *HyGraph) edgesOf(adj [][]EID, id VID) []*Edge {
	if id < 0 || int(id) >= len(adj) {
		return nil
	}
	out := make([]*Edge, 0, len(adj[id]))
	for _, eid := range adj[id] {
		out = append(out, h.edges[eid])
	}
	return out
}

// SetVertexProp sets φ(v, key) = val.
func (h *HyGraph) SetVertexProp(id VID, key string, val lpg.Value) error {
	v := h.Vertex(id)
	if v == nil {
		return ErrNoVertex
	}
	v.props[key] = val
	h.gen++
	return nil
}

// SetEdgeProp sets φ(e, key) = val.
func (h *HyGraph) SetEdgeProp(id EID, key string, val lpg.Value) error {
	e := h.Edge(id)
	if e == nil {
		return ErrNoEdge
	}
	e.props[key] = val
	h.gen++
	return nil
}

// EndEdge narrows ρ of an edge to end at `at`: the edge is valid up to, not
// at, that instant. An edge that already ends earlier keeps its end; ending
// one before its start is an error.
func (h *HyGraph) EndEdge(id EID, at ts.Time) error {
	e := h.Edge(id)
	if e == nil {
		return ErrNoEdge
	}
	if at < e.Valid.Start {
		return fmt.Errorf("core: EndEdge at %v before start %v", at, e.Valid.Start)
	}
	if at < e.Valid.End {
		e.Valid.End = at
		h.gen++
	}
	return nil
}

// Prop returns φ(v, key) (Null if absent).
func (v *Vertex) Prop(key string) lpg.Value { return v.props[key] }

// PropKeys returns the vertex's property keys sorted.
func (v *Vertex) PropKeys() []string { return lpg.SortedKeys(v.props) }

// Prop returns φ(e, key) (Null if absent).
func (e *Edge) Prop(key string) lpg.Value { return e.props[key] }

// PropKeys returns the edge's property keys sorted.
func (e *Edge) PropKeys() []string { return lpg.SortedKeys(e.props) }

// EffectiveValid returns ρ for PG vertices, and the series time span for TS
// vertices (a TS element "exists" while it has observations).
func (v *Vertex) EffectiveValid() tpg.Interval { return effectiveValid(v.Kind, v.Series, v.Valid) }

// EffectiveValid is the edge analogue of Vertex.EffectiveValid.
func (e *Edge) EffectiveValid() tpg.Interval { return effectiveValid(e.Kind, e.Series, e.Valid) }

func effectiveValid(k ElemKind, s *ts.MultiSeries, rho tpg.Interval) tpg.Interval {
	switch {
	case k != TS || s == nil:
		return rho
	case s.Len() == 0:
		return tpg.Interval{}
	}
	return tpg.Between(s.Start(), s.End()+1)
}

// SeriesVar extracts one variable of a TS element's series as a univariate
// series; for single-variable elements pass "" to take the first variable.
func (v *Vertex) SeriesVar(name string) (*ts.Series, bool) {
	return seriesVar(v.Series, name)
}

// SeriesVar extracts one variable of a TS edge's series.
func (e *Edge) SeriesVar(name string) (*ts.Series, bool) {
	return seriesVar(e.Series, name)
}

func seriesVar(m *ts.MultiSeries, name string) (*ts.Series, bool) {
	if m == nil {
		return nil, false
	}
	if name == "" {
		vars := m.Vars()
		if len(vars) == 0 {
			return nil, false
		}
		name = vars[0]
	}
	return m.Var(name)
}

// String renders a compact summary of the instance.
func (h *HyGraph) String() string {
	pv, pe := h.CountByKind(PG)
	tv, te := h.CountByKind(TS)
	return fmt.Sprintf("HyGraph(|Vpg|=%d, |Vts|=%d, |Epg|=%d, |Ets|=%d, |S|=%d)",
		pv, tv, pe, te, len(h.subgraphs))
}
