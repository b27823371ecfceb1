package core

import (
	"sort"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// AddSubgraph creates a logical subgraph s ∈ S with validity ρ(s).
func (h *HyGraph) AddSubgraph(valid tpg.Interval, labels ...string) (SID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	h.version++
	s := &Subgraph{
		ID:      SID(len(h.subgraphs)),
		Labels:  append([]string(nil), labels...),
		Valid:   valid,
		props:   map[string]lpg.Value{},
		memberV: map[VID][]tpg.Interval{},
		memberE: map[EID][]tpg.Interval{},
	}
	h.subgraphs = append(h.subgraphs, s)
	return s.ID, nil
}

// Subgraph returns the subgraph or nil.
func (h *HyGraph) Subgraph(id SID) *Subgraph {
	if id < 0 || int(id) >= len(h.subgraphs) {
		return nil
	}
	return h.subgraphs[id]
}

// Subgraphs calls fn for every subgraph in ID order.
func (h *HyGraph) Subgraphs(fn func(*Subgraph) bool) {
	for _, s := range h.subgraphs {
		if !fn(s) {
			return
		}
	}
}

// SetSubgraphProp sets φ(s, key) = val.
func (h *HyGraph) SetSubgraphProp(id SID, key string, val lpg.Value) error {
	s := h.Subgraph(id)
	if s == nil {
		return ErrNoSubgraph
	}
	h.version++
	s.props[key] = val
	return nil
}

// Prop returns φ(s, key).
func (s *Subgraph) Prop(key string) lpg.Value { return s.props[key] }

// AddVertexMember records that vertex v belongs to the subgraph during the
// interval (γ membership). Membership is clipped to the subgraph's own
// validity; disjoint intervals are rejected.
func (h *HyGraph) AddVertexMember(sid SID, v VID, during tpg.Interval) error {
	s := h.Subgraph(sid)
	if s == nil {
		return ErrNoSubgraph
	}
	if h.Vertex(v) == nil {
		return ErrNoVertex
	}
	clipped, ok := during.Intersect(s.Valid)
	if !ok {
		return ErrBadInterval
	}
	h.version++
	s.memberV[v] = append(s.memberV[v], clipped)
	return nil
}

// AddEdgeMember records that edge e belongs to the subgraph during the
// interval. Both endpoints become members over the same interval so that
// γ(s,t) always yields a well-formed subgraph (consistency, R2).
func (h *HyGraph) AddEdgeMember(sid SID, eid EID, during tpg.Interval) error {
	s := h.Subgraph(sid)
	if s == nil {
		return ErrNoSubgraph
	}
	e := h.Edge(eid)
	if e == nil {
		return ErrNoEdge
	}
	clipped, ok := during.Intersect(s.Valid)
	if !ok {
		return ErrBadInterval
	}
	h.version++
	s.memberE[eid] = append(s.memberE[eid], clipped)
	if err := h.AddVertexMember(sid, e.From, clipped); err != nil {
		return err
	}
	return h.AddVertexMember(sid, e.To, clipped)
}

// MembersAt evaluates γ(s, t): the vertex and edge sets of the subgraph at
// instant t, in ascending ID order.
func (h *HyGraph) MembersAt(sid SID, t ts.Time) (vs []VID, es []EID) {
	s := h.Subgraph(sid)
	if s == nil || !s.Valid.Contains(t) {
		return nil, nil
	}
	for v, ivs := range s.memberV {
		if anyContains(ivs, t) {
			vs = append(vs, v)
		}
	}
	for e, ivs := range s.memberE {
		if anyContains(ivs, t) {
			es = append(es, e)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	return vs, es
}

// MemberSizeSeries samples |γ(s,t).V| over [start,end) at the given step —
// the evolution of a cluster's size as a time series, used by the fraud
// pipeline's temporal classification stage.
func (h *HyGraph) MemberSizeSeries(sid SID, start, end, step ts.Time) *ts.Series {
	out := ts.New("members")
	if step <= 0 {
		return out
	}
	for t := start; t < end; t += step {
		vs, _ := h.MembersAt(sid, t)
		out.MustAppend(t, float64(len(vs)))
	}
	return out
}

func anyContains(ivs []tpg.Interval, t ts.Time) bool {
	for _, iv := range ivs {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}
