package core

import "hygraph/internal/tpg"

// AddSubgraph creates a logical subgraph s ∈ S with validity ρ(s).
func (h *HyGraph) AddSubgraph(valid tpg.Interval, labels ...string) (SID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	s := &Subgraph{
		ID:      SID(len(h.subgraphs)),
		Labels:  append([]string(nil), labels...),
		Valid:   valid,
		memberV: map[VID][]tpg.Interval{},
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
	s.memberV[v] = append(s.memberV[v], clipped)
	return nil
}
