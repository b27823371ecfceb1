package core

import "hygraph/internal/tpg"

// AddSubgraph creates a logical subgraph s ∈ S with validity ρ(s). Its
// time-varying membership γ(s, t) is not materialised: nothing reads it.
func (h *HyGraph) AddSubgraph(valid tpg.Interval, labels ...string) (SID, error) {
	if !valid.Valid() {
		return 0, ErrBadInterval
	}
	s := &Subgraph{
		ID:     SID(len(h.subgraphs)),
		Labels: append([]string(nil), labels...),
		Valid:  valid,
	}
	h.subgraphs = append(h.subgraphs, s)
	return s.ID, nil
}
