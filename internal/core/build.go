package core

import (
	"fmt"

	"hygraph/internal/tpg"
)

// This file implements the <X>ToHyGraph interface (Section 5, Figure 4):
// integrating existing graphs and time series into a HyGraph instance
// without losing structural or temporal information (requirement R1).

// TPGMapping records how temporal-graph elements map into a HyGraph.
type TPGMapping struct {
	VertexOf map[tpg.VID]VID
	EdgeOf   map[tpg.EID]EID
}

// FromTPG imports a temporal property graph: every vertex and edge becomes a
// PG element with the same labels, properties and validity. The import is
// lossless — ToTPG inverts it (round-trip tested).
func FromTPG(g *tpg.Graph) (*HyGraph, TPGMapping) {
	h := New()
	m := TPGMapping{VertexOf: map[tpg.VID]VID{}, EdgeOf: map[tpg.EID]EID{}}
	g.Vertices(func(v *tpg.Vertex) bool {
		id, err := h.AddVertex(v.Valid, v.Labels...)
		if err != nil {
			panic(fmt.Sprintf("core: FromTPG vertex %d: %v", v.ID, err))
		}
		for _, k := range v.PropKeys() {
			h.SetVertexProp(id, k, v.Prop(k))
		}
		m.VertexOf[v.ID] = id
		return true
	})
	g.Edges(func(e *tpg.Edge) bool {
		id, err := h.AddEdge(m.VertexOf[e.From], m.VertexOf[e.To], e.Label, e.Valid)
		if err != nil {
			panic(fmt.Sprintf("core: FromTPG edge %d: %v", e.ID, err))
		}
		for _, k := range e.PropKeys() {
			h.SetEdgeProp(id, k, e.Prop(k))
		}
		m.EdgeOf[e.ID] = id
		return true
	})
	return h, m
}
