package tpg

import (
	"fmt"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// MetricEvolution computes a per-vertex graph metric at regularly sampled
// instants and returns one series per temporal vertex, sampled only while
// the vertex is valid. This is the paper's metricEvolution operator
// (Section 5): it turns graph structure into time series, demonstrating the
// HyGraphTo<X> duality. metric receives each snapshot and returns the metric
// per snapshot vertex.
func (g *Graph) MetricEvolution(start, end, step ts.Time, name string,
	metric func(*lpg.Graph) map[lpg.VertexID]float64) map[VID]*ts.Series {

	out := map[VID]*ts.Series{}
	if step <= 0 || start >= end {
		return out
	}
	for t := start; t < end; t += step {
		snap := g.SnapshotAt(t)
		vals := metric(snap.Graph)
		for sid, v := range vals {
			tid := snap.TempV[sid]
			s, ok := out[tid]
			if !ok {
				s = ts.New(fmt.Sprintf("%s_v%d", name, tid))
				out[tid] = s
			}
			s.MustAppend(t, v)
		}
	}
	return out
}
