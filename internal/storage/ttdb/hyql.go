package ttdb

import (
	"fmt"
	"math"

	"hygraph/internal/core"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// HyQL over the stores. The graph store holds structure, the hypertable
// holds samples, and a HyQL query visits both in place: Structure lays the
// stations and trips out as the graph HyQL matches against, with every
// availability series attached as a StoreSeries handle, and the ts.*
// functions of a query read the hypertable through those handles.

// seriesObs counts how store-backed handles answered. The zero value is the
// disabled state.
type seriesObs struct {
	pushdown *obs.Counter // calls answered from chunk summaries or the aggregate cache
	decoded  *obs.Counter // points handed to the evaluator after a block decode
}

func newSeriesObs(r *obs.Registry) seriesObs {
	if r == nil {
		return seriesObs{}
	}
	return seriesObs{
		pushdown: r.Counter("hyql.series.pushdown"),
		decoded:  r.Counter("hyql.series.decoded_points"),
	}
}

// StoreSeries is hyql.Series over one station's series where it lives.
// count/sum/mean/min/max come from chunk summaries (tsstore.Aggregate), a
// windowed resample or correlation from the write-through aggregate cache
// (Downsample, CorrelateResampled), and everything else decodes only the
// window asked for. It holds no samples and no derived state, so a read
// through it sees every acknowledged append.
type StoreSeries struct {
	eng *Polyglot
	key tsstore.SeriesKey
}

// Series returns the handle of a station's availability series.
func (p *Polyglot) Series(st StationID) *StoreSeries {
	return &StoreSeries{eng: p, key: key(st)}
}

// String identifies the series, not its contents.
func (s *StoreSeries) String() string {
	return fmt.Sprintf("%s@%d", s.key.Metric, s.key.Entity)
}

// Span implements hyql.Series.
func (s *StoreSeries) Span() (ts.Time, ts.Time, bool) { return s.eng.T.Span(s.key) }

// Aggregate implements hyql.Series.
func (s *StoreSeries) Aggregate(agg ts.AggFunc, start, end ts.Time) float64 {
	switch agg {
	case ts.AggCount, ts.AggSum, ts.AggMean, ts.AggMin, ts.AggMax:
	default:
		return s.Range(start, end).Aggregate(agg)
	}
	sum := s.eng.T.Aggregate(s.key, start, end)
	// A summary's min and max skip NaN samples; ts.AggMin and ts.AggMax
	// answer NaN when the window's first sample is NaN. A NaN sum is the
	// cheap sign that the window may hold one — decode it then.
	if (agg == ts.AggMin || agg == ts.AggMax) && math.IsNaN(sum.Sum) {
		return s.Range(start, end).Aggregate(agg)
	}
	s.eng.series.pushdown.Inc()
	switch agg {
	case ts.AggCount:
		return float64(sum.Count)
	case ts.AggSum:
		return sum.Sum
	case ts.AggMean:
		return sum.Mean()
	case ts.AggMin:
		return sum.Min
	}
	return sum.Max
}

// Range implements hyql.Series.
func (s *StoreSeries) Range(start, end ts.Time) *ts.Series {
	out := s.eng.T.RangeSeries(s.key, start, end)
	s.eng.series.decoded.Add(int64(out.Len()))
	return out
}

// Resample implements hyql.Series.
func (s *StoreSeries) Resample(start, end, bucket ts.Time, agg ts.AggFunc) *ts.Series {
	if bucket <= 0 || start >= end {
		return ts.New(s.String())
	}
	s.eng.series.pushdown.Inc()
	return s.eng.T.Downsample(s.key, start, end, bucket, agg)
}

// Corr implements hyql.Series. Two series of one hypertable correlate
// inside it; a pair split across partitions joins its two cached resamples.
func (s *StoreSeries) Corr(other hyql.Series, start, end, bucket ts.Time) float64 {
	o, ok := other.(*StoreSeries)
	if !ok || o.eng.T != s.eng.T {
		return hyql.ResampledCorr(s, other, start, end, bucket)
	}
	if bucket <= 0 || start >= end {
		return math.NaN()
	}
	s.eng.series.pushdown.Inc()
	return s.eng.T.CorrelateResampled(s.key, o.key, start, end, bucket)
}

// ViewStation is one station as HyQL sees it.
type ViewStation struct {
	Name, District string
	Series         hyql.Series
}

// ViewTrip is one TRIP edge between two entries of a ViewStation slice.
type ViewTrip struct {
	From, To int
	Count    int64
}

// BuildView lays stations and trips out in the shape
// dataset.BikeData.ToHyGraph projects to: a Station vertex with name and
// district, its series as an Availability TS vertex behind a HAS_SERIES
// edge, then the TRIP edges with their count — so a HyQL query written
// against a generated dataset runs unchanged against a served tenant. The
// graph holds handles, not samples; hyql.View decides per query which TS
// vertices are valid.
func BuildView(stations []ViewStation, trips []ViewTrip) *lpg.Graph {
	g := lpg.NewGraph()
	pg, tsKind := lpg.Str(core.PG.String()), lpg.Str(core.TS.String())
	vids := make([]lpg.VertexID, len(stations))
	for i, st := range stations {
		v := g.AddVertex("Station")
		g.SetVertexProp(v, "name", lpg.Str(st.Name))
		g.SetVertexProp(v, "district", lpg.Str(st.District))
		g.SetVertexProp(v, core.KindPropKey, pg)
		vids[i] = v
		a := g.AddVertex("Availability")
		g.SetVertexProp(a, core.KindPropKey, tsKind)
		g.SetVertexProp(a, core.SeriesPropKey, lpg.SeriesRef(st.Series))
		e := g.AddEdge(v, a, "HAS_SERIES")
		g.SetEdgeProp(e, core.KindPropKey, pg)
	}
	for _, tr := range trips {
		e := g.AddEdge(vids[tr.From], vids[tr.To], "TRIP")
		g.SetEdgeProp(e, "count", lpg.Int(tr.Count))
		g.SetEdgeProp(e, core.KindPropKey, pg)
	}
	return g
}

// Structure is BuildView over this engine's own stores: stations in label-
// index order, each logical trip once.
func (p *Polyglot) Structure() *lpg.Graph {
	ids := p.G.NodesByLabel("Station")
	index := make(map[StationID]int, len(ids))
	stations := make([]ViewStation, len(ids))
	for i, st := range ids {
		index[st] = i
		name, _ := p.G.NodeProp(st, "name")
		district, _ := p.G.NodeProp(st, "district")
		stations[i] = ViewStation{Name: name.S, District: district.S, Series: p.Series(st)}
	}
	var trips []ViewTrip
	seen := map[graphstore.RelID]bool{}
	for _, st := range ids {
		p.G.Rels(st, func(r graphstore.Rel) bool {
			from, okF := index[r.From]
			to, okT := index[r.To]
			if r.Type != "TRIP" || seen[r.ID] || !okF || !okT {
				return true
			}
			seen[r.ID] = true
			count, _ := p.G.RelProp(r.ID, "count")
			trips = append(trips, ViewTrip{From: from, To: to, Count: count.I})
			return true
		})
	}
	return BuildView(stations, trips)
}
