// Bikesharing: micromobility analytics over the synthetic NYC-style
// network — the paper's urban-micromobility use case (Section 2) and the
// substrate of its Table 1. Demonstrates hybrid aggregation (Q2),
// correlation edges + correlated reachability (Q3), segmentation-driven
// snapshots (Q4) and demand forecasting on a HyGraph instance.
//
//	go run ./examples/bikesharing
package main

import (
	"fmt"
	"log"
	"sort"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/ts"
)

func main() {
	cfg := dataset.DefaultBike()
	data := dataset.GenerateBike(cfg)
	h, stations := data.ToHyGraph()
	fmt.Println("network:", h)

	// --- Hybrid aggregation (Table 2, Q2): districts as super-vertices, ---
	// availability downsampled hourly → daily and summed across stations.
	agg, groups, err := h.HybridAggregate(core.AggregateSpec{
		GroupKey:  func(v *core.Vertex) string { return v.Prop("district").String() },
		Bucket:    ts.Day,
		SeriesAgg: ts.AggMean,
		Combine:   ts.AggSum,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistrict-level summary: %s (%d districts)\n", agg, len(groups))
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, e := range agg.OutEdges(groups[name]) {
			if e.Label != "HAS_SERIES" {
				continue
			}
			if s, ok := agg.Vertex(e.To).SeriesVar(""); ok {
				fmt.Printf("  %-12s daily availability: mean %.0f bikes\n", name, s.Mean())
			}
		}
	}

	// --- Correlation edges + reachability (Table 2, Q3). ------------------
	added, err := h.CorrelationEdges(0.8, ts.Hour, 48)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimilarity edges between correlated stations: %d\n", added)
	// Demand at one station reachable from another through correlated hops?
	sa := seriesVertexOf(h, stations[0])
	sb := seriesVertexOf(h, stations[1])
	if sa >= 0 && sb >= 0 {
		ok := h.CorrelatedReachable(sa, sb, 0.9, ts.Hour, 4)
		fmt.Printf("stations 0 and 1 connected through ≥0.9-correlated hops: %v\n", ok)
	}

	// --- Segmentation-driven snapshots (Table 2, Q4). ---------------------
	// Segment the city-wide availability (weekday/weekend regimes) and
	// snapshot the network at each regime boundary.
	start, end := data.Span()
	var cityWide *ts.Series
	for i, st := range data.Stations {
		daily := st.Availability.Resample(ts.Day, ts.AggMean)
		if i == 0 {
			cityWide = daily
		} else {
			for j := 0; j < daily.Len(); j++ {
				if v, ok := cityWide.Lookup(daily.TimeAt(j)); ok {
					cityWide.Upsert(daily.TimeAt(j), v+daily.ValueAt(j))
				}
			}
		}
	}
	cityWide.SetName("citywide_availability")
	snaps := h.SegmentSnapshots(cityWide, 5, 0.05)
	fmt.Printf("\ncity-wide availability regimes: %d\n", len(snaps))
	for _, s := range snaps {
		fmt.Printf("  from %v (day %2d): mean %.0f bikes, snapshot %s\n",
			s.Segment.Start, int(s.Segment.Start/ts.Day), s.Segment.Mean, s.View.Graph)
	}
	_ = start

	// --- Forecast tomorrow's availability for the busiest station. --------
	top := busiest(data)
	s := data.Stations[top].Availability
	train := s.Slice(start, end-ts.Day)
	forecast, err := train.ARForecast(24, 24, ts.Hour)
	if err != nil {
		log.Fatal(err)
	}
	actual := s.Slice(end-ts.Day, end)
	fmt.Printf("\nforecast for %s (last day, AR(24)): MAE %.2f bikes (series std %.2f)\n",
		data.Stations[top].Name, ts.MAE(forecast, actual), s.Std())
}

// seriesVertexOf returns the TS vertex linked to a station by HAS_SERIES.
func seriesVertexOf(h *core.HyGraph, station core.VID) core.VID {
	for _, e := range h.OutEdges(station) {
		if e.Label == "HAS_SERIES" {
			return e.To
		}
	}
	return -1
}

// busiest returns the station index with the highest mean availability.
func busiest(d *dataset.BikeData) int {
	best, bi := -1.0, 0
	for i, st := range d.Stations {
		if m := st.Availability.Mean(); m > best {
			best = m
			bi = i
		}
	}
	return bi
}
