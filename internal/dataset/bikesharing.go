// Package dataset generates the synthetic workloads every experiment runs
// on: a NYC-style bike-sharing network (substituting the paper's Zenodo
// dataset [52]), a credit-card fraud workload with planted behaviours
// (the Figure 2 / Figure 4 running example), and an IoT plant
// (the Section 2 smart-manufacturing use case). All generators are
// deterministic for a given seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// BikeConfig parameterizes the bike-sharing generator.
type BikeConfig struct {
	Stations    int
	Districts   int
	Days        int
	StepMinutes int // sampling period of the availability series
	TripsPerSt  int // aggregated trip edges per station
	Seed        int64
}

// DefaultBike is the small configuration used by tests and examples.
func DefaultBike() BikeConfig {
	return BikeConfig{Stations: 50, Districts: 5, Days: 14, StepMinutes: 60, TripsPerSt: 4, Seed: 1}
}

// Table1Bike is the configuration the Table 1 harness uses by default:
// hourly availability for a year across 500 stations (~4.4M points).
func Table1Bike() BikeConfig {
	return BikeConfig{Stations: 500, Districts: 12, Days: 365, StepMinutes: 60, TripsPerSt: 6, Seed: 7}
}

// BikeStation is one generated station.
type BikeStation struct {
	Name         string
	District     string
	Capacity     int
	Availability *ts.Series
}

// BikeTrip is one aggregated trip edge.
type BikeTrip struct {
	From, To int // station indexes
	Count    int
}

// BikeData is a generated bike-sharing network.
type BikeData struct {
	Config   BikeConfig
	Stations []BikeStation
	Trips    []BikeTrip
}

// GenerateBike builds the network: stations assigned round-robin to
// districts, trip edges to nearby stations, and availability series with
// daily and weekly seasonality plus noise — morning/evening commuter dips
// like the real network.
func GenerateBike(cfg BikeConfig) *BikeData {
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := &BikeData{Config: cfg}
	step := ts.Time(cfg.StepMinutes) * ts.Minute
	points := cfg.Days * 24 * 60 / cfg.StepMinutes
	for i := 0; i < cfg.Stations; i++ {
		district := fmt.Sprintf("district-%d", i%cfg.Districts)
		capacity := 20 + rng.Intn(30)
		base := float64(capacity) * (0.4 + 0.3*rng.Float64())
		phase := rng.Float64() * 2 * math.Pi
		s := ts.New(ttdb.Metric)
		for p := 0; p < points; p++ {
			t := ts.Time(p) * step
			hour := float64(t%ts.Day) / float64(ts.Hour)
			day := int(t / ts.Day)
			daily := 0.25 * base * math.Sin(2*math.Pi*hour/24+phase)
			weekly := 0.0
			if day%7 >= 5 {
				weekly = 0.15 * base // weekend surplus
			}
			v := base + daily + weekly + rng.NormFloat64()*0.05*base
			if v < 0 {
				v = 0
			}
			if v > float64(capacity) {
				v = float64(capacity)
			}
			s.MustAppend(t, v)
		}
		data.Stations = append(data.Stations, BikeStation{
			Name:         fmt.Sprintf("station-%03d", i),
			District:     district,
			Capacity:     capacity,
			Availability: s,
		})
	}
	for i := 0; i < cfg.Stations; i++ {
		for k := 0; k < cfg.TripsPerSt; k++ {
			// Prefer nearby station indexes (spatial locality proxy).
			j := i + 1 + rng.Intn(5)
			if j >= cfg.Stations {
				j = rng.Intn(cfg.Stations)
			}
			if j == i {
				continue
			}
			data.Trips = append(data.Trips, BikeTrip{From: i, To: j, Count: 1 + rng.Intn(100)})
		}
	}
	return data
}

// Span returns the generated time range [0, end).
func (d *BikeData) Span() (start, end ts.Time) {
	return 0, ts.Time(d.Config.Days) * ts.Day
}

// LoadEngine loads the dataset into a Table 1 storage engine, returning the
// station ids in generation order.
func (d *BikeData) LoadEngine(e ttdb.Engine) ([]ttdb.StationID, error) {
	ids := make([]ttdb.StationID, len(d.Stations))
	for i, st := range d.Stations {
		id, err := e.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			return nil, fmt.Errorf("dataset: station %s: %w", st.Name, err)
		}
		ids[i] = id
	}
	for _, tr := range d.Trips {
		if err := e.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			return nil, fmt.Errorf("dataset: trip %d->%d: %w", tr.From, tr.To, err)
		}
	}
	return ids, nil
}

// Table1Queries returns the canonical Table 1 workload over this dataset, in
// Q1..Q8 order — the one list every harness section and `hygraph stats`
// times. The window is the middle half of the span (Q1 probes its first two
// days); the probed station is the first one loaded and Q7 pairs it with the
// middle one. ids are the station ids LoadEngine (or an ingest loop in the
// same order) returned.
func (d *BikeData) Table1Queries(ids []ttdb.StationID) []ttdb.Query {
	start, end := d.Span()
	qs := start + (end-start)/4
	qe := qs + (end-start)/2
	st0, st1 := ids[0], ids[len(ids)/2]
	return []ttdb.Query{
		ttdb.Q1(st0, qs, qs+2*ts.Day),
		ttdb.Q2(st0, qs, qe, 10),
		ttdb.Q3(st0, qs, qe),
		ttdb.Q4(qs, qe),
		ttdb.Q5(qs, qe),
		ttdb.Q6(qs, qe, 10),
		ttdb.Q7(st0, st1, qs, qe, ts.Hour),
		ttdb.Q8(st0, qs, qe),
	}
}

// ToHyGraph builds a HyGraph instance: stations as PG vertices, their
// availability as first-class TS vertices linked by HAS_SERIES edges, and
// trips as PG edges carrying a count property.
func (d *BikeData) ToHyGraph() (*core.HyGraph, []core.VID) {
	h := core.New()
	ids := make([]core.VID, len(d.Stations))
	for i, st := range d.Stations {
		v, err := h.AddVertex(tpg.Always, "Station")
		if err != nil {
			panic(err)
		}
		h.SetVertexProp(v, "name", lpg.Str(st.Name))
		h.SetVertexProp(v, "district", lpg.Str(st.District))
		h.SetVertexProp(v, "capacity", lpg.Int(int64(st.Capacity)))
		tsv, err := h.AddTSVertexUni(st.Availability, "Availability")
		if err != nil {
			panic(err)
		}
		if _, err := h.AddEdge(v, tsv, "HAS_SERIES", tpg.Always); err != nil {
			panic(err)
		}
		ids[i] = v
	}
	for _, tr := range d.Trips {
		e, err := h.AddEdge(ids[tr.From], ids[tr.To], "TRIP", tpg.Always)
		if err != nil {
			panic(err)
		}
		h.SetEdgeProp(e, "count", lpg.Int(int64(tr.Count)))
	}
	return h, ids
}
