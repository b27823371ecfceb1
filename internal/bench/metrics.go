package bench

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"hygraph/internal/dataset"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// DurableExercise pushes a small slice of the workload through the durable
// polyglot layer so an instrumented run also exercises the WALs and observed
// recovery — the parts a pure query benchmark never touches. It ingests a
// capped version of cfg's bike network into in-memory logs, answers one
// durable query, replays the logs through RecoverPolyglot (recording
// recovery spans into reg), and checks cross-store consistency of the
// recovered engine.
func DurableExercise(ctx context.Context, cfg Config, reg *obs.Registry) error {
	small := cfg.Bike
	if small.Stations > 8 {
		small.Stations = 8
	}
	if small.Days > 7 {
		small.Days = 7
	}
	if small.Districts > small.Stations {
		small.Districts = small.Stations
	}
	data := dataset.GenerateBike(small)
	var graphLog, tsLog bytes.Buffer
	d := ttdb.NewDurable(ts.Week, &graphLog, &tsLog)
	d.Instrument(reg)
	ids, err := preload(ctx, d, data.Stations, data.Trips)
	if err != nil {
		return err
	}
	start, end := data.Span()
	if _, err := d.Exec(ctx, ttdb.Q3(ids[0], start, end)); err != nil {
		return fmt.Errorf("bench: durable query: %w", err)
	}
	// Warm one continuous-aggregate window, then append through the durable
	// path: the instrumented run must show the write-through patch counter
	// moving, not just hit/miss traffic.
	if _, err := d.Exec(ctx, ttdb.Downsample(ids[0], start, end+ts.Week, ts.Day, ts.AggMean)); err != nil {
		return fmt.Errorf("bench: durable downsample: %w", err)
	}
	if err := d.AppendPoint(ids[0], end+ts.Minute, 1); err != nil {
		return fmt.Errorf("bench: durable append: %w", err)
	}
	eng, _, err := ttdb.RecoverPolyglot(
		nil, bytes.NewReader(graphLog.Bytes()),
		nil, bytes.NewReader(tsLog.Bytes()), ts.Week, reg)
	if err != nil {
		return fmt.Errorf("bench: durable recovery: %w", err)
	}
	if err := ttdb.CheckConsistency(eng); err != nil {
		return fmt.Errorf("bench: recovered engine inconsistent: %w", err)
	}
	return nil
}

// preload durably ingests the stations and the trips among them, returning
// the station ids in the given order.
func preload(ctx context.Context, d *ttdb.DurablePolyglot, stations []dataset.BikeStation, trips []dataset.BikeTrip) ([]ttdb.StationID, error) {
	ids := make([]ttdb.StationID, len(stations))
	for i, st := range stations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, err := d.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			return nil, fmt.Errorf("bench: preload %s: %w", st.Name, err)
		}
		ids[i] = id
	}
	for _, tr := range trips {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			return nil, fmt.Errorf("bench: preload trip: %w", err)
		}
	}
	return ids, nil
}

// CheckMetrics verifies that a snapshot from an instrumented benchmark run
// (Run + RunParallel + DurableExercise sharing one registry) shows every
// subsystem actually reporting: nonzero per-query timers on both engines,
// WAL append counts from the durable exercise, and time-series store reads.
// It returns every violation, not just the first.
func CheckMetrics(s *obs.Snapshot) []string {
	var problems []string
	for _, prefix := range []string{"ttdb", "neo4j"} {
		for op := ttdb.OpQ1; op <= ttdb.OpQ8; op++ {
			name := prefix + "." + strings.ToLower(op.String())
			if st, ok := s.Durations[name]; !ok || st.Count == 0 {
				problems = append(problems, fmt.Sprintf("timer %s never fired", name))
			}
		}
	}
	for _, c := range []string{
		"graphstore.wal.appends",
		"tsstore.wal.appends",
		"tsstore.reads",
	} {
		if s.Counters[c] <= 0 {
			problems = append(problems, fmt.Sprintf("counter %s is zero", c))
		}
	}
	return problems
}
