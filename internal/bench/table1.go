// Package bench drives the paper's Table 1 experiment: the same eight
// queries against the all-in-graph engine (Neo4j baseline) and the polyglot
// engine (TimeTravelDB), reporting Mean Response Time and Coefficient of
// Variation per query per system, plus the speedup.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"hygraph/internal/dataset"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// Row is one line of the Table 1 reproduction.
type Row struct {
	Query   string
	Desc    string
	NeoMRS  float64 // ms
	NeoCV   float64 // %
	TTDBMRS float64 // ms
	TTDBCV  float64 // %
	Speedup float64 // NeoMRS / TTDBMRS
}

// Config scopes one Table 1 run.
type Config struct {
	Bike dataset.BikeConfig
	Reps int
	// Workers is the Q4–Q8 fan-out width handed to both engines
	// (<= 1 = sequential, the Table 1 reference condition).
	Workers int
	// EffectiveWorkers records the fan-out width the parallel comparison
	// actually used. When Workers is 0 RunParallel resolves it to GOMAXPROCS
	// at run time; a committed baseline must carry the resolved value or the
	// run is not reproducible from its config alone.
	EffectiveWorkers int `json:"effective_workers,omitempty"`
	// Obs, when non-nil, is attached to every engine the harness builds, so
	// the run accumulates query timers and store counters. Never serialized.
	Obs *obs.Registry `json:"-"`
}

// DefaultConfig is a laptop-scale run that still shows the orders-of-
// magnitude separation: 200 stations, 180 days hourly (~860k points).
func DefaultConfig() Config {
	return Config{
		Bike: dataset.BikeConfig{Stations: 200, Districts: 8, Days: 180,
			StepMinutes: 60, TripsPerSt: 5, Seed: 7},
		Reps: 7,
	}
}

// PaperScaleConfig approaches the paper's dataset scale (500 stations, one
// year of hourly data, ~4.4M points). Expect several minutes.
func PaperScaleConfig() Config {
	return Config{Bike: dataset.Table1Bike(), Reps: 10}
}

// Run generates the workload, loads both engines and times all eight
// queries, returning the table rows in query order.
func Run(ctx context.Context, cfg Config) ([]Row, error) {
	data := dataset.GenerateBike(cfg.Bike)
	neo := ttdb.NewAllInGraph()
	pg := ttdb.NewPolyglot(ts.Week)
	idsNeo, err := data.LoadEngine(neo)
	if err != nil {
		return nil, fmt.Errorf("bench: loading %s: %w", neo.Name(), err)
	}
	idsPg, err := data.LoadEngine(pg)
	if err != nil {
		return nil, fmt.Errorf("bench: loading %s: %w", pg.Name(), err)
	}
	neo.SetWorkers(cfg.Workers)
	pg.SetWorkers(cfg.Workers)
	if cfg.Obs != nil {
		neo.Instrument(cfg.Obs)
		pg.Instrument(cfg.Obs)
	}
	neoQs, pgQs := data.Table1Queries(idsNeo), data.Table1Queries(idsPg)

	rows := make([]Row, len(pgQs))
	for i, q := range pgQs {
		row := Row{Query: q.Op.String(), Desc: q.Op.Describe()}
		_, neoSample, err := prepareQuery(ctx, neo, neoQs[i])
		if err != nil {
			return nil, err
		}
		_, pgSample, err := prepareQuery(ctx, pg, q)
		if err != nil {
			return nil, err
		}
		// The engines' samples alternate, so a change in machine load
		// between reps reaches both sides of the speedup alike.
		neoMS, pgMS := make([]float64, cfg.Reps), make([]float64, cfg.Reps)
		for r := range neoMS {
			if neoMS[r], err = neoSample(); err != nil {
				return nil, err
			}
			if pgMS[r], err = pgSample(); err != nil {
				return nil, err
			}
		}
		row.NeoMRS, row.NeoCV = stats(neoMS)
		row.TTDBMRS, row.TTDBCV = stats(pgMS)
		if row.TTDBMRS > 0 {
			row.Speedup = row.NeoMRS / row.TTDBMRS
		}
		rows[i] = row
	}
	return rows, nil
}

// minSampleTime is the shortest wall time one timed sample spans. A query that
// runs faster is timed in batches of a fixed size, and the sample is the
// batch's time per run: a scheduler preemption or GC pause then spreads over
// a millisecond-scale batch instead of multiplying one microsecond-scale
// run, which on a loaded machine swung a 5 µs query's mean tenfold.
const minSampleTime = 2 * time.Millisecond

// prepareQuery runs q once unmeasured (the warm-up rep, whose answer it
// returns) and sizes the batch by doubling it until one batch spans
// minSampleTime (one run for any query that slow). The returned sample times
// one batch and reports its time per run (ms). Any error — a degraded or
// partial answer included — fails the measurement: a section must not time
// answers it would not accept.
func prepareQuery(ctx context.Context, e ttdb.Querier, q ttdb.Query) (ttdb.Result, func() (float64, error), error) {
	res, err := e.Exec(ctx, q)
	if err != nil {
		return res, nil, fmt.Errorf("bench: %s: %w", q.Op, err)
	}
	run := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			if _, err := e.Exec(ctx, q); err != nil {
				return 0, fmt.Errorf("bench: %s: %w", q.Op, err)
			}
		}
		return time.Since(t0), nil
	}
	batch := 1
	for {
		d, err := run(batch)
		if err != nil {
			return res, nil, err
		}
		if d >= minSampleTime {
			break
		}
		batch *= 2
	}
	return res, func() (float64, error) {
		d, err := run(batch)
		return float64(d.Nanoseconds()) / 1e6 / float64(batch), err
	}, nil
}

// timeQuery times reps batches of q on e, reporting the warm-up answer, the
// mean response time per run (ms) and the coefficient of variation (%) of
// the batch samples.
func timeQuery(ctx context.Context, e ttdb.Querier, q ttdb.Query, reps int) (res ttdb.Result, mrs, cv float64, err error) {
	res, sample, err := prepareQuery(ctx, e, q)
	if err != nil {
		return res, 0, 0, err
	}
	samples := make([]float64, reps)
	for r := range samples {
		if samples[r], err = sample(); err != nil {
			return res, 0, 0, err
		}
	}
	mrs, cv = stats(samples)
	return res, mrs, cv, nil
}

// Format renders rows as the paper's Table 1 layout.
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %12s %8s %12s %8s %10s  %s\n",
		"Query", "Neo4j-sim", "CV(%)", "TTDB", "CV(%)", "speedup", "description")
	fmt.Fprintf(&b, "%-5s %12s %8s %12s %8s %10s\n",
		"", "MRS (ms)", "", "MRS (ms)", "", "")
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %12.2f %8.2f %12.2f %8.2f %9.1fx  %s\n",
			r.Query, r.NeoMRS, r.NeoCV, r.TTDBMRS, r.TTDBCV, r.Speedup, r.Desc)
	}
	return b.String()
}

// ShapeCheck verifies the qualitative claims of Table 1 against measured
// rows and returns human-readable violations (empty when the shape holds):
// TTDB must win the aggregation-heavy multi-entity queries Q4–Q6 and Q8 by
// at least minHeavy× (the paper's orders-of-magnitude rows), and must win
// every other query outright. Q7 sits in the second tier here: its cost is
// dominated by the correlation arithmetic both engines share, so our
// in-process reproduction shows a single-digit factor where the paper's
// client-server Cypher pipeline showed ~1000× (see EXPERIMENTS.md).
func ShapeCheck(rows []Row, minHeavy float64) []string {
	var problems []string
	byQ := map[string]Row{}
	for _, r := range rows {
		byQ[r.Query] = r
	}
	for _, q := range []string{"Q4", "Q5", "Q6", "Q8"} {
		if r := byQ[q]; r.Speedup < minHeavy {
			problems = append(problems,
				fmt.Sprintf("%s: speedup %.1fx below %.0fx", q, r.Speedup, minHeavy))
		}
	}
	for _, q := range []string{"Q1", "Q2", "Q3", "Q7"} {
		if r := byQ[q]; r.Speedup < 1 {
			problems = append(problems,
				fmt.Sprintf("%s: TTDB slower than all-in-graph (%.2fx)", q, r.Speedup))
		}
	}
	sort.Strings(problems)
	return problems
}
