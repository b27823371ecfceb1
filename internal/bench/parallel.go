package bench

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"hygraph/internal/dataset"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// ParallelRow compares one multi-station query sequential vs fanned-out on
// the polyglot engine.
type ParallelRow struct {
	Query   string
	Desc    string
	SeqMRS  float64 // ms, workers=1
	SeqCV   float64 // %
	ParMRS  float64 // ms, workers=N
	ParCV   float64 // %
	Speedup float64 // SeqMRS / ParMRS
	// Identical reports whether the parallel result was deep-equal to the
	// sequential one — the correctness gate of the parallel executor.
	Identical bool
}

// RunParallel loads the polyglot engine once and times the multi-station
// queries the worker pool fans out, Q4–Q8 (Q7 rides along to exercise the
// resample cache under the same harness), sequentially (workers=1) and
// fanned out (cfg.Workers, defaulting to GOMAXPROCS when unset), verifying
// that both modes return identical results. Workers reports the fan-out
// width actually used.
func RunParallel(ctx context.Context, cfg Config) (rows []ParallelRow, workers int, err error) {
	workers = cfg.Workers
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	data := dataset.GenerateBike(cfg.Bike)
	pg := ttdb.NewPolyglot(ts.Week)
	ids, err := data.LoadEngine(pg)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: loading %s: %w", pg.Name(), err)
	}
	if cfg.Obs != nil {
		pg.Instrument(cfg.Obs)
	}
	for _, q := range fanoutQueries(data, ids) {
		row := ParallelRow{Query: q.Op.String(), Desc: q.Op.Describe()}
		pg.SetWorkers(1)
		seqRes, seqMRS, seqCV, err := timeQuery(ctx, pg, q, cfg.Reps)
		if err != nil {
			return nil, 0, err
		}
		pg.SetWorkers(workers)
		parRes, parMRS, parCV, err := timeQuery(ctx, pg, q, cfg.Reps)
		if err != nil {
			return nil, 0, err
		}
		row.SeqMRS, row.SeqCV = seqMRS, seqCV
		row.ParMRS, row.ParCV = parMRS, parCV
		if parMRS > 0 {
			row.Speedup = seqMRS / parMRS
		}
		row.Identical = reflect.DeepEqual(seqRes, parRes)
		rows = append(rows, row)
	}
	return rows, workers, nil
}

// fanoutOps are the multi-station operations the in-engine worker pool fans
// out and the coordinator scatters — the rows of the parallel and partition
// sections, and the tail of the canonical workload.
var fanoutOps = []ttdb.Op{ttdb.OpQ4, ttdb.OpQ5, ttdb.OpQ6, ttdb.OpQ7, ttdb.OpQ8}

func fanoutQueries(data *dataset.BikeData, ids []ttdb.StationID) []ttdb.Query {
	return data.Table1Queries(ids)[fanoutOps[0]-ttdb.OpQ1:]
}

// FormatParallel renders the sequential-vs-parallel comparison.
func FormatParallel(rows []ParallelRow, workers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "polyglot engine, %d workers\n", workers)
	fmt.Fprintf(&b, "%-5s %12s %8s %12s %8s %10s %10s  %s\n",
		"Query", "sequential", "CV(%)", "parallel", "CV(%)", "speedup", "identical", "description")
	fmt.Fprintf(&b, "%-5s %12s %8s %12s %8s %10s %10s\n",
		"", "MRS (ms)", "", "MRS (ms)", "", "", "")
	fmt.Fprintln(&b, strings.Repeat("-", 110))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %12.3f %8.2f %12.3f %8.2f %9.2fx %10v  %s\n",
			r.Query, r.SeqMRS, r.SeqCV, r.ParMRS, r.ParCV, r.Speedup, r.Identical, r.Desc)
	}
	return b.String()
}
