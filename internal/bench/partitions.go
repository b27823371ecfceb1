package bench

// The partition-scaling section (hybench -partitions): the scatter-gather
// coordinator at increasing partition counts against the single-engine
// polyglot oracle. Two claims are recorded per level — correctness (results
// element-wise identical to the oracle, the partition-invariance guarantee)
// and scaling (Q4–Q8 mean response time vs the 1-partition reference).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"hygraph/internal/coord"
	"hygraph/internal/dataset"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// PartitionRow is one query at one partition count.
type PartitionRow struct {
	Query string  `json:"query"`
	Desc  string  `json:"desc"`
	MRS   float64 `json:"mrs_ms"` // ms
	CV    float64 `json:"cv_pct"` // %
	// Speedup is MRS at 1 partition / MRS here — the scaling headline.
	Speedup float64 `json:"speedup"`
}

// PartitionLevel is the measured Q4–Q8 block at one partition count.
type PartitionLevel struct {
	Parts int            `json:"parts"`
	Rows  []PartitionRow `json:"rows"`
	// Identical reports whether every Q1–Q8 answer at this partition count
	// was element-wise equal (1e-9) to the single-engine oracle — the
	// correctness gate of the scatter-gather merge.
	Identical bool `json:"identical"`
}

// PartitionsReport is the -partitions section of the baseline.
type PartitionsReport struct {
	Counts []int `json:"counts"`
	// Procs is GOMAXPROCS at run time. The monotone-speedup check is gated
	// on it: a 1-CPU box serializes the fan-out, so only the correctness
	// half of the section is meaningful there.
	Procs  int              `json:"procs"`
	Levels []PartitionLevel `json:"levels"`
}

// scalingGateProcs is the GOMAXPROCS below which checkPartitions drops its
// monotone-speedup gate: with fewer cores the fan-out serializes and a
// speedup regression says nothing about the coordinator.
const scalingGateProcs = 4

// RunPartitions loads the single-engine oracle once and the coordinator at
// each partition count, verifies element-wise identity of the Q1–Q8 answers,
// and times Q4–Q8 (fanoutOps) per level.
func RunPartitions(ctx context.Context, cfg Config, counts []int) (PartitionsReport, error) {
	rep := PartitionsReport{Counts: counts, Procs: runtime.GOMAXPROCS(0)}
	if len(counts) == 0 {
		return rep, fmt.Errorf("bench: -partitions needs at least one count")
	}
	data := dataset.GenerateBike(cfg.Bike)
	ora := ttdb.NewPolyglot(ts.Week)
	oIDs, err := data.LoadEngine(ora)
	if err != nil {
		return rep, fmt.Errorf("bench: loading %s: %w", ora.Name(), err)
	}

	var base []float64 // 1st level's MRS per query, the speedup denominator
	for li, n := range counts {
		c, err := coord.NewMem(n, ts.Week)
		if err != nil {
			return rep, fmt.Errorf("bench: partitions=%d: %w", n, err)
		}
		cIDs, err := data.LoadEngine(c)
		if err != nil {
			return rep, fmt.Errorf("bench: loading %s@%d: %w", c.Name(), n, err)
		}
		c.SetWorkers(cfg.Workers)
		if cfg.Obs != nil {
			c.Instrument(cfg.Obs)
		}
		lvl := PartitionLevel{Parts: n}
		if lvl.Identical, err = partitionsIdentical(ctx, data, ora, oIDs, c, cIDs); err != nil {
			return rep, fmt.Errorf("bench: partitions=%d: %w", n, err)
		}
		for qi, q := range fanoutQueries(data, cIDs) {
			_, mrs, cv, err := timeQuery(ctx, c, q, cfg.Reps)
			if err != nil {
				return rep, fmt.Errorf("bench: partitions=%d: %w", n, err)
			}
			row := PartitionRow{Query: q.Op.String(), Desc: q.Op.Describe(), MRS: mrs, CV: cv}
			if li == 0 {
				base = append(base, mrs)
				row.Speedup = 1
			} else if mrs > 0 && qi < len(base) {
				row.Speedup = base[qi] / mrs
			}
			lvl.Rows = append(lvl.Rows, row)
		}
		rep.Levels = append(rep.Levels, lvl)
	}
	return rep, nil
}

// partitionsIdentical compares every Q1–Q8 answer of the coordinator against
// the oracle, element-wise within 1e-9. Station ids differ between the two
// engines, so answers are aligned through the shared ingest order: oIDs[i]
// and cIDs[i] name the same logical station. An error from either side — a
// PartialError from the coordinator included — fails the gate instead of
// comparing a partial answer.
func partitionsIdentical(ctx context.Context, data *dataset.BikeData, ora ttdb.Querier, oIDs []ttdb.StationID, c ttdb.Querier, cIDs []ttdb.StationID) (bool, error) {
	const tol = 1e-9
	eq := func(a, b float64) bool {
		if math.IsNaN(a) && math.IsNaN(b) {
			return true
		}
		return math.Abs(a-b) <= tol
	}
	if len(oIDs) != len(cIDs) || len(oIDs) == 0 {
		return false, nil
	}
	// toOracle maps a coordinator station id onto the oracle's.
	toOracle := make(map[ttdb.StationID]ttdb.StationID, len(cIDs))
	for i := range cIDs {
		toOracle[cIDs[i]] = oIDs[i]
	}
	cQs := data.Table1Queries(cIDs)
	for i, oq := range data.Table1Queries(oIDs) {
		want, err := ora.Exec(ctx, oq)
		if err != nil {
			return false, fmt.Errorf("oracle %s: %w", oq.Op, err)
		}
		got, err := c.Exec(ctx, cQs[i])
		if err != nil {
			return false, fmt.Errorf("coordinator %s: %w", oq.Op, err)
		}
		if len(got.Points) != len(want.Points) || len(got.ByStation) != len(want.ByStation) ||
			len(got.ByDistrict) != len(want.ByDistrict) || len(got.Stations) != len(want.Stations) ||
			!eq(got.Scalar, want.Scalar) {
			return false, nil
		}
		for j, p := range want.Points {
			if p.T != got.Points[j].T || !eq(p.V, got.Points[j].V) {
				return false, nil
			}
		}
		for st, v := range got.ByStation {
			if w, ok := want.ByStation[toOracle[st]]; !ok || !eq(v, w) {
				return false, nil
			}
		}
		for k, v := range want.ByDistrict {
			if w, ok := got.ByDistrict[k]; !ok || !eq(v, w) {
				return false, nil
			}
		}
		for j, st := range got.Stations {
			if toOracle[st] != want.Stations[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// FormatPartitions renders the partition-scaling section.
func FormatPartitions(r PartitionsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition scaling — coordinator over N in-process partitions, %d procs\n", r.Procs)
	fmt.Fprintf(&b, "%-6s %-5s %12s %8s %10s %10s  %s\n",
		"parts", "Query", "MRS (ms)", "CV(%)", "speedup", "identical", "description")
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	for _, lvl := range r.Levels {
		for i, row := range lvl.Rows {
			parts := ""
			if i == 0 {
				parts = fmt.Sprintf("%d", lvl.Parts)
			}
			fmt.Fprintf(&b, "%-6s %-5s %12.3f %8.2f %9.2fx %10v  %s\n",
				parts, row.Query, row.MRS, row.CV, row.Speedup, lvl.Identical, row.Desc)
		}
	}
	if r.Procs < scalingGateProcs {
		fmt.Fprintf(&b, "scaling gate: skipped — needs ≥%d procs, have %d\n", scalingGateProcs, r.Procs)
	}
	return b.String()
}

// checkPartitions validates the structural invariants of the partitions
// section: the 1-partition reference leads at least two strictly increasing
// levels, every level is element-wise identical to the oracle, all timings
// are finite, and — on boxes with enough cores for the fan-out to mean
// anything (Procs ≥ scalingGateProcs) — the Q4–Q8 speedup grows
// monotonically with the partition count (2% measurement-noise allowance).
func checkPartitions(r *PartitionsReport) []string {
	var problems []string
	if r.Procs < 1 {
		problems = append(problems, fmt.Sprintf("partitions: procs %d not positive", r.Procs))
	}
	if len(r.Levels) < 2 {
		problems = append(problems, fmt.Sprintf(
			"partitions: %d levels; scaling needs at least the reference and one fan-out", len(r.Levels)))
	}
	if len(r.Counts) != len(r.Levels) {
		problems = append(problems, fmt.Sprintf(
			"partitions: %d counts but %d levels", len(r.Counts), len(r.Levels)))
	}
	if len(r.Levels) > 0 && r.Levels[0].Parts != 1 {
		problems = append(problems, fmt.Sprintf(
			"partitions: first level is %d partitions, want the 1-partition reference", r.Levels[0].Parts))
	}
	prev := 0
	for _, lvl := range r.Levels {
		tag := fmt.Sprintf("partitions@%d", lvl.Parts)
		if lvl.Parts <= prev {
			problems = append(problems, fmt.Sprintf("%s: counts not strictly increasing", tag))
		}
		prev = lvl.Parts
		if !lvl.Identical {
			problems = append(problems, fmt.Sprintf("%s: results differ from the single-engine oracle", tag))
		}
		if len(lvl.Rows) != len(fanoutOps) {
			problems = append(problems, fmt.Sprintf("%s: %d rows, want %d", tag, len(lvl.Rows), len(fanoutOps)))
			continue
		}
		for i, row := range lvl.Rows {
			if row.Query != fanoutOps[i].String() {
				problems = append(problems, fmt.Sprintf("%s: row %d is %q, want %q", tag, i, row.Query, fanoutOps[i]))
			}
			for _, m := range []struct {
				name string
				v    float64
			}{{"MRS", row.MRS}, {"CV", row.CV}, {"Speedup", row.Speedup}} {
				if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
					problems = append(problems, fmt.Sprintf(
						"%s.%s.%s = %v not a finite non-negative number", tag, row.Query, m.name, m.v))
				}
			}
		}
	}
	if r.Procs >= scalingGateProcs && len(r.Levels) >= 2 {
		for qi, q := range fanoutOps {
			for li := 1; li < len(r.Levels); li++ {
				if len(r.Levels[li].Rows) != len(fanoutOps) || len(r.Levels[li-1].Rows) != len(fanoutOps) {
					continue
				}
				sp, spPrev := r.Levels[li].Rows[qi].Speedup, r.Levels[li-1].Rows[qi].Speedup
				if sp < spPrev*0.98 {
					problems = append(problems, fmt.Sprintf(
						"partitions: %s speedup regressed %d→%d partitions (%.2fx → %.2fx)",
						q, r.Levels[li-1].Parts, r.Levels[li].Parts, spPrev, sp))
				}
			}
		}
	}
	return problems
}
