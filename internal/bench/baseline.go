package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
)

// BaselineSchema versions the BENCH_table1.json layout so later PRs can
// detect incompatible baselines instead of mis-reading them. v2 added a
// mixed read/write section and v3 a served-workload section, both since
// removed (hymark and the testing.B benches measure them); v4 added the
// storage section (chunk compression: points-per-MB, compression ratio,
// Q1–Q8 deltas; its cold-tier spill and scan fields went with the tier);
// v5 added the partition-scaling section (scatter-gather coordinator at
// 1/2/4/8 partitions: Q4–Q8 MRS + speedup per level, oracle-identity flag);
// v6 added a streaming section, since removed with the
// invalidate-and-recompute mode it compared against. Removed sections and
// fields were optional, so v6 files without them still read; files that
// still carry one are rejected as unknown.
const BaselineSchema = "hybench-table1/v6"

// Baseline is the machine-readable record of one Table 1 run, written to
// BENCH_table1.json so the performance trajectory is trackable across PRs.
type Baseline struct {
	Schema string `json:"schema"`
	// GeneratedAt is an RFC 3339 stamp, or "" when reproducibility of the
	// byte output matters more than provenance (e.g. committed baselines).
	GeneratedAt string        `json:"generated_at,omitempty"`
	Config      Config        `json:"config"`
	Rows        []Row         `json:"rows"`
	Parallel    []ParallelRow `json:"parallel,omitempty"`
	Workers     int           `json:"workers,omitempty"` // fan-out width of Parallel
	// Metrics is the observability snapshot of the instrumented run
	// (hybench -metrics): per-query timers, WAL/store counters, cache
	// hit rates, and the durable-exercise trace.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Storage is the chunk-compression section (hybench -storage):
	// points-per-MB of the raw vs compressed layouts and the Q1–Q8 latency
	// deltas of a compressed engine.
	Storage *StorageReport `json:"storage,omitempty"`
	// Partitions is the partition-scaling section (hybench -partitions):
	// the scatter-gather coordinator at increasing partition counts, each
	// level oracle-identical and timed on Q4–Q8.
	Partitions *PartitionsReport `json:"partitions,omitempty"`
}

// Validate checks the structural invariants of a baseline: schema tag,
// all eight Table 1 queries present in order, and finite non-negative
// timings. It returns every violation, not just the first.
func (b *Baseline) Validate() []string {
	var problems []string
	if b.Schema != BaselineSchema {
		problems = append(problems, fmt.Sprintf("schema %q, want %q", b.Schema, BaselineSchema))
	}
	if len(b.Rows) != int(ttdb.OpQ8) {
		problems = append(problems, fmt.Sprintf("%d rows, want %d", len(b.Rows), ttdb.OpQ8))
	}
	for i, r := range b.Rows {
		if want := ttdb.OpQ1 + ttdb.Op(i); want <= ttdb.OpQ8 && r.Query != want.String() {
			problems = append(problems, fmt.Sprintf("row %d is %q, want %q", i, r.Query, want))
		}
		for _, m := range []struct {
			name string
			v    float64
		}{
			{"NeoMRS", r.NeoMRS}, {"NeoCV", r.NeoCV},
			{"TTDBMRS", r.TTDBMRS}, {"TTDBCV", r.TTDBCV},
			{"Speedup", r.Speedup},
		} {
			if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
				problems = append(problems, fmt.Sprintf("%s.%s = %v not a finite non-negative number", r.Query, m.name, m.v))
			}
		}
	}
	for _, p := range b.Parallel {
		if !p.Identical {
			problems = append(problems, fmt.Sprintf("parallel %s: results differ from sequential", p.Query))
		}
	}
	if len(b.Parallel) > 0 {
		// The parallel comparison must record the resolved fan-out width:
		// Workers=0 in the config means "GOMAXPROCS at run time", which is
		// machine-dependent and unreproducible unless captured.
		if b.Workers < 1 {
			problems = append(problems, "parallel rows present but resolved worker count not recorded")
		}
		if b.Config.EffectiveWorkers != 0 && b.Config.EffectiveWorkers != b.Workers {
			problems = append(problems, fmt.Sprintf(
				"config.effective_workers %d disagrees with workers %d", b.Config.EffectiveWorkers, b.Workers))
		}
	}
	if b.Metrics != nil {
		problems = append(problems, CheckMetrics(b.Metrics)...)
	}
	if b.Storage != nil {
		problems = append(problems, CheckStorage(b.Storage)...)
	}
	if b.Partitions != nil {
		problems = append(problems, checkPartitions(b.Partitions)...)
	}
	return problems
}

// WriteBaseline serializes the baseline as indented JSON.
func WriteBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBaseline parses and validates a baseline; structural violations are
// returned as an error listing every problem. A field the schema does not
// know — a removed section, say — is a parse error, not silently dropped.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: parsing baseline: %w", err)
	}
	if problems := b.Validate(); len(problems) > 0 {
		return &b, fmt.Errorf("bench: invalid baseline: %v", problems)
	}
	return &b, nil
}
