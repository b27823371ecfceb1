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
// detect incompatible baselines instead of mis-reading them. v2 added the
// mixed read/write throughput section (sharded stores + WAL group commit);
// v3 added the served-workload section (network service under open-loop
// offered load: served QPS, latency quantiles, shed and deadline-miss
// rates); v4 added the storage section (chunk compression + cold tier:
// points-per-MB, compression ratio, cold/warm scan, Q1–Q8 deltas); v5 added
// the partition-scaling section (scatter-gather coordinator at 1/2/4/8
// partitions: Q4–Q8 MRS + speedup per level, oracle-identity flag); v6 added
// a streaming section, since removed with the invalidate-and-recompute mode
// it compared against — it was optional, so v6 files without it still read.
const BaselineSchema = "hybench-table1/v6"

// Baseline is the machine-readable record of one Table 1 run, written to
// BENCH_table1.json so the performance trajectory is trackable across PRs.
type Baseline struct {
	Schema string `json:"schema"`
	// GeneratedAt is an RFC 3339 stamp, or "" when reproducibility of the
	// byte output matters more than provenance (e.g. committed baselines).
	GeneratedAt string            `json:"generated_at,omitempty"`
	Config      Config            `json:"config"`
	Rows        []Row             `json:"rows"`
	Parallel    []ParallelRow     `json:"parallel,omitempty"`
	Workers     int               `json:"workers,omitempty"` // fan-out width of Parallel
	Throughput  *ThroughputReport `json:"throughput,omitempty"`
	// Mixed is the read/write scaling section: single-stripe per-record-flush
	// baseline vs sharded stores with WAL group commit, same workload.
	Mixed *MixedComparison `json:"mixed,omitempty"`
	// Serve is the served-workload section (hybench -serve): the network
	// query service under open-loop offered load at levels below and above
	// the admission limit.
	Serve *ServeReport `json:"serve,omitempty"`
	// Metrics is the observability snapshot of the instrumented run
	// (hybench -metrics): per-query timers, WAL/store counters, cache
	// hit rates, and the durable-exercise trace.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Storage is the compression + tiering section (hybench -storage):
	// points-per-MB of the raw vs compressed layouts, the cold-tier spill
	// and scan numbers, and the Q1–Q8 latency deltas of a compressed engine.
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
	if b.Mixed != nil {
		problems = append(problems, checkMixed(b.Mixed)...)
	}
	if b.Serve != nil {
		problems = append(problems, checkServe(b.Serve)...)
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

// checkMixed validates the structural invariants of the mixed read/write
// section: the baseline leg must really be the single-stripe per-record
// configuration, the sharded leg must stripe and batch, throughputs must be
// finite and positive, and the WAL counters must show what each mode claims
// (per-record flushing cannot flush less often than once per append batch;
// group commit must not flush more often than it appends).
func checkMixed(c *MixedComparison) []string {
	var problems []string
	for _, r := range []struct {
		name string
		rep  MixedReport
	}{{"mixed.baseline", c.Baseline}, {"mixed.sharded", c.Sharded}} {
		if r.rep.IngestClients < 1 || r.rep.QueryClients < 1 || r.rep.WindowMS < 1 {
			problems = append(problems, fmt.Sprintf("%s: empty client counts or window", r.name))
		}
		if r.rep.IngestOps < 1 || r.rep.QueryOps < 1 {
			problems = append(problems, fmt.Sprintf(
				"%s: %d writes / %d reads — both kinds must make progress for the run to count as mixed",
				r.name, r.rep.IngestOps, r.rep.QueryOps))
		}
		if math.IsNaN(r.rep.OpsPerSec) || math.IsInf(r.rep.OpsPerSec, 0) || r.rep.OpsPerSec <= 0 {
			problems = append(problems, fmt.Sprintf("%s: ops_per_sec %v not finite and positive", r.name, r.rep.OpsPerSec))
		}
		if r.rep.WALFlushes > r.rep.WALAppends && r.rep.WALAppends > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d flushes exceed %d appends", r.name, r.rep.WALFlushes, r.rep.WALAppends))
		}
		if r.rep.Procs < 1 {
			problems = append(problems, fmt.Sprintf("%s: procs %d not positive", r.name, r.rep.Procs))
		}
	}
	if c.Baseline.Procs != c.Sharded.Procs {
		problems = append(problems, fmt.Sprintf(
			"mixed: legs ran at different widths (procs %d vs %d); the comparison is not like-for-like",
			c.Baseline.Procs, c.Sharded.Procs))
	}
	if c.Baseline.Shards != 1 || c.Baseline.GroupCommit != 1 {
		problems = append(problems, fmt.Sprintf(
			"mixed.baseline: shards=%d group_commit=%d, want the 1/1 single-lock reference", c.Baseline.Shards, c.Baseline.GroupCommit))
	}
	if c.Sharded.Shards < 2 || c.Sharded.GroupCommit < 2 {
		problems = append(problems, fmt.Sprintf(
			"mixed.sharded: shards=%d group_commit=%d, want striping and batching enabled", c.Sharded.Shards, c.Sharded.GroupCommit))
	}
	for _, s := range []struct {
		name string
		v    float64
	}{{"mixed.speedup", c.Speedup}, {"mixed.write_speedup", c.WriteSpeedup}, {"mixed.read_speedup", c.ReadSpeedup}} {
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) || s.v <= 0 {
			problems = append(problems, fmt.Sprintf("%s %v not finite and positive", s.name, s.v))
		}
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
// returned as an error listing every problem.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: parsing baseline: %w", err)
	}
	if problems := b.Validate(); len(problems) > 0 {
		return &b, fmt.Errorf("bench: invalid baseline: %v", problems)
	}
	return &b, nil
}
