package bench

import (
	"bytes"
	"context"
	"testing"

	"hygraph/internal/obs"
)

// TestInstrumentedRunPassesCheckMetrics drives the full -metrics pipeline:
// an instrumented Table 1 run plus the durable exercise must produce a
// snapshot with every subsystem reporting.
func TestInstrumentedRunPassesCheckMetrics(t *testing.T) {
	reg := obs.New()
	cfg := tinyConfig()
	cfg.Obs = reg
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := DurableExercise(context.Background(), cfg, reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if problems := CheckMetrics(snap); len(problems) != 0 {
		t.Fatalf("metrics check failed: %v", problems)
	}
	// The durable exercise must leave a recovery trace behind.
	if snap.Trace == nil || snap.Trace.Totals["ttdb.recover"].Count == 0 {
		t.Fatalf("no recovery trace in snapshot: %+v", snap.Trace)
	}
	// The snapshot must survive inclusion in a baseline round trip.
	b := &Baseline{Schema: BaselineSchema, Config: cfg, Rows: nil, Metrics: snap}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(&buf)
	if back == nil {
		t.Fatalf("baseline lost on round trip: %v", err)
	}
	if back.Metrics == nil || back.Metrics.Counters["tsstore.wal.appends"] == 0 {
		t.Fatalf("metrics lost on round trip: %+v", back.Metrics)
	}
}

// TestCheckMetricsReportsSilentSubsystems verifies that an empty or partial
// snapshot is rejected with one problem per silent metric.
func TestCheckMetricsReportsSilentSubsystems(t *testing.T) {
	empty := obs.New().Snapshot()
	problems := CheckMetrics(empty)
	// 16 query timers (ttdb + neo4j) + 5 counters.
	if len(problems) != 21 {
		t.Fatalf("got %d problems, want 21: %v", len(problems), problems)
	}
	// A baseline embedding a silent snapshot fails validation.
	b := &Baseline{Schema: BaselineSchema, Metrics: empty}
	if got := b.Validate(); len(got) < 21 {
		t.Fatalf("baseline validation ignored silent metrics: %v", got)
	}
}

// TestValidateEffectiveWorkers pins the resolved-worker-count rules: parallel
// rows without a recorded width, or a config that disagrees with the
// top-level field, are structural violations.
func TestValidateEffectiveWorkers(t *testing.T) {
	rows, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Baseline {
		return &Baseline{
			Schema:   BaselineSchema,
			Config:   tinyConfig(),
			Rows:     rows,
			Parallel: []ParallelRow{{Query: "Q4", Identical: true}},
		}
	}
	// Workers unrecorded: the GOMAXPROCS resolution was lost.
	b := mk()
	if got := b.Validate(); len(got) != 1 {
		t.Fatalf("unrecorded workers: %v", got)
	}
	// Recorded and consistent: clean.
	b = mk()
	b.Workers = 4
	b.Config.EffectiveWorkers = 4
	if got := b.Validate(); len(got) != 0 {
		t.Fatalf("consistent baseline flagged: %v", got)
	}
	// Recorded but disagreeing with the config copy.
	b = mk()
	b.Workers = 4
	b.Config.EffectiveWorkers = 2
	if got := b.Validate(); len(got) != 1 {
		t.Fatalf("disagreeing workers: %v", got)
	}
	// EffectiveWorkers omitted entirely is allowed (sequential-only runs
	// never resolve a width) as long as Workers is recorded.
	b = mk()
	b.Workers = 4
	if got := b.Validate(); len(got) != 0 {
		t.Fatalf("omitted effective_workers flagged: %v", got)
	}
}
