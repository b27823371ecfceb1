package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunParallelIdenticalResults(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 4
	rows, workers, err := RunParallel(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if workers != 4 {
		t.Fatalf("workers=%d", workers)
	}
	if len(rows) != len(fanoutOps) {
		t.Fatalf("rows=%d want %d", len(rows), len(fanoutOps))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("%s: parallel result differs from sequential", r.Query)
		}
		if r.SeqMRS < 0 || r.ParMRS < 0 {
			t.Fatalf("%s: negative timing %+v", r.Query, r)
		}
	}
	out := FormatParallel(rows, workers)
	for _, want := range []string{"Q4", "Q8", "identical", "4 workers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestThroughput(t *testing.T) {
	rep, err := Throughput(context.Background(), tinyConfig(), 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps != 24 || rep.Clients != 4 || rep.OpsPerClient != 6 {
		t.Fatalf("report %+v", rep)
	}
	if rep.ElapsedMS <= 0 || rep.OpsPerSec <= 0 {
		t.Fatalf("degenerate timing %+v", rep)
	}
	if !strings.Contains(FormatThroughput(rep), "q/s") {
		t.Fatalf("format: %s", FormatThroughput(rep))
	}
	if _, err := Throughput(context.Background(), tinyConfig(), 0, 5); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestBaselineRoundTripAndValidate(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &Baseline{Schema: BaselineSchema, Config: cfg, Rows: rows}
	if problems := b.Validate(); len(problems) != 0 {
		t.Fatalf("valid baseline flagged: %v", problems)
	}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(rows) || back.Rows[0].Query != "Q1" {
		t.Fatalf("round trip lost rows: %+v", back.Rows)
	}

	// Violations are all reported: wrong schema, missing rows, bad order,
	// non-identical parallel results.
	bad := &Baseline{
		Schema:   "wrong/v0",
		Rows:     []Row{{Query: "Q2"}},
		Parallel: []ParallelRow{{Query: "Q4", Identical: false}},
	}
	problems := bad.Validate()
	if len(problems) < 3 {
		t.Fatalf("violations under-reported: %v", problems)
	}
	if _, err := ReadBaseline(strings.NewReader(`{"schema":"wrong/v0"}`)); err == nil {
		t.Fatal("invalid baseline read cleanly")
	}
	if _, err := ReadBaseline(strings.NewReader(`{garbage`)); err == nil {
		t.Fatal("garbage parsed")
	}
}
