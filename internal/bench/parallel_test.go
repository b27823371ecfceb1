package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hygraph/internal/storage/ttdb"
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

// A section the code no longer knows must fail -check rather than pass as a
// valid baseline: each key below was once a hybench section.
func TestReadBaselineRejectsUnknownSection(t *testing.T) {
	b := &Baseline{Schema: BaselineSchema, Config: tinyConfig()}
	for op := ttdb.OpQ1; op <= ttdb.OpQ8; op++ {
		b.Rows = append(b.Rows, Row{Query: op.String()})
	}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	for _, key := range []string{"mixed", "serve", "throughput", "streaming"} {
		stale := strings.Replace(buf.String(), "{", `{"`+key+`": {},`, 1)
		if _, err := ReadBaseline(strings.NewReader(stale)); err == nil {
			t.Errorf("baseline with a stale %q section read cleanly", key)
		}
	}
}
