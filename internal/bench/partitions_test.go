package bench

import (
	"context"
	"strings"
	"testing"

	"hygraph/internal/dataset"
)

func tinyBike() dataset.BikeConfig {
	return dataset.BikeConfig{Stations: 12, Districts: 3, Days: 3, StepMinutes: 60, TripsPerSt: 2, Seed: 7}
}

// TestRunPartitionsReport drives the partition-scaling section at tiny scale:
// the coordinator at 1, 2, and 3 partitions must be element-wise identical to
// the single-engine oracle, and the report must pass its own structural
// validation and render every row.
func TestRunPartitionsReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bike = tinyBike()
	cfg.Reps = 2
	rep, err := RunPartitions(context.Background(), cfg, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkPartitions(&rep); len(problems) > 0 {
		t.Fatalf("partitions report invalid: %v", problems)
	}
	for _, lvl := range rep.Levels {
		if !lvl.Identical {
			t.Fatalf("partitions=%d: results differ from the single-engine oracle", lvl.Parts)
		}
	}
	if sp := rep.Levels[0].Rows[0].Speedup; sp != 1 {
		t.Fatalf("reference speedup = %v, want 1", sp)
	}
	out := FormatPartitions(rep)
	for _, want := range []string{"partition scaling", "speedup", "identical", "Q4", "Q8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatPartitions missing %q:\n%s", want, out)
		}
	}
}

// RunPartitions refuses, before loading anything, every count list its own
// -check would reject: no 1-partition reference first, counts not strictly
// increasing, or fewer than two levels.
func TestRunPartitionsRejectsBadCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bike = tinyBike()
	for _, counts := range [][]int{nil, {2, 4}, {1, 1}, {1}} {
		if _, err := RunPartitions(context.Background(), cfg, counts); err == nil {
			t.Fatalf("counts %v: want error", counts)
		}
	}
}

// TestCheckPartitionsFlagsViolations feeds a deliberately broken report
// through every structural check, including the Procs ≥ 4-gated monotone
// speedup rule.
func TestCheckPartitionsFlagsViolations(t *testing.T) {
	row := func(q string, sp float64) PartitionRow {
		return PartitionRow{Query: q, Desc: "d", MRS: 1, CV: 1, Speedup: sp}
	}
	rows := func(sp float64) []PartitionRow {
		var rs []PartitionRow
		for _, op := range fanoutOps {
			rs = append(rs, row(op.String(), sp))
		}
		return rs
	}

	bad := PartitionsReport{
		Counts: []int{1, 2, 4},
		Procs:  0,
		Levels: []PartitionLevel{
			{Parts: 2, Rows: rows(1), Identical: false},    // not the 1-partition reference
			{Parts: 2, Rows: rows(1)[:2], Identical: true}, // not increasing, wrong row count
		},
	}
	problems := checkPartitions(&bad)
	for _, want := range []string{
		"procs 0", "3 counts but 2 levels", "want the 1-partition reference",
		"not strictly increasing", "differ from the single-engine oracle", "2 rows, want 5",
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("checkPartitions did not flag %q in %v", want, problems)
		}
	}

	nanRows := rows(1)
	nanRows[0].MRS = -1
	nanRows[1].Query = "Q9"
	malformed := PartitionsReport{
		Counts: []int{1, 2},
		Procs:  8,
		Levels: []PartitionLevel{
			{Parts: 1, Rows: rows(1), Identical: true},
			{Parts: 2, Rows: nanRows, Identical: true},
		},
	}
	problems = checkPartitions(&malformed)
	for _, want := range []string{"not a finite non-negative number", `is "Q9"`} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("checkPartitions did not flag %q in %v", want, problems)
		}
	}

	// Monotone-speedup gate: regression flagged at Procs >= 4, ignored below.
	regressed := PartitionsReport{
		Counts: []int{1, 2, 4},
		Procs:  8,
		Levels: []PartitionLevel{
			{Parts: 1, Rows: rows(1), Identical: true},
			{Parts: 2, Rows: rows(1.8), Identical: true},
			{Parts: 4, Rows: rows(1.2), Identical: true},
		},
	}
	problems = checkPartitions(&regressed)
	found := false
	for _, p := range problems {
		if strings.Contains(p, "speedup regressed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("checkPartitions did not flag the speedup regression in %v", problems)
	}
	regressed.Procs = 1
	for _, p := range checkPartitions(&regressed) {
		if strings.Contains(p, "speedup regressed") {
			t.Fatalf("speedup rule must be gated off below 4 procs, got %v", p)
		}
	}
}

// A gate that is skipped must say so: below 4 procs the rendered section
// names the skipped scaling gate and the proc count; at 4 it does not.
func TestFormatPartitionsSaysWhenScalingGateSkipped(t *testing.T) {
	rep := PartitionsReport{Counts: []int{1, 2}, Procs: 2, Levels: []PartitionLevel{
		{Parts: 1, Identical: true}, {Parts: 2, Identical: true},
	}}
	if out := FormatPartitions(rep); !strings.Contains(out, "scaling gate: skipped — needs ≥4 procs, have 2") {
		t.Fatalf("skipped gate not reported:\n%s", out)
	}
	rep.Procs = 4
	if out := FormatPartitions(rep); strings.Contains(out, "scaling gate: skipped") {
		t.Fatalf("gate reported skipped at 4 procs:\n%s", out)
	}
}
