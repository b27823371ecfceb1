package bench

import (
	"context"
	"strings"
	"testing"

	"hygraph/internal/dataset"
)

func tinyConfig() Config {
	return Config{
		Bike: dataset.BikeConfig{Stations: 10, Districts: 2, Days: 14,
			StepMinutes: 60, TripsPerSt: 2, Seed: 7},
		Reps: 2,
	}
}

func TestRunProducesAllRows(t *testing.T) {
	rows, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i, r := range rows {
		if r.Query == "" || r.Desc == "" {
			t.Fatalf("row %d incomplete: %+v", i, r)
		}
		if r.NeoMRS < 0 || r.TTDBMRS < 0 || r.NeoCV < 0 || r.TTDBCV < 0 {
			t.Fatalf("row %d negative stats: %+v", i, r)
		}
		if r.TTDBMRS > 0 && r.Speedup <= 0 {
			t.Fatalf("row %d speedup: %+v", i, r)
		}
	}
}

func TestFormatContainsEveryQuery(t *testing.T) {
	rows, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rows)
	for _, q := range []string{"Q1", "Q4", "Q8", "MRS", "speedup"} {
		if !strings.Contains(out, q) {
			t.Fatalf("format missing %q:\n%s", q, out)
		}
	}
}

func TestShapeCheckDetectsViolations(t *testing.T) {
	good := []Row{
		{Query: "Q1", Speedup: 2}, {Query: "Q2", Speedup: 3},
		{Query: "Q3", Speedup: 4}, {Query: "Q4", Speedup: 100},
		{Query: "Q5", Speedup: 100}, {Query: "Q6", Speedup: 100},
		{Query: "Q7", Speedup: 5}, {Query: "Q8", Speedup: 100},
	}
	if p := ShapeCheck(good, 50); len(p) != 0 {
		t.Fatalf("good rows flagged: %v", p)
	}
	bad := append([]Row(nil), good...)
	bad[3].Speedup = 2   // Q4 below heavy threshold
	bad[0].Speedup = 0.5 // Q1 losing
	p := ShapeCheck(bad, 50)
	if len(p) != 2 {
		t.Fatalf("violations=%v", p)
	}
}

func TestConfigsDiffer(t *testing.T) {
	d := DefaultConfig()
	p := PaperScaleConfig()
	if p.Bike.Stations <= d.Bike.Stations || p.Bike.Days <= d.Bike.Days {
		t.Fatal("paper scale should exceed default")
	}
}
