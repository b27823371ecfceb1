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

func TestMixedThroughputRejectsEmptyClients(t *testing.T) {
	if _, err := MixedThroughput(context.Background(), tinyBike(), MixedConfig{IngestClients: 0, QueryClients: 1}); err == nil {
		t.Fatal("want error for zero ingest clients")
	}
	if _, err := MixedThroughput(context.Background(), tinyBike(), MixedConfig{IngestClients: 1, QueryClients: 0}); err == nil {
		t.Fatal("want error for zero query clients")
	}
}

func TestMixedThroughputReport(t *testing.T) {
	rep, err := MixedThroughput(context.Background(), tinyBike(), MixedConfig{
		IngestClients: 2, QueryClients: 2, IngestRate: 1000, WindowMS: 30,
		Shards: 4, GroupCommit: 8, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "sharded" || rep.Shards != 4 || rep.GroupCommit != 8 {
		t.Fatalf("config echo wrong: %+v", rep)
	}
	if rep.Procs != 4 {
		t.Fatalf("procs default: got %d want clients total 4", rep.Procs)
	}
	if rep.IngestOps < 1 || rep.QueryOps < 1 || rep.TotalOps != rep.IngestOps+rep.QueryOps {
		t.Fatalf("op counts: %+v", rep)
	}
	if rep.OpsPerSec <= 0 || rep.ElapsedMS <= 0 {
		t.Fatalf("throughput not measured: %+v", rep)
	}
	// Every completed append enqueued exactly one WAL record, and flushes
	// never exceed appends.
	if rep.WALAppends != rep.IngestOps {
		t.Fatalf("wal appends %d != ingest ops %d", rep.WALAppends, rep.IngestOps)
	}
	if rep.WALFlushes > rep.WALAppends || rep.WALFlushes < 1 {
		t.Fatalf("flush accounting: %d flushes for %d appends", rep.WALFlushes, rep.WALAppends)
	}
}

func TestRunMixedComparison(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bike = tinyBike()
	cmp, err := RunMixed(context.Background(), cfg, 2, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.Shards != 1 || cmp.Baseline.GroupCommit != 1 {
		t.Fatalf("baseline leg not single-lock: %+v", cmp.Baseline)
	}
	if cmp.Sharded.Shards < 2 || cmp.Sharded.GroupCommit < 2 {
		t.Fatalf("sharded leg not striped: %+v", cmp.Sharded)
	}
	if cmp.Speedup <= 0 || cmp.WriteSpeedup <= 0 || cmp.ReadSpeedup <= 0 {
		t.Fatalf("speedups must be positive: %+v", cmp)
	}
	if probs := checkMixed(&cmp); len(probs) != 0 {
		t.Fatalf("fresh comparison fails validation: %v", probs)
	}
	out := FormatMixed(cmp)
	for _, want := range []string{"baseline", "sharded", "speedup", "served writes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatMixed missing %q in:\n%s", want, out)
		}
	}
}

func TestCheckMixedCatchesViolations(t *testing.T) {
	good := func() MixedComparison {
		rep := MixedReport{
			Mode: "baseline", Shards: 1, GroupCommit: 1, Procs: 4,
			IngestClients: 2, QueryClients: 2, IngestRate: 1000, WindowMS: 20,
			IngestOps: 10, QueryOps: 10, TotalOps: 20,
			ElapsedMS: 20, OpsPerSec: 1000, WALAppends: 10, WALFlushes: 10,
		}
		sh := rep
		sh.Mode, sh.Shards, sh.GroupCommit = "sharded", 16, 64
		sh.WALFlushes = 4
		return MixedComparison{Baseline: rep, Sharded: sh, Speedup: 1.5, WriteSpeedup: 2, ReadSpeedup: 1}
	}
	if probs := checkMixed(&MixedComparison{}); len(probs) == 0 {
		t.Fatal("zero comparison must fail")
	}
	c := good()
	if probs := checkMixed(&c); len(probs) != 0 {
		t.Fatalf("good comparison rejected: %v", probs)
	}
	c = good()
	c.Baseline.Shards = 2
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("striped baseline must fail")
	}
	c = good()
	c.Sharded.GroupCommit = 1
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("unbatched sharded leg must fail")
	}
	c = good()
	c.Sharded.WALFlushes = c.Sharded.WALAppends + 1
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("flushes above appends must fail")
	}
	c = good()
	c.Sharded.Procs = 8
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("mismatched procs must fail")
	}
	c = good()
	c.Baseline.QueryOps = 0
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("read-starved run must fail")
	}
	c = good()
	c.Speedup = 0
	if probs := checkMixed(&c); len(probs) == 0 {
		t.Fatal("zero speedup must fail")
	}
}
