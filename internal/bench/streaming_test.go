package bench

import (
	"context"
	"strings"
	"testing"

	"hygraph/internal/dataset"
)

// smallBike is big enough that day buckets hold a full day of hourly points
// (the recompute leg's scan has real work to do) but small enough for a test.
func smallBike() dataset.BikeConfig {
	return dataset.BikeConfig{Stations: 16, Districts: 4, Days: 10, StepMinutes: 60, TripsPerSt: 2, Seed: 11}
}

func TestRunStreamingReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bike = smallBike()
	rep, err := RunStreaming(context.Background(), cfg, StreamingConfig{
		IngestClients: 2, ReadClients: 2, IngestRate: 2000, WindowMS: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []StreamingLeg{rep.Incremental, rep.Recompute} {
		if leg.IngestOps < 1 || leg.ReadOps < 1 {
			t.Fatalf("%s: ops %d/%d — both sides must make progress", leg.Mode, leg.IngestOps, leg.ReadOps)
		}
		if leg.ReadP50MS <= 0 || leg.ReadP99MS < leg.ReadP50MS {
			t.Fatalf("%s: read quantiles %v/%v", leg.Mode, leg.ReadP50MS, leg.ReadP99MS)
		}
		if leg.StaleP50MS <= 0 || leg.StaleP99MS < leg.StaleP50MS {
			t.Fatalf("%s: staleness quantiles %v/%v", leg.Mode, leg.StaleP50MS, leg.StaleP99MS)
		}
		if !leg.Identical {
			t.Fatalf("%s: cached aggregates differ from a from-scratch resample", leg.Mode)
		}
	}
	// The two legs must really have run different maintenance strategies:
	// write-through patches and never invalidates on the streamed tail
	// appends; the recompute baseline the reverse.
	if rep.Incremental.CachePatches < 1 || rep.Incremental.CacheInvalidations != 0 {
		t.Fatalf("incremental cache accounting: %d patches, %d invalidations",
			rep.Incremental.CachePatches, rep.Incremental.CacheInvalidations)
	}
	if rep.Recompute.CachePatches != 0 || rep.Recompute.CacheInvalidations < 1 {
		t.Fatalf("recompute cache accounting: %d patches, %d invalidations",
			rep.Recompute.CachePatches, rep.Recompute.CacheInvalidations)
	}
	if rep.SpeedupP50 <= 0 || rep.SpeedupP99 <= 0 || rep.IngestRatio <= 0 {
		t.Fatalf("ratios must be positive: %+v", rep)
	}
	out := FormatStreaming(rep)
	for _, want := range []string{"incremental", "recompute", "speedup", "visible p50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStreaming missing %q in:\n%s", want, out)
		}
	}
}

// TestCheckStreamingCatchesViolations drives the validator with synthetic
// reports so the gates (including the cores>=4-only speedup floor) are
// exercised deterministically regardless of the machine the test runs on.
func TestCheckStreamingCatchesViolations(t *testing.T) {
	good := func() StreamingReport {
		leg := StreamingLeg{
			Mode: "incremental", Shards: 16, GroupCommit: 64, Procs: 4,
			IngestClients: 2, ReadClients: 2, IngestRate: 2000, WindowMS: 40,
			IngestOps: 100, ReadOps: 100, IngestPerSec: 2500, ReadsPerSec: 2500,
			ReadP50MS: 0.01, ReadP99MS: 0.02, StaleP50MS: 0.01, StaleP99MS: 0.02,
			CachePatches: 100, Identical: true,
		}
		rec := leg
		rec.Mode = "recompute"
		rec.CachePatches, rec.CacheInvalidations = 0, 100
		rec.ReadP50MS, rec.ReadP99MS = 0.1, 0.2
		return StreamingReport{
			Incremental: leg, Recompute: rec,
			SpeedupP50: 10, SpeedupP99: 10, IngestRatio: 1, Cores: 8,
		}
	}
	if probs := CheckStreaming(&StreamingReport{}); len(probs) == 0 {
		t.Fatal("zero report must fail")
	}
	r := good()
	if probs := CheckStreaming(&r); len(probs) != 0 {
		t.Fatalf("good report rejected: %v", probs)
	}
	r = good()
	r.Incremental.Identical = false
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("non-identical incremental leg must fail")
	}
	r = good()
	r.Incremental.CachePatches = 0
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("patch-free incremental leg must fail")
	}
	r = good()
	r.Incremental.CacheInvalidations = 5
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("invalidating incremental leg must fail")
	}
	r = good()
	r.Recompute.CachePatches = 5
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("write-through recompute leg must fail")
	}
	r = good()
	r.Recompute.CacheInvalidations = 0
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("invalidation-free recompute leg must fail")
	}
	r = good()
	r.SpeedupP50 = 4.9
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("sub-5x speedup on a 4+ core box must fail")
	}
	// ...but the same speedup on a small box only fails the structural gates.
	r.Cores = 2
	if probs := CheckStreaming(&r); len(probs) != 0 {
		t.Fatalf("speedup floor must not bind below 4 cores: %v", probs)
	}
	r = good()
	r.IngestRatio = 0.5
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("ingest regression beyond 10% must fail")
	}
	r = good()
	r.Incremental.ReadP99MS = r.Incremental.ReadP50MS / 2
	if probs := CheckStreaming(&r); len(probs) == 0 {
		t.Fatal("inverted quantiles must fail")
	}
}
