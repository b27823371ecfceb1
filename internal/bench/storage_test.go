package bench

import (
	"context"
	"strings"
	"testing"
)

func TestRunStorageReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Bike = tinyBike()
	cfg.Reps = 2
	rep, err := RunStorage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := CheckStorage(&rep); len(problems) > 0 {
		t.Fatalf("storage report invalid: %v", problems)
	}
	if !rep.Identical {
		t.Fatal("compressed results differ from raw")
	}
	if rep.CompressionRatio < 4 {
		t.Fatalf("compression ratio %.2f below the 4x acceptance floor", rep.CompressionRatio)
	}
	if rep.PointsPerMB <= rep.PointsPerMBRaw {
		t.Fatalf("points/MB did not improve: %.0f vs raw %.0f", rep.PointsPerMB, rep.PointsPerMBRaw)
	}
	out := FormatStorage(rep)
	for _, want := range []string{"points/MB", "Q deltas", "identical results"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStorage missing %q:\n%s", want, out)
		}
	}
}

func TestCheckStorageFlagsViolations(t *testing.T) {
	rep := StorageReport{
		Series: 1, Points: 1,
		RawBytes: 100, CompressedBytes: 50, CompressionRatio: 2, // below floor
		Identical:   false,
		QueryDeltas: map[string]float64{},
	}
	problems := CheckStorage(&rep)
	for _, want := range []string{"4x floor", "differ from raw", "missing query delta"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("CheckStorage did not flag %q in %v", want, problems)
		}
	}
}
