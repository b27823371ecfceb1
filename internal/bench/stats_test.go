package bench

import (
	"math"
	"testing"
)

// The guards below are the reason the helpers live in one file: every bench
// section (Table 1, storage, partitions) folds raw samples through
// them, and a re-derived copy once shipped a ±Inf CV on a zero mean.

func TestStats(t *testing.T) {
	mean, cv := stats([]float64{10, 10, 10})
	if mean != 10 || cv != 0 {
		t.Fatalf("constant samples: mean=%v cv=%v", mean, cv)
	}
	// Sample (n−1) convention: {5, 15} has sd = sqrt(50/1) ≈ 7.0711,
	// CV ≈ 70.711% — not the population formula's 50%.
	mean, cv = stats([]float64{5, 15})
	if want := 100 * math.Sqrt(50) / 10; mean != 10 || math.Abs(cv-want) > 1e-9 {
		t.Fatalf("spread samples: mean=%v cv=%v want cv=%v", mean, cv, want)
	}
	if m, c := stats(nil); m != 0 || c != 0 {
		t.Fatalf("empty samples: %v %v", m, c)
	}
	// Single sample: no spread estimate exists, CV must stay 0.
	if m, c := stats([]float64{42}); m != 42 || c != 0 {
		t.Fatalf("single sample: %v %v", m, c)
	}
	// Zero mean must not divide through to ±Inf.
	if m, c := stats([]float64{-5, 5}); m != 0 || c != 0 {
		t.Fatalf("zero-mean samples: %v %v", m, c)
	}
}

func TestMinSample(t *testing.T) {
	if m := minSample(nil); m != 0 {
		t.Fatalf("empty sample min = %v, want 0", m)
	}
	if m := minSample([]float64{7}); m != 7 {
		t.Fatalf("single sample min = %v, want 7", m)
	}
	if m := minSample([]float64{3, 1, 2}); m != 1 {
		t.Fatalf("min = %v, want 1", m)
	}
	if m := minSample([]float64{-3, 1, 2}); m != -3 {
		t.Fatalf("negative min = %v, want -3", m)
	}
}
