package ts

import (
	"math"
	"math/rand"
	"testing"
)

func TestResampleBasic(t *testing.T) {
	s := New("a")
	// Two points in bucket [0,10), one in [10,20), one in [30,40).
	s.MustAppend(1, 2)
	s.MustAppend(9, 4)
	s.MustAppend(10, 10)
	s.MustAppend(35, 7)
	r := s.Resample(10, AggMean)
	if r.Len() != 3 {
		t.Fatalf("buckets=%d want 3: %v", r.Len(), r.Points())
	}
	if r.TimeAt(0) != 0 || r.ValueAt(0) != 3 {
		t.Fatalf("bucket0=%v", r.Points()[0])
	}
	if r.TimeAt(1) != 10 || r.ValueAt(1) != 10 {
		t.Fatalf("bucket1=%v", r.Points()[1])
	}
	if r.TimeAt(2) != 30 || r.ValueAt(2) != 7 {
		t.Fatalf("bucket2=%v", r.Points()[2])
	}
}

func TestResampleNegativeTimes(t *testing.T) {
	s := New("a")
	s.MustAppend(-15, 1)
	s.MustAppend(-5, 3)
	s.MustAppend(5, 5)
	r := s.Resample(10, AggSum)
	// Buckets: [-20,-10) -> 1, [-10,0) -> 3, [0,10) -> 5.
	if r.Len() != 3 || r.TimeAt(0) != -20 || r.TimeAt(1) != -10 || r.TimeAt(2) != 0 {
		t.Fatalf("negative-time buckets: %v", r.Points())
	}
}

func TestResampleDegenerate(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{1, 2})
	if got := s.Resample(0, AggMean); got.Len() != 0 {
		t.Fatal("width 0 should be empty")
	}
	if got := New("e").Resample(10, AggMean); got.Len() != 0 {
		t.Fatal("empty series should resample to empty")
	}
}

// Property: sum-resampling preserves total mass; count-resampling preserves
// total count; every bucket mean is within [min, max] of the original.
func TestQuickResampleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		s := New("q")
		tt := Time(rng.Intn(100))
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			tt += Time(1 + rng.Intn(30))
			s.MustAppend(tt, rng.NormFloat64()*10)
		}
		width := Time(1 + rng.Intn(100))
		if got, want := s.Resample(width, AggSum).Aggregate(AggSum), s.Aggregate(AggSum); !almost(got, want, 1e-6) {
			t.Fatalf("mass not preserved: %v vs %v", got, want)
		}
		if got := s.Resample(width, AggCount).Aggregate(AggSum); got != float64(s.Len()) {
			t.Fatalf("count not preserved: %v vs %v", got, s.Len())
		}
		mn, mx := s.Min(), s.Max()
		for _, p := range s.Resample(width, AggMean).Points() {
			if p.V < mn-1e-9 || p.V > mx+1e-9 {
				t.Fatalf("bucket mean %v outside [%v,%v]", p.V, mn, mx)
			}
		}
	}
}

func TestAlign(t *testing.T) {
	a := FromSamples("a", 0, 10, []float64{1, 2, 3, 4})  // buckets 0,10,20,30
	b := FromSamples("b", 20, 10, []float64{30, 40, 50}) // buckets 20,30,40
	av, bv, buckets := Align(a, b, 10, AggMean)
	if len(buckets) != 2 || buckets[0] != 20 || buckets[1] != 30 {
		t.Fatalf("buckets=%v", buckets)
	}
	if av[0] != 3 || av[1] != 4 || bv[0] != 30 || bv[1] != 40 {
		t.Fatalf("aligned values %v %v", av, bv)
	}
}

func TestPAA(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{1, 1, 5, 5})
	paa := s.PAA(2)
	if len(paa) != 2 || paa[0] != 1 || paa[1] != 5 {
		t.Fatalf("paa=%v", paa)
	}
	// nSeg > n clamps to n.
	if got := s.PAA(10); len(got) != 4 {
		t.Fatalf("clamped paa len=%d", len(got))
	}
	if got := s.PAA(0); got != nil {
		t.Fatalf("paa(0)=%v", got)
	}
	// Overall mean is preserved for equal-size segments.
	s2 := FromSamples("b", 0, 1, []float64{1, 2, 3, 4, 5, 6})
	p2 := s2.PAA(3)
	if !almost(mean(p2), s2.Mean(), 1e-12) {
		t.Fatalf("paa mean %v != %v", mean(p2), s2.Mean())
	}
}

func TestSAX(t *testing.T) {
	// Ramp: low then high → word should be nondecreasing symbols.
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := FromSamples("a", 0, 1, vals)
	w, err := s.SAX(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 8 {
		t.Fatalf("word len=%d", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] {
			t.Fatalf("ramp SAX not monotone: %q", w)
		}
	}
	if w[0] != 'a' || w[7] != 'd' {
		t.Fatalf("ramp SAX extremes: %q", w)
	}
	if _, err := s.SAX(4, 1); err == nil {
		t.Fatal("alphabet=1 should error")
	}
	if _, err := s.SAX(4, 9); err == nil {
		t.Fatal("alphabet=9 should error")
	}
}

func TestSAXConstantSeries(t *testing.T) {
	s := FromSamples("c", 0, 1, []float64{3, 3, 3, 3})
	w, err := s.SAX(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Constant z-normalizes to zeros → middle symbol everywhere.
	if w != "bb" && w != "cc" {
		t.Fatalf("constant SAX=%q", w)
	}
}

func TestResampleVsAggregateRangeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New("q")
	tt := Time(0)
	for i := 0; i < 500; i++ {
		tt += Time(1 + rng.Intn(5))
		s.MustAppend(tt, rng.Float64()*100)
	}
	width := Time(50)
	for _, p := range s.Resample(width, AggMax).Points() {
		if got := s.AggregateRange(AggMax, p.T, p.T+width); !almost(got, p.V, 1e-12) {
			t.Fatalf("bucket %d: resample %v vs range %v", p.T, p.V, got)
		}
	}
	_ = math.Pi
}
