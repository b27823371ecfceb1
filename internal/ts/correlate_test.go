package ts

import (
	"math"
	"math/rand"
	"testing"
)

func TestPearsonKnownValues(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if r := Pearson(a, a); !almost(r, 1, 1e-12) {
		t.Fatalf("self correlation=%v", r)
	}
	b := []float64{5, 4, 3, 2, 1}
	if r := Pearson(a, b); !almost(r, -1, 1e-12) {
		t.Fatalf("anti correlation=%v", r)
	}
	if r := Pearson(a, []float64{7, 7, 7, 7, 7}); !math.IsNaN(r) {
		t.Fatalf("constant side should be NaN, got %v", r)
	}
	if r := Pearson(a, []float64{1, 2}); !math.IsNaN(r) {
		t.Fatalf("length mismatch should be NaN, got %v", r)
	}
}

func TestCorrelationAligned(t *testing.T) {
	a := FromSamples("a", 0, 10, []float64{1, 2, 3, 4, 5, 6})
	b := a.Map(func(v float64) float64 { return 3*v - 1 })
	b.SetName("b")
	if r := Correlation(a, b, 10); !almost(r, 1, 1e-9) {
		t.Fatalf("affine correlation=%v", r)
	}
	// Disjoint time ranges → no shared buckets → NaN.
	c := FromSamples("c", 10000, 10, []float64{1, 2, 3})
	if r := Correlation(a, c, 10); !math.IsNaN(r) {
		t.Fatalf("disjoint correlation=%v", r)
	}
}

func TestAutoCorrelation(t *testing.T) {
	// Period-4 square wave → strong positive ACF at lag 4, negative at lag 2.
	vals := make([]float64, 64)
	for i := range vals {
		if i%4 < 2 {
			vals[i] = 1
		} else {
			vals[i] = -1
		}
	}
	s := FromSamples("sq", 0, 1, vals)
	acf := s.AutoCorrelation(2, 4)
	if acf[0] > -0.9 {
		t.Fatalf("acf(2)=%v want strongly negative", acf[0])
	}
	if acf[1] < 0.9 {
		t.Fatalf("acf(4)=%v want strongly positive", acf[1])
	}
}

// Property: Pearson is symmetric, bounded in [-1,1], and invariant under
// positive affine transforms.
func TestQuickPearsonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		n := 3 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		r := Pearson(a, b)
		if math.IsNaN(r) {
			continue
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("r=%v out of range", r)
		}
		if !almost(Pearson(b, a), r, 1e-12) {
			t.Fatal("pearson asymmetric")
		}
		scaled := make([]float64, n)
		for i := range a {
			scaled[i] = 2.5*a[i] + 7
		}
		if !almost(Pearson(scaled, b), r, 1e-9) {
			t.Fatal("pearson not affine invariant")
		}
	}
}

// Degenerate inputs must never yield a value a caller could mistake for a
// real correlation: constant series, disjoint series and empty series all
// surface as NaN — not 0, which reads as perfectly uncorrelated.
func TestCorrelateDegenerateInputs(t *testing.T) {
	mk := func(start Time, vals ...float64) *Series {
		s := New("s")
		for i, v := range vals {
			s.MustAppend(start+Time(i)*10, v)
		}
		return s
	}
	ramp := mk(0, 1, 2, 3, 4, 5, 6, 7, 8)
	flat := mk(0, 5, 5, 5, 5, 5, 5, 5, 5)
	far := mk(100000, 1, 2, 3, 4) // no shared buckets with ramp
	empty := New("empty")

	cases := []struct {
		name string
		a, b *Series
	}{
		{"constant side", ramp, flat},
		{"both constant", flat, flat},
		{"disjoint", ramp, far},
		{"empty side", ramp, empty},
		{"both empty", empty, empty},
	}
	for _, tc := range cases {
		if r := Correlation(tc.a, tc.b, 10); !math.IsNaN(r) {
			t.Errorf("Correlation %s: got %v, want NaN", tc.name, r)
		}
	}

	// A healthy pair is unaffected by the guards. (Not a ramp: every lag of
	// a ramp against itself is still perfectly linear, which ties at |r|=1.)
	wavy := mk(0, 1, 5, 2, 8, 3, 9, 4, 7)
	if r := Correlation(wavy, wavy, 10); math.Abs(r-1) > 1e-12 {
		t.Errorf("identical series: r=%v", r)
	}
}
