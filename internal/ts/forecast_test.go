package ts

import (
	"math"
	"testing"
)

func TestARForecastSine(t *testing.T) {
	n := 400
	s := New("sine")
	for i := 0; i < n; i++ {
		s.MustAppend(Time(i), math.Sin(2*math.Pi*float64(i)/24))
	}
	f, err := s.ARForecast(6, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	// AR on a pure sinusoid should continue it closely.
	var worst float64
	for i, p := range f.Points() {
		want := math.Sin(2 * math.Pi * float64(n+i) / 24)
		if d := math.Abs(p.V - want); d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Fatalf("AR sine forecast error %v", worst)
	}
}

func TestARForecastConstant(t *testing.T) {
	s := FromSamples("c", 0, 1, []float64{4, 4, 4, 4, 4, 4})
	f, err := s.ARForecast(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Points() {
		if !almost(p.V, 4, 1e-9) {
			t.Fatalf("constant AR forecast=%v", p)
		}
	}
}

func TestARForecastErrors(t *testing.T) {
	s := FromSamples("s", 0, 1, []float64{1, 2})
	if _, err := s.ARForecast(3, 1, 1); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	if _, err := s.ARForecast(0, 1, 1); err != ErrTooShort {
		t.Fatalf("p=0: %v", err)
	}
}

func TestMAE(t *testing.T) {
	f := FromSamples("f", 0, 1, []float64{1, 2, 3})
	a := FromSamples("a", 0, 1, []float64{2, 2, 5})
	if got := MAE(f, a); !almost(got, (1+0+2)/3.0, 1e-12) {
		t.Fatalf("mae=%v", got)
	}
	disjoint := FromSamples("d", 100, 1, []float64{1})
	if got := MAE(f, disjoint); !math.IsNaN(got) {
		t.Fatalf("disjoint mae=%v", got)
	}
}
