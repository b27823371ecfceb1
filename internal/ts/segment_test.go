package ts

import (
	"math/rand"
	"testing"
)

// step series: three flat levels with noise.
func stepSeries(rng *rand.Rand, noise float64) *Series {
	s := New("step")
	t := Time(0)
	for _, level := range []float64{0, 10, -5} {
		for i := 0; i < 50; i++ {
			s.MustAppend(t, level+noise*rng.NormFloat64())
			t += 10
		}
	}
	return s
}

func TestSegmentizeFindsLevels(t *testing.T) {
	s := stepSeries(rand.New(rand.NewSource(1)), 0.1)
	segs := s.Segmentize(3, 0.001)
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	// Breakpoints near point indexes 50 and 100.
	if d := abs(segs[1].Lo - 50); d > 2 {
		t.Fatalf("first breakpoint at %d", segs[1].Lo)
	}
	if d := abs(segs[2].Lo - 100); d > 2 {
		t.Fatalf("second breakpoint at %d", segs[2].Lo)
	}
	// Segment means near the planted levels.
	for i, want := range []float64{0, 10, -5} {
		if !almost(segs[i].Mean, want, 0.5) {
			t.Fatalf("segment %d mean=%v want %v", i, segs[i].Mean, want)
		}
	}
}

func TestSegmentizePartition(t *testing.T) {
	s := stepSeries(rand.New(rand.NewSource(2)), 1)
	segs := s.Segmentize(5, 0.001)
	// Segments must partition [0, n) contiguously.
	if segs[0].Lo != 0 {
		t.Fatalf("first segment starts at %d", segs[0].Lo)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Lo != segs[i-1].Hi {
			t.Fatalf("gap between segments %d and %d", i-1, i)
		}
	}
	if segs[len(segs)-1].Hi != s.Len() {
		t.Fatalf("last segment ends at %d, n=%d", segs[len(segs)-1].Hi, s.Len())
	}
}

func TestSegmentizeStopsOnFlat(t *testing.T) {
	s := FromSamples("flat", 0, 1, make([]float64, 100))
	segs := s.Segmentize(10, 0.01)
	if len(segs) != 1 {
		t.Fatalf("flat series split into %d segments", len(segs))
	}
}

func TestSegmentizeDegenerate(t *testing.T) {
	if got := New("e").Segmentize(3, 0.01); got != nil {
		t.Fatalf("empty: %v", got)
	}
	one := FromSamples("one", 0, 1, []float64{5})
	segs := one.Segmentize(3, 0.01)
	if len(segs) != 1 || segs[0].Mean != 5 {
		t.Fatalf("single point: %v", segs)
	}
}

// TestBreakpoints: the breakpoints core.SegmentSnapshots snapshots at are the
// Start of every segment after the first, the timestamp of its first point.
func TestBreakpoints(t *testing.T) {
	s := stepSeries(rand.New(rand.NewSource(3)), 0.1)
	segs := s.Segmentize(3, 0.001)
	if len(segs) != 3 {
		t.Fatalf("segments=%v", segs)
	}
	for i, sg := range segs[1:] {
		if sg.Start != s.TimeAt(sg.Lo) || sg.Start <= segs[i].Start {
			t.Fatalf("breakpoint %d at %v, first point %v, previous %v", i, sg.Start, s.TimeAt(sg.Lo), segs[i].Start)
		}
	}
}

func TestTrend(t *testing.T) {
	s := FromSamples("lin", 0, 1, []float64{2, 4, 6, 8})
	a, b := s.Trend()
	if !almost(a, 2, 1e-9) || !almost(b, 2, 1e-9) {
		t.Fatalf("intercept=%v slope=%v", a, b)
	}
	c := FromSamples("const", 0, 1, []float64{5, 5, 5})
	_, slope := c.Trend()
	if !almost(slope, 0, 1e-12) {
		t.Fatalf("constant slope=%v", slope)
	}
	single := FromSamples("s", 0, 1, []float64{7})
	i1, s1 := single.Trend()
	if i1 != 7 || s1 != 0 {
		t.Fatalf("single point trend=%v,%v", i1, s1)
	}
}

// Property: more allowed segments never increases total cost.
func TestQuickSegmentCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 30; iter++ {
		n := 20 + rng.Intn(80)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 5
		}
		s := FromSamples("q", 0, 1, vals)
		total := func(segs []Segment) float64 {
			var c float64
			for _, sg := range segs {
				c += sg.Cost
			}
			return c
		}
		c2 := total(s.Segmentize(2, 0))
		c4 := total(s.Segmentize(4, 0))
		c8 := total(s.Segmentize(8, 0))
		if c4 > c2+1e-6 || c8 > c4+1e-6 {
			t.Fatalf("cost not monotone: %v %v %v", c2, c4, c8)
		}
	}
}
