package ts

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestAggregations(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); !almost(got, 5, 1e-12) {
		t.Fatalf("mean=%v", got)
	}
	if got := s.Std(); !almost(got, 2, 1e-12) {
		t.Fatalf("std=%v", got)
	}
	if s.Min() != 2 || s.Max() != 9 || s.Aggregate(AggSum) != 40 {
		t.Fatalf("min/max/sum = %v/%v/%v", s.Min(), s.Max(), s.Aggregate(AggSum))
	}
	if got := s.Median(); !almost(got, 4.5, 1e-12) {
		t.Fatalf("median=%v", got)
	}
}

func TestAggFuncApplyTable(t *testing.T) {
	vals := []float64{3, 1, 2}
	cases := []struct {
		f    AggFunc
		want float64
	}{
		{AggMean, 2}, {AggSum, 6}, {AggMin, 1}, {AggMax, 3},
		{AggCount, 3}, {AggFirst, 3}, {AggLast, 2}, {AggMedian, 2},
	}
	for _, c := range cases {
		if got := c.f.Apply(vals); !almost(got, c.want, 1e-12) {
			t.Errorf("%s(%v)=%v want %v", c.f, vals, got, c.want)
		}
	}
	if got := AggStd.Apply([]float64{1, 1, 1}); got != 0 {
		t.Errorf("std of constant = %v", got)
	}
	// Empty input conventions.
	if got := AggCount.Apply(nil); got != 0 {
		t.Errorf("count(nil)=%v", got)
	}
	if got := AggSum.Apply(nil); got != 0 {
		t.Errorf("sum(nil)=%v", got)
	}
	if got := AggMean.Apply(nil); !math.IsNaN(got) {
		t.Errorf("mean(nil)=%v want NaN", got)
	}
}

func TestParseAggFuncRoundTrip(t *testing.T) {
	for _, f := range []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggFirst, AggLast, AggStd, AggMedian} {
		got, err := ParseAggFunc(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: got %v err %v", f, got, err)
		}
	}
	if _, err := ParseAggFunc("bogus"); err == nil {
		t.Error("bogus aggregation accepted")
	}
	if got, _ := ParseAggFunc("avg"); got != AggMean {
		t.Error("avg alias broken")
	}
}

func TestQuantile(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{1, 2, 3, 4})
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0=%v", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Fatalf("q1=%v", got)
	}
	if got := s.Quantile(0.5); !almost(got, 2.5, 1e-12) {
		t.Fatalf("q.5=%v", got)
	}
	if got := s.Quantile(-0.1); !math.IsNaN(got) {
		t.Fatalf("q(-0.1)=%v want NaN", got)
	}
}

func TestAggregateRange(t *testing.T) {
	s := FromSamples("a", 0, 10, []float64{1, 2, 3, 4, 5})
	if got := s.AggregateRange(AggSum, 10, 40); got != 9 { // points at 10,20,30
		t.Fatalf("sum[10,40)=%v", got)
	}
	if got := s.AggregateRange(AggCount, 100, 200); got != 0 {
		t.Fatalf("count of empty range=%v", got)
	}
}

func TestZNormalize(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{1, 2, 3, 4, 5})
	z := s.ZNormalize()
	if !almost(z.Mean(), 0, 1e-12) || !almost(z.Std(), 1, 1e-12) {
		t.Fatalf("znorm mean=%v std=%v", z.Mean(), z.Std())
	}
	c := FromSamples("c", 0, 1, []float64{7, 7, 7})
	zc := c.ZNormalize()
	for _, v := range zc.Values() {
		if v != 0 {
			t.Fatalf("constant znorm has %v", v)
		}
	}
}

// Property: min <= mean <= max, median within [min,max], std >= 0.
func TestQuickAggregateBounds(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			// Keep magnitudes bounded so sums cannot overflow; the property
			// is about ordering, not extreme-value arithmetic.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := FromSamples("q", 0, 1, clean)
		mn, mx, mu := s.Min(), s.Max(), s.Mean()
		med := s.Median()
		return mn <= mx && mu >= mn-1e-9 && mu <= mx+1e-9 &&
			med >= mn && med <= mx && s.Std() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
