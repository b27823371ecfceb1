package tpg

import (
	"testing"
	"testing/quick"

	"hygraph/internal/ts"
)

func TestIntervalContains(t *testing.T) {
	iv := Between(10, 20)
	for _, tc := range []struct {
		t    ts.Time
		want bool
	}{{9, false}, {10, true}, {15, true}, {19, true}, {20, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d)=%v", tc.t, got)
		}
	}
	if !Always.Contains(0) || !Always.Contains(1<<60) {
		t.Error("Always should contain everything non-negative")
	}
	if !From(5).Contains(5) || From(5).Contains(4) {
		t.Error("From(5)")
	}
}

func TestIntervalOverlapIntersect(t *testing.T) {
	a := Between(0, 10)
	b := Between(5, 15)
	c := Between(10, 20) // adjacent to a, half-open → disjoint
	iv, ok := a.Intersect(b)
	if !ok || iv.Start != 5 || iv.End != 10 {
		t.Errorf("intersect=%v", iv)
	}
	if _, ok := b.Intersect(a); !ok {
		t.Error("b/a overlap")
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("adjacent intersect must fail")
	}
}

// Property: Intersect is commutative, its result lies within both inputs,
// and it succeeds exactly when some instant lies in both.
func TestQuickIntersect(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := Between(ts.Time(min16(a1, a2)), ts.Time(max16(a1, a2)))
		b := Between(ts.Time(min16(b1, b2)), ts.Time(max16(b1, b2)))
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 {
			return false
		}
		shared := a.Start < b.End && b.Start < a.End
		if !ok1 {
			return !shared
		}
		within := func(o Interval) bool { return o.Start <= i1.Start && i1.End <= o.End }
		return i1 == i2 && within(a) && within(b) && shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}
