package ts

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	gotime "time"
)

func TestAppendEnforcesOrder(t *testing.T) {
	s := New("a")
	if err := s.Append(10, 1); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := s.Append(20, 2); err != nil {
		t.Fatalf("second append: %v", err)
	}
	if err := s.Append(20, 3); err != ErrOutOfOrder {
		t.Fatalf("equal timestamp: got %v, want ErrOutOfOrder", err)
	}
	if err := s.Append(5, 3); err != ErrOutOfOrder {
		t.Fatalf("earlier timestamp: got %v, want ErrOutOfOrder", err)
	}
	if s.Len() != 2 {
		t.Fatalf("rejected appends must not mutate: len=%d", s.Len())
	}
}

func TestUpsertKeepsOrderAndReplaces(t *testing.T) {
	s := New("a")
	for _, tt := range []Time{50, 10, 30, 20, 40} {
		s.Upsert(tt, float64(tt))
	}
	want := []Time{10, 20, 30, 40, 50}
	for i, w := range want {
		if s.TimeAt(i) != w {
			t.Fatalf("times[%d]=%d want %d", i, s.TimeAt(i), w)
		}
	}
	s.Upsert(30, 999) // replace, not insert
	if s.Len() != 5 {
		t.Fatalf("upsert of existing timestamp changed length to %d", s.Len())
	}
	if v, _ := s.Lookup(30); v != 999 {
		t.Fatalf("lookup(30)=%v want 999", v)
	}
}

func TestDelete(t *testing.T) {
	s := FromSamples("a", 0, 10, []float64{1, 2, 3})
	if !s.Delete(10) {
		t.Fatal("delete existing returned false")
	}
	if s.Delete(10) {
		t.Fatal("delete missing returned true")
	}
	if s.Len() != 2 {
		t.Fatalf("len=%d want 2", s.Len())
	}
	if _, ok := s.Lookup(10); ok {
		t.Fatal("deleted point still present")
	}
}

func TestFromPointsSortsAndDedups(t *testing.T) {
	s := FromPoints("a", []Point{{30, 3}, {10, 1}, {30, 33}, {20, 2}})
	if s.Len() != 3 {
		t.Fatalf("len=%d want 3", s.Len())
	}
	if v, _ := s.Lookup(30); v != 33 {
		t.Fatalf("duplicate timestamp should keep last value, got %v", v)
	}
}

func TestSliceHalfOpen(t *testing.T) {
	s := FromSamples("a", 0, 10, []float64{0, 1, 2, 3, 4})
	sl := s.Slice(10, 30)
	if sl.Len() != 2 || sl.TimeAt(0) != 10 || sl.TimeAt(1) != 20 {
		t.Fatalf("slice [10,30) = %v", sl.Points())
	}
	// Slice must not alias.
	sl.vals[0] = -1
	if s.ValueAt(1) == -1 {
		t.Fatal("Slice aliases parent storage")
	}
	v := s.SliceView(10, 30)
	if v.Len() != 2 {
		t.Fatalf("view len=%d", v.Len())
	}
}

func TestValueAtOrBefore(t *testing.T) {
	s := FromSamples("a", 100, 100, []float64{1, 2, 3})
	if _, ok := s.ValueAtOrBefore(99); ok {
		t.Fatal("before first point should miss")
	}
	for _, tc := range []struct {
		t    Time
		want float64
	}{{100, 1}, {150, 1}, {200, 2}, {5000, 3}} {
		if v, ok := s.ValueAtOrBefore(tc.t); !ok || v != tc.want {
			t.Fatalf("ValueAtOrBefore(%d)=%v,%v want %v", tc.t, v, ok, tc.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	now := gotime.Date(2024, 3, 1, 12, 0, 0, 0, gotime.UTC)
	tt := FromGoTime(now)
	if got := tt.GoTime(); !got.Equal(now) {
		t.Fatalf("round trip %v != %v", got, now)
	}
	if MaxTime.String() != "max" {
		t.Fatalf("MaxTime.String()=%q", MaxTime.String())
	}
}

func TestDiffAndMapAndFilter(t *testing.T) {
	s := FromSamples("a", 0, 1, []float64{1, 4, 9})
	d := s.Diff()
	if d.Len() != 2 || d.ValueAt(0) != 3 || d.ValueAt(1) != 5 {
		t.Fatalf("diff=%v", d.Points())
	}
	m := s.Map(math.Sqrt)
	if m.ValueAt(2) != 3 {
		t.Fatalf("map sqrt: %v", m.Points())
	}
	f := s.Filter(func(p Point) bool { return p.V > 2 })
	if f.Len() != 2 {
		t.Fatalf("filter: %v", f.Points())
	}
}

func TestEmptySeriesEdges(t *testing.T) {
	s := New("e")
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero series should be empty")
	}
	if s.Start() != MaxTime || s.End() != -1 {
		t.Fatalf("empty start/end = %v/%v", s.Start(), s.End())
	}
	if !math.IsNaN(s.Mean()) {
		t.Fatal("mean of empty should be NaN")
	}
	if s.Sum() != 0 {
		t.Fatal("sum of empty should be 0")
	}
	if got := s.Slice(0, 100); got.Len() != 0 {
		t.Fatal("slice of empty should be empty")
	}
}

// Property: Upsert in any order produces strictly increasing timestamps and
// lookup finds the last written value for each key.
func TestQuickUpsertOrdering(t *testing.T) {
	f := func(raw []int16) bool {
		s := New("q")
		last := map[Time]float64{}
		for i, r := range raw {
			tt := Time(r)
			v := float64(i)
			s.Upsert(tt, v)
			last[tt] = v
		}
		if s.Len() != len(last) {
			return false
		}
		for i := 1; i < s.Len(); i++ {
			if s.TimeAt(i) <= s.TimeAt(i-1) {
				return false
			}
		}
		for k, v := range last {
			if got, ok := s.Lookup(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice(a,b) contains exactly the points with a <= t < b.
func TestQuickSliceMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		s := New("q")
		n := rng.Intn(50)
		tt := Time(0)
		for i := 0; i < n; i++ {
			tt += Time(1 + rng.Intn(10))
			s.MustAppend(tt, rng.Float64())
		}
		a := Time(rng.Intn(300))
		b := a + Time(rng.Intn(300))
		sl := s.Slice(a, b)
		want := 0
		for _, p := range s.Points() {
			if p.T >= a && p.T < b {
				want++
			}
		}
		if sl.Len() != want {
			t.Fatalf("slice(%d,%d) len=%d want %d", a, b, sl.Len(), want)
		}
		for _, p := range sl.Points() {
			if p.T < a || p.T >= b {
				t.Fatalf("point %v outside [%d,%d)", p, a, b)
			}
		}
	}
}

// Property: FromPoints result is sorted regardless of input order.
func TestQuickFromPointsSorted(t *testing.T) {
	f := func(raw []int16) bool {
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{Time(r), float64(i)}
		}
		s := FromPoints("q", pts)
		return sort.SliceIsSorted(s.Times(), func(i, j int) bool {
			return s.Times()[i] < s.Times()[j]
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := FromSamples("a", 0, 10, []float64{1, math.NaN(), 3})
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal (NaN-aware)")
	}
	c.vals[0] = 99
	if s.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if s.ValueAt(0) == 99 {
		t.Fatal("clone aliases parent")
	}
}

// TestInvertedWindowIsEmpty: a window whose end precedes its start selects
// nothing — it used to slice [lo:hi] with hi < lo and panic, which a HyQL
// query could trigger with ts.mean(x, b, a).
func TestInvertedWindowIsEmpty(t *testing.T) {
	s := FromSamples("s", 0, 10, []float64{1, 2, 3, 4, 5})
	if got := s.SliceView(30, 10).Len(); got != 0 {
		t.Fatalf("SliceView(30, 10) has %d points", got)
	}
	if got := s.Slice(30, 10).Len(); got != 0 {
		t.Fatalf("Slice(30, 10) has %d points", got)
	}
	if got := s.AggregateRange(AggCount, 30, 10); got != 0 {
		t.Fatalf("count over an inverted window = %v", got)
	}
	if got := s.AggregateRange(AggMean, 30, 10); !math.IsNaN(got) {
		t.Fatalf("mean over an inverted window = %v", got)
	}
}
