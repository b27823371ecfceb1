package mark

import (
	"math"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := Generate(7, 12, 21), Generate(7, 12, 21), Generate(8, 12, 21)
	if a.Hash() != b.Hash() {
		t.Errorf("same seed, different datasets: %s vs %s", a.Hash(), b.Hash())
	}
	if a.Hash() == c.Hash() {
		t.Errorf("seeds 7 and 8 gave the same dataset %s", a.Hash())
	}
	if len(a.Stations) != len(c.Stations) || len(a.Trips) == 0 || a.Points() != c.Points() {
		t.Errorf("the dataset's shape must not depend on the seed")
	}
	gens := map[string]func(seed int64) Gen{
		"read_point": func(s int64) Gen { return NewReadPoint(s, 12, 21) },
		"read_scan":  func(s int64) Gen { return NewReadScan(s, 12, 21) },
		"appends":    func(s int64) Gen { return NewAppends(s, 12, 21) },
		"refreshes":  func(s int64) Gen { return NewRefreshes(s, 12, 21) },
	}
	for name, gen := range gens {
		x, y, z := HashOps(Take(gen(7), 500)), HashOps(Take(gen(7), 500)), HashOps(Take(gen(8), 500))
		if x != y {
			t.Errorf("%s: same seed, different ops", name)
		}
		if x == z {
			t.Errorf("%s: seeds 7 and 8 gave the same ops", name)
		}
	}
}

func TestOpsStayInsideTheData(t *testing.T) {
	const stations, days = 9, 70
	for _, g := range []Gen{NewReadPoint(1, stations, days), NewReadScan(1, stations, days)} {
		for _, op := range Take(g, 2000) {
			if op.Start < 0 || op.End > int64(days)*Day || op.End-op.Start < Week || op.St >= stations || op.Other >= stations {
				t.Fatalf("op outside the dataset: %+v", op)
			}
			if op.Class == "Q7" && op.St == op.Other {
				t.Fatalf("Q7 correlates a station with itself: %+v", op)
			}
		}
	}
	seen := map[[2]int64]bool{}
	for _, op := range Take(NewAppends(1, stations, days), 500) {
		k := [2]int64{int64(op.St), op.Start}
		if seen[k] || op.Start < int64(days)*Day {
			t.Fatalf("append overwrites a sample: %+v", op)
		}
		seen[k] = true
	}
}

// tiny is two stations of six hourly samples and one station of none.
func tiny() *Model {
	return NewModel(&Dataset{Days: 1, Stations: []Station{
		{Name: "a", District: "north", Vals: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "b", District: "north", Vals: []float64{6, 4, 5, 1, 2, 3}},
		{Name: "c", District: "south"},
	}, Trips: []Trip{{From: 0, To: 1, Count: 3}, {From: 2, To: 0, Count: 1}, {From: 1, To: 0, Count: 9}}})
}

func TestModelByHand(t *testing.T) {
	m := tiny()
	lens := m.Lens()
	// [1h, 4h) holds samples 1, 2, 3; an unaligned start rounds up.
	if got := m.Range(0, 6, Hour, 4*Hour); len(got) != 3 || got[0] != (Point{Hour, 2}) || got[2] != (Point{3 * Hour, 4}) {
		t.Errorf("Range = %v", got)
	}
	if got := m.Range(0, 6, Hour+1, 4*Hour); len(got) != 2 || got[0].T != 2*Hour {
		t.Errorf("Range from an unaligned start = %v", got)
	}
	if got := m.Range(0, 2, 0, 4*Hour); len(got) != 2 {
		t.Errorf("Range over a prefix of 2 = %v", got)
	}
	if got := m.Below(1, 6, 0, Day, 4); len(got) != 3 || got[0].V != 1 {
		t.Errorf("Below 4 = %v", got)
	}
	if got := m.Mean(0, 6, Hour, 4*Hour); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := m.Mean(2, 0, 0, Day); got != 0 {
		t.Errorf("Mean of nothing = %v, want 0", got)
	}
	if got := m.Downsample(0, 6, Hour, 6*Hour, 2*Hour); len(got) != 3 ||
		got[0] != (Point{0, 2}) || got[1] != (Point{2 * Hour, 3.5}) || got[2] != (Point{4 * Hour, 5.5}) {
		t.Errorf("Downsample = %v", got)
	}
	if got := m.DistrictSums(lens, 0, Day); got["north"] != 42 || got["south"] != 0 || len(got) != 2 {
		t.Errorf("DistrictSums = %v", got)
	}
	// a and b both average 3.5: the tie goes to the lower station; c has no
	// sample and does not rank.
	if got := m.TopK(lens, 0, Day, 3); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("TopK = %v", got)
	}
	if got := m.TopK(lens, 0, 3*Hour, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("TopK over the first three hours = %v, want [1]", got)
	}
	if got := m.Adj[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("neighbours of a = %v, want [1 2]", got)
	}
	// Samples 3..5 of a are 4,5,6 and of b are 1,2,3: perfectly correlated.
	if got := m.Corr(0, 6, 1, 6, 3*Hour, 6*Hour, Hour); !Close(got, 1) {
		t.Errorf("Corr = %v, want 1", got)
	}
	if got := m.Corr(0, 6, 1, 6, 0, Hour, Hour); !math.IsNaN(got) {
		t.Errorf("Corr over one bucket = %v, want NaN", got)
	}
}

func TestClose(t *testing.T) {
	if !Close(math.NaN(), math.NaN()) || Close(math.NaN(), 1) || !Close(1, 1+1e-12) || Close(1, 1+1e-6) || !Close(0, 0) {
		t.Error("Close: NaN must equal NaN, and the tolerance is 1e-9 relative")
	}
}

func TestPercentiles(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := Percentile(s, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if got := Percentile(s, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	// The reported tail is the highest percentile with ten samples beyond it.
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9, 100000: 99.99} {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if sum := Summarize(s); sum.N != 100 || sum.TailP != 90 || sum.Tail != 90 {
		t.Errorf("Summarize = %+v", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("Quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := Spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); !Close(got, 27.5/13.5) {
		t.Errorf("Spread = %v", got)
	}
}
