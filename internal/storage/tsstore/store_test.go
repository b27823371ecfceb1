package tsstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hygraph/internal/ts"
)

func k(e uint32) SeriesKey { return SeriesKey{Entity: e, Metric: "m"} }

func TestInsertAndRange(t *testing.T) {
	db := New(100)
	for i := 0; i < 1000; i++ {
		db.Insert(k(1), ts.Time(i), float64(i))
	}
	pts := db.Range(k(1), 250, 260)
	if len(pts) != 10 {
		t.Fatalf("range len=%d", len(pts))
	}
	for i, p := range pts {
		if p.T != ts.Time(250+i) || p.V != float64(250+i) {
			t.Fatalf("pts[%d]=%v", i, p)
		}
	}
	// Cross-chunk range.
	pts = db.Range(k(1), 95, 205)
	if len(pts) != 110 {
		t.Fatalf("cross-chunk len=%d", len(pts))
	}
	// Empty cases.
	if got := db.Range(k(2), 0, 10); got != nil {
		t.Fatal("missing series")
	}
	if got := db.Range(k(1), 10, 10); got != nil {
		t.Fatal("empty range")
	}
	if got := db.Range(k(1), 5000, 6000); got != nil {
		t.Fatal("beyond data")
	}
}

func TestUpsert(t *testing.T) {
	db := New(100)
	db.Insert(k(1), 50, 1)
	db.Insert(k(1), 50, 9) // replace
	pts := db.Range(k(1), 0, 100)
	if len(pts) != 1 || pts[0].V != 9 {
		t.Fatalf("after upsert: %v", pts)
	}
	s := db.Aggregate(k(1), 0, 100)
	if s.Count != 1 || s.Sum != 9 || s.Min != 9 || s.Max != 9 {
		t.Fatalf("summary after upsert: %+v", s)
	}
}

func TestOutOfOrderInsertWithinChunk(t *testing.T) {
	db := New(1000)
	for _, tt := range []ts.Time{50, 10, 30, 20, 40} {
		db.Insert(k(1), tt, float64(tt))
	}
	pts := db.Range(k(1), 0, 100)
	if len(pts) != 5 {
		t.Fatalf("len=%d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("not sorted: %v", pts)
		}
	}
}

func TestAggregatePushdownMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := New(ts.Day)
	ref := ts.New("ref")
	tt := ts.Time(0)
	for i := 0; i < 5000; i++ {
		tt += ts.Time(1+rng.Intn(60)) * ts.Minute
		v := rng.NormFloat64() * 10
		db.Insert(k(7), tt, v)
		ref.MustAppend(tt, v)
	}
	for trial := 0; trial < 50; trial++ {
		a := ts.Time(rng.Intn(int(tt)))
		b := a + ts.Time(rng.Intn(int(tt)))
		s := db.Aggregate(k(7), a, b)
		slice := ref.SliceView(a, b)
		if s.Count != slice.Len() {
			t.Fatalf("count %d vs %d for [%d,%d)", s.Count, slice.Len(), a, b)
		}
		if s.Count == 0 {
			if !math.IsNaN(s.Min) || !math.IsNaN(s.Max) {
				t.Fatalf("empty summary min/max: %+v", s)
			}
			continue
		}
		if math.Abs(s.Sum-slice.Sum()) > 1e-6 {
			t.Fatalf("sum %v vs %v", s.Sum, slice.Sum())
		}
		if s.Min != slice.Min() || s.Max != slice.Max() {
			t.Fatalf("minmax %v/%v vs %v/%v", s.Min, s.Max, slice.Min(), slice.Max())
		}
		if math.Abs(s.Mean()-slice.Mean()) > 1e-9 {
			t.Fatalf("mean %v vs %v", s.Mean(), slice.Mean())
		}
	}
}

func TestAggregateAllAndTopK(t *testing.T) {
	db := New(100)
	// Entity e has constant value e*10 over 100 points.
	for e := uint32(1); e <= 5; e++ {
		for i := 0; i < 100; i++ {
			db.Insert(SeriesKey{Entity: e, Metric: "m"}, ts.Time(i), float64(e*10))
		}
	}
	// Another metric must not leak in.
	db.Insert(SeriesKey{Entity: 9, Metric: "other"}, 0, 1e9)
	all := db.AggregateAll("m", 0, 100)
	if len(all) != 5 {
		t.Fatalf("aggregateAll=%d", len(all))
	}
	if all[3].Mean() != 30 {
		t.Fatalf("entity 3 mean=%v", all[3].Mean())
	}
	top := db.TopKByMean("m", 0, 100, 2)
	if len(top) != 2 || top[0] != 5 || top[1] != 4 {
		t.Fatalf("topk=%v", top)
	}
	if got := db.TopKByMean("m", 0, 100, 99); len(got) != 5 {
		t.Fatalf("topk clamp=%v", got)
	}
}

func TestRangeSeriesAndDownsample(t *testing.T) {
	db := New(ts.Day)
	src := ts.New("src")
	for i := 0; i < 48; i++ {
		src.MustAppend(ts.Time(i)*ts.Hour, float64(i))
	}
	db.InsertSeries(k(1), src)
	rs := db.RangeSeries(k(1), 0, 48*ts.Hour)
	if rs.Len() != 48 {
		t.Fatalf("rangeSeries len=%d", rs.Len())
	}
	ds := db.Downsample(k(1), 0, 48*ts.Hour, ts.Day, ts.AggMean)
	if ds.Len() != 2 {
		t.Fatalf("downsample len=%d", ds.Len())
	}
	if ds.ValueAt(0) != 11.5 || ds.ValueAt(1) != 35.5 {
		t.Fatalf("downsample=%v", ds.Points())
	}
}

func TestNegativeTimes(t *testing.T) {
	db := New(100)
	db.Insert(k(1), -150, 1)
	db.Insert(k(1), -50, 2)
	db.Insert(k(1), 50, 3)
	pts := db.Range(k(1), -200, 100)
	if len(pts) != 3 {
		t.Fatalf("negative range: %v", pts)
	}
	s := db.Aggregate(k(1), -200, 0)
	if s.Count != 2 || s.Sum != 3 {
		t.Fatalf("negative agg: %+v", s)
	}
}

func TestStatsAndKeys(t *testing.T) {
	db := New(10)
	for i := 0; i < 25; i++ {
		db.Insert(k(1), ts.Time(i), 0)
	}
	db.Insert(k(2), 0, 0)
	st := db.Stats()
	if st.Series != 2 || st.Points != 26 || st.Chunks != 4 {
		t.Fatalf("stats=%+v", st)
	}
	keys := db.Keys()
	if len(keys) != 2 || keys[0] != k(1) {
		t.Fatalf("keys=%v", keys)
	}
	if db.NumSeries() != 2 {
		t.Fatal("numSeries")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := New(ts.Day)
	tt := ts.Time(0)
	for e := uint32(0); e < 5; e++ {
		tt = ts.Time(int64(e)) * 1000
		for i := 0; i < 500; i++ {
			tt += ts.Time(1+rng.Intn(120)) * ts.Minute
			db.Insert(SeriesKey{Entity: e, Metric: "m"}, tt, rng.NormFloat64()*100)
		}
	}
	db.Insert(SeriesKey{Entity: 9, Metric: "other"}, -5000, 3.25)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeries() != db.NumSeries() {
		t.Fatalf("series %d vs %d", back.NumSeries(), db.NumSeries())
	}
	if got, want := back.Stats(), db.Stats(); got != want {
		t.Fatalf("stats %+v vs %+v", got, want)
	}
	for _, key := range db.Keys() {
		a := db.Range(key, -1<<40, 1<<40)
		b := back.Range(key, -1<<40, 1<<40)
		if len(a) != len(b) {
			t.Fatalf("%v: %d vs %d points", key, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v point %d: %v vs %v", key, i, a[i], b[i])
			}
		}
		// Summaries recomputed correctly: aggregation answers agree.
		sa := db.Aggregate(key, -1<<40, 1<<40)
		sb := back.Aggregate(key, -1<<40, 1<<40)
		if sa.Count != sb.Count || math.Abs(sa.Sum-sb.Sum) > 1e-9 ||
			sa.Min != sb.Min || sa.Max != sb.Max {
			t.Fatalf("%v summaries: %+v vs %+v", key, sa, sb)
		}
	}
	// Key order preserved (affects deterministic scans).
	ka, kb := db.Keys(), back.Keys()
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key order: %v vs %v", ka, kb)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestAggregateAllParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := New(ts.Day)
	for e := uint32(0); e < 40; e++ {
		tt := ts.Time(0)
		for i := 0; i < 300; i++ {
			tt += ts.Time(1+rng.Intn(60)) * ts.Minute
			db.Insert(SeriesKey{Entity: e, Metric: "m"}, tt, rng.NormFloat64())
		}
	}
	serial := db.AggregateAll("m", 0, 1<<40)
	for _, workers := range []int{1, 2, 8} {
		par := db.AggregateAllParallel("m", 0, 1<<40, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d vs %d entities", workers, len(par), len(serial))
		}
		for e, want := range serial {
			got := par[e]
			if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-9 ||
				got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("workers=%d entity %d: %+v vs %+v", workers, e, got, want)
			}
		}
	}
}

// TestSpan: the first and last sample times, whatever state the outermost
// chunks are in, following appends on both ends; nothing for a key without
// samples.
func TestSpan(t *testing.T) {
	db := New(100)
	if _, _, ok := db.Span(k(1)); ok {
		t.Fatal("span of an absent series")
	}
	for _, at := range []ts.Time{250, 30, 170, 999} {
		db.Insert(k(1), at, 1)
	}
	check := func(label string, first, last ts.Time) {
		t.Helper()
		if f, l, ok := db.Span(k(1)); !ok || f != first || l != last {
			t.Fatalf("%s: span = [%d, %d] %v, want [%d, %d]", label, f, l, ok, first, last)
		}
	}
	check("open and sealed chunks", 30, 999)
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Spill(); err != nil {
		t.Fatal(err)
	}
	db.DropBlockCache()
	check("spilled head chunk", 30, 999)
	db.Insert(k(1), -5, 1)
	db.Insert(k(1), 1200, 1)
	check("extended on both ends", -5, 1200)
	db.DeleteSeries(k(1))
	if _, _, ok := db.Span(k(1)); ok {
		t.Fatal("span of a deleted series")
	}
}
