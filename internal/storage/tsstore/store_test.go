package tsstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hygraph/internal/obs"
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
		if math.Abs(s.Sum-slice.Aggregate(ts.AggSum)) > 1e-6 {
			t.Fatalf("sum %v vs %v", s.Sum, slice.Aggregate(ts.AggSum))
		}
		if s.Min != slice.Min() || s.Max != slice.Max() {
			t.Fatalf("minmax %v/%v vs %v/%v", s.Min, s.Max, slice.Min(), slice.Max())
		}
		if math.Abs(s.Mean()-slice.Mean()) > 1e-9 {
			t.Fatalf("mean %v vs %v", s.Mean(), slice.Mean())
		}
	}
}

// aggregateShards is the shard-batched path ttdb fans out: every stripe's
// AggregateShard, merged into first-insertion order.
func aggregateShards(db *DB, metric string, start, end ts.Time) []EntitySummary {
	parts := make([][]EntitySummary, db.NumShards())
	for s := range parts {
		parts[s] = db.AggregateShard(s, metric, start, end)
	}
	return MergeBySeq(parts)
}

// entitiesOf returns the entity ids of every series of the metric in
// first-insertion order: a filter over Keys.
func entitiesOf(db *DB, metric string) []uint32 {
	var out []uint32
	for _, k := range db.Keys() {
		if k.Metric == metric {
			out = append(out, k.Entity)
		}
	}
	return out
}

// aggregateByEntity is the per-key reference: one Aggregate per series of
// the metric.
func aggregateByEntity(db *DB, metric string, start, end ts.Time) map[uint32]Summary {
	out := map[uint32]Summary{}
	for _, e := range entitiesOf(db, metric) {
		out[e] = db.Aggregate(SeriesKey{Entity: e, Metric: metric}, start, end)
	}
	return out
}

// The shard-batched aggregate returns one summary per series of the metric,
// in first-insertion order, each equal to that series' own Aggregate.
func TestAggregateShardsMatchPerKey(t *testing.T) {
	db := New(100)
	// Entity e has constant value e*10 over 100 points; insert high ids first.
	for e := uint32(5); e >= 1; e-- {
		for i := 0; i < 100; i++ {
			db.Insert(SeriesKey{Entity: e, Metric: "m"}, ts.Time(i), float64(e*10))
		}
	}
	// Another metric must not leak in.
	db.Insert(SeriesKey{Entity: 9, Metric: "other"}, 0, 1e9)
	got := aggregateShards(db, "m", 0, 100)
	want := aggregateByEntity(db, "m", 0, 100)
	if len(got) != 5 || len(want) != 5 {
		t.Fatalf("%d batched, %d per-key summaries, want 5", len(got), len(want))
	}
	for i, es := range got {
		if es.Entity != uint32(5-i) {
			t.Fatalf("position %d holds entity %d, want insertion order", i, es.Entity)
		}
		if es.Summary != want[es.Entity] {
			t.Fatalf("entity %d: batched %+v, per-key %+v", es.Entity, es.Summary, want[es.Entity])
		}
	}
	if m := want[3].Mean(); m != 30 {
		t.Fatalf("entity 3 mean=%v", m)
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
	db.Insert(k(1), 250, 1) // reopens slot 2, sealing the tail chunk
	check("sealed head and tail", 30, 999)
	db.Insert(k(1), -5, 1)
	db.Insert(k(1), 1200, 1)
	check("extended on both ends", -5, 1200)
	db.DeleteSeries(k(1))
	if _, _, ok := db.Span(k(1)); ok {
		t.Fatal("span of a deleted series")
	}
}

// Writing into a sealed slot must inflate its block, apply the write, and
// keep the point and the chunk summary visible to queries.
func TestWriteIntoSealedChunkInflates(t *testing.T) {
	db := NewSharded(100, 2)
	for i := 0; i < 1000; i++ {
		db.Insert(k(1), ts.Time(i*10), float64(i%50))
	}
	reg := obs.New()
	db.Instrument(reg)
	db.Insert(k(1), 5, 999) // t=5 lives in the first slot, sealed long ago
	if reg.Snapshot().Counters["tsstore.compress.inflates"] == 0 {
		t.Fatal("write into a sealed slot did not inflate")
	}
	found := false
	for _, p := range db.Range(k(1), 0, 10) {
		if p.T == 5 && p.V == 999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted point missing after inflate: %+v", db.Range(k(1), 0, 10))
	}
	if s := db.Aggregate(k(1), 0, 100); s.Max != 999 {
		t.Fatalf("summary not updated after inflate: %+v", s)
	}
	if db.Err() != nil {
		t.Fatalf("store degraded: %v", db.Err())
	}
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// foldRange is the reference aggregate: a per-point fold of Range.
func foldRange(db *DB, key SeriesKey, start, end ts.Time) Summary {
	out := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, p := range db.Range(key, start, end) {
		out.add(1, p.V, p.V, p.V)
	}
	return normalize(out)
}

// Regression: the full-cover test computed a slot's end as
// slot*width+width, which wraps in the last slot, so an edge chunk there
// counted as covered and Aggregate folded points past end; slot*width wraps
// the same way in the first slot. Each case must agree with Range, on the
// raw layout and with the extreme chunk sealed.
func TestAggregateSlotBoundsNoWrap(t *testing.T) {
	const maxT, minT = ts.Time(math.MaxInt64), ts.Time(math.MinInt64)
	cases := []struct {
		name       string
		width      ts.Time
		at         ts.Time // the extreme point, inserted first so its chunk seals
		start, end ts.Time
		want       int
	}{
		{"last slot, end before the point", 0, maxT - 10, 1, maxT - 15, 0},
		{"last slot, narrow width", 100, maxT - 1, 1, maxT - 1, 0},
		{"last slot, end past the point", 100, maxT - 1, 1, maxT, 1},
		{"first slot, start past the point", 0, minT + 10, minT + 15, 1, 1},
		{"first slot, narrow width", 100, minT + 1, minT + 2, 0, 0},
		{"first slot, whole slot", 100, minT + 1, minT, 0, 1},
	}
	for _, tc := range cases {
		for _, compress := range []bool{false, true} {
			db := New(tc.width)
			db.SetCompress(compress)
			db.Insert(k(1), tc.at, 5)
			db.Insert(k(1), 0, 1)
			got := db.Aggregate(k(1), tc.start, tc.end)
			if got.Count != tc.want || len(db.Range(k(1), tc.start, tc.end)) != tc.want {
				t.Errorf("%s (compress %v): Aggregate counts %d, Range %d, want %d",
					tc.name, compress, got.Count, len(db.Range(k(1), tc.start, tc.end)), tc.want)
			}
		}
	}
}

// Aggregate over sealed edge chunks folds sub-slot summaries and decodes at
// most one sub-slot per window bound. Sweep windows whose bounds fall on,
// next to and between sub-slot boundaries: every answer must equal the
// per-point fold of Range.
func TestAggregateEdgeMatchesRange(t *testing.T) {
	db := New(1000)
	rng := rand.New(rand.NewSource(21))
	var times []ts.Time
	for at := ts.Time(-3000); at < 3000; at += ts.Time(1 + rng.Intn(6)) {
		v := float64(rng.Intn(50))
		if rng.Intn(40) == 0 {
			v = math.NaN()
		}
		db.Insert(k(1), at, v)
		times = append(times, at)
	}
	db.Insert(k(1), 5000, 1) // seal the last swept chunk
	var bounds []ts.Time
	for i := 0; i < len(times); i += 1 + rng.Intn(9) {
		bounds = append(bounds, times[i]-1, times[i], times[i]+1)
	}
	for trial := 0; trial < 4000; trial++ {
		a, b := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		if a > b {
			a, b = b, a
		}
		got, want := db.Aggregate(k(1), a, b), foldRange(db, k(1), a, b)
		if got.Count != want.Count || !sameFloat(got.Sum, want.Sum) || !sameFloat(got.Min, want.Min) || !sameFloat(got.Max, want.Max) {
			t.Fatalf("[%d, %d): Aggregate %+v, fold of Range %+v", a, b, got, want)
		}
	}
	if db.Err() != nil {
		t.Fatal(db.Err())
	}
}

// An aggregate whose two edges fall in indexed sealed chunks allocates
// nothing: sub-slots fold in place and the edge decode runs on the stack.
func TestAggregateEdgeNoAlloc(t *testing.T) {
	db := New(ts.Week)
	for h := ts.Time(0); h < 8*ts.Week; h += ts.Hour {
		db.Insert(k(1), h, float64(h/ts.Hour%40))
	}
	start, end := ts.Week+5*ts.Hour, 6*ts.Week+77*ts.Hour
	db.Aggregate(k(1), start, end) // builds both edge indexes
	if allocs := testing.AllocsPerRun(100, func() { db.Aggregate(k(1), start, end) }); allocs != 0 {
		t.Fatalf("edge aggregate allocates %v times per run", allocs)
	}
}

// A scan over sealed chunks whose sub-slot indexes exist allocates
// nothing: each chunk decodes in place from its checkpoint into the
// visitor, however many chunks the scan crosses.
func TestRangeFuncSealedNoAlloc(t *testing.T) {
	db := NewSharded(10, 1)
	for i := 0; i < 2001; i++ {
		db.Insert(k(1), ts.Time(i*10), float64(i%7))
	}
	if st := db.Stats(); st.CompressedChunks != 2000 {
		t.Fatalf("%d sealed chunks, want 2000", st.CompressedChunks)
	}
	var n int
	var sum float64
	visit := func(_ ts.Time, v float64) { n++; sum += v }
	db.RangeFunc(k(1), 0, 20000, visit) // builds every index
	if n != 2000 {
		t.Fatalf("scan visited %d points, want 2000", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { db.RangeFunc(k(1), 0, 20000, visit) }); allocs != 0 {
		t.Fatalf("sealed scan allocates %v times per run", allocs)
	}
	if db.Err() != nil {
		t.Fatal(db.Err())
	}
}

// BenchmarkAggregateEdge measures Aggregate on one series, a year of week
// chunks sampled once an hour, over windows that cut both edge chunks at
// random hours. "hourly" samples on the hour, the regular cadence whose
// sub-slots fold without reading the time stream; "jittered" moves each
// sample up to half an hour late, so every edge sub-slot takes the per-point
// walk.
func BenchmarkAggregateEdge(b *testing.B) {
	for _, tc := range []struct {
		name   string
		jitter ts.Time
	}{{"hourly", 0}, {"jittered", 30 * ts.Minute}} {
		b.Run(tc.name, func(b *testing.B) {
			db := New(ts.Week)
			rng := rand.New(rand.NewSource(9))
			for h := ts.Time(0); h < 52*ts.Week; h += ts.Hour {
				at := h
				if tc.jitter > 0 {
					at += ts.Time(rng.Int63n(int64(tc.jitter)))
				}
				db.Insert(k(1), at, float64(h/ts.Hour%40))
			}
			wins := make([][2]ts.Time, 1024)
			for i := range wins {
				start := ts.Time(rng.Intn(26*7*24)) * ts.Hour
				wins[i] = [2]ts.Time{start, start + ts.Time(7*24+rng.Intn(26*7*24))*ts.Hour}
			}
			for _, w := range wins {
				db.Aggregate(k(1), w[0], w[1])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := wins[i%len(wins)]
				if s := db.Aggregate(k(1), w[0], w[1]); s.Count == 0 {
					b.Fatal("empty window")
				}
			}
		})
	}
}
