package tsstore

import (
	"math"
	"sort"
	"testing"

	"hygraph/internal/ts"
)

// fuzzValue decodes the low four bits of a fuzz byte into a point value:
// 0..13 are -3.25..3.25 in half steps, 14 is negative zero and 15 is NaN.
func fuzzValue(b byte) float64 {
	switch b & 15 {
	case 14:
		return math.Copysign(0, -1)
	case 15:
		return math.NaN()
	}
	return float64(b&15)/2 - 3.25
}

// FuzzDownsample drives a store through tail appends, upserts, out-of-order
// writes, NaN points, batch loads, deletes and chunk seals (one-hour chunks,
// so cursor moves seal constantly) decoded from the fuzz bytes, then checks
// one window on both series:
//
//   - RangeSeries holds exactly the points of a map model of the writes;
//   - Aggregate equals the fold of those points (signed zeros equal);
//   - Downsample equals RangeSeries(...).Resample(bucket, agg) bit for bit,
//     with NaN equal to NaN;
//   - CorrelateResampled equals ts.Pearson over the two series' mean
//     resamples joined on shared buckets.
//
// Each operation is two bytes, an opcode and an argument. The opcode's low
// bit picks the series, the next three bits the operation (five of the
// eight are a tail append) and the high four bits the value written.
func FuzzDownsample(f *testing.F) {
	// A seed history of every operation: about 12 hours of points per
	// series from the origin, with one early delete that its series refills.
	var ops []byte
	x := uint32(1)
	rnd := func() byte { x = x*1664525 + 1013904223; return byte(x >> 24) }
	for j := 0; j < 180; j++ {
		op, arg := byte(j&1)|rnd()&0xf0, 60+rnd()%120
		switch r := rnd() % 16; {
		case j == 20:
			op |= 6 << 1
		case r < 11:
			op |= (r % 4) << 1
		case r < 13:
			op, arg = op|4<<1, rnd()
		default:
			op |= 5 << 1
		}
		ops = append(ops, op, arg)
	}
	// Each window also reaches back before zero, where buckets floor.
	for _, w := range streamWindows {
		f.Add(ops, int64(w.start), int64(w.end), int64(w.bucket), uint8(w.agg))
		f.Add(ops, int64(w.start-2*ts.Hour), int64(w.end), int64(w.bucket), uint8(w.agg))
	}
	// Tail appends only, on a 10-minute cadence, on a jittered one, and on
	// the 10-minute cadence but for one point: sealed chunks whose sub-slots
	// are regular, irregular, and regular but one.
	for shape := 0; shape < 3; shape++ {
		var ops []byte
		for j := 0; j < 200; j++ {
			op, arg := byte(j&1)|rnd()&0xf0, byte(99)
			if shape == 1 || shape == 2 && j == 101 {
				arg = 90 + rnd()%20
			}
			ops = append(ops, op, arg)
		}
		for _, w := range streamWindows[:3] {
			f.Add(ops, int64(w.start), int64(w.end), int64(w.bucket), uint8(w.agg))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte, start, end, bucket int64, agg uint8) {
		const origin = -3 * ts.Hour
		keys := []SeriesKey{{Entity: 1, Metric: "avail"}, {Entity: 2, Metric: "avail"}}
		db := NewSharded(ts.Hour, 1)
		model := map[SeriesKey]map[ts.Time]float64{keys[0]: {}, keys[1]: {}}
		head := map[SeriesKey]ts.Time{keys[0]: origin, keys[1]: origin}
		for i := 0; i+1 < len(ops) && i < 512; i += 2 {
			op, arg := ops[i], ts.Time(ops[i+1])
			k, v := keys[op&1], fuzzValue(op>>4)
			switch (op >> 1) & 7 {
			case 0, 1, 2, 3, 7: // tail append
				head[k] += (1 + arg) * 6 * ts.Second
				db.Insert(k, head[k], v)
				model[k][head[k]] = v
			case 4: // upsert or out-of-order write behind the head
				at := head[k] - arg*24*ts.Second
				db.Insert(k, at, v)
				model[k][at] = v
			case 5: // batch load
				batch := ts.New("b")
				for n := ts.Time(0); n <= arg%8; n++ {
					head[k] += (1 + arg/8) * 24 * ts.Second
					v := fuzzValue(op>>4 + byte(n))
					batch.MustAppend(head[k], v)
					model[k][head[k]] = v
				}
				db.InsertSeries(k, batch)
			case 6: // delete; later writes rebuild from the origin
				db.DeleteSeries(k)
				model[k] = map[ts.Time]float64{}
				head[k] = origin
			}
		}
		lo, hi, width := ts.Time(start%int64(24*ts.Hour)), ts.Time(end%int64(24*ts.Hour)), ts.Time(bucket%int64(3*ts.Hour))
		if width < 0 {
			width = -width
		}
		fn := ts.AggFunc(agg % 9)

		ranges := make([]*ts.Series, len(keys))
		for j, k := range keys {
			var want []ts.Time
			for at := range model[k] {
				if lo <= at && at < hi {
					want = append(want, at)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			got := db.RangeSeries(k, lo, hi)
			if got.Len() != len(want) {
				t.Fatalf("%v [%d, %d): RangeSeries holds %d points, the model %d", k, lo, hi, got.Len(), len(want))
			}
			for n, at := range want {
				if got.TimeAt(n) != at || math.Float64bits(got.ValueAt(n)) != math.Float64bits(model[k][at]) {
					t.Fatalf("%v point %d: (%d, %v), the model (%d, %v)", k, n, got.TimeAt(n), got.ValueAt(n), at, model[k][at])
				}
			}
			ranges[j] = got
			sum, fold := db.Aggregate(k, lo, hi), Summary{Min: math.Inf(1), Max: math.Inf(-1)}
			for n := 0; n < got.Len(); n++ {
				v := got.ValueAt(n)
				fold.add(1, v, v, v)
			}
			// Chunk summaries fold in write order, the range in time order: the
			// values are exact, so only the sign of a zero extremum may differ.
			same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
			if fold = normalize(fold); sum.Count != fold.Count || !same(sum.Sum, fold.Sum) || !same(sum.Min, fold.Min) || !same(sum.Max, fold.Max) {
				t.Fatalf("%v [%d, %d): Aggregate %+v, fold of RangeSeries %+v", k, lo, hi, sum, fold)
			}

			ds := db.Downsample(k, lo, hi, width, fn)
			ref := got.Resample(width, fn)
			if ds.Name() != ref.Name() || !sameResample(ds, ref) {
				t.Fatalf("%v [%d, %d) bucket %d %v:\nDownsample %v\nResample   %v", k, lo, hi, width, fn, ds, ref)
			}
		}
		av, bv, _ := ts.Align(ranges[0], ranges[1], width, ts.AggMean)
		got, want := db.CorrelateResampled(keys[0], keys[1], lo, hi, width), ts.Pearson(av, bv)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("[%d, %d) bucket %d: CorrelateResampled %v, Pearson over the resamples %v", lo, hi, width, got, want)
		}
		if err := db.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDownsample measures Downsample on one hourly series, a year of
// week chunks, over 14-day windows at hour buckets whose start slides by an
// hour per call.
func BenchmarkDownsample(b *testing.B) {
	db := New(ts.Week)
	for h := ts.Time(0); h < 52*ts.Week; h += ts.Hour {
		db.Insert(k(1), h, float64(h/ts.Hour%40))
	}
	const span = 14 * ts.Day
	starts := int((52*ts.Week - span) / ts.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := ts.Time(i%starts) * ts.Hour
		if s := db.Downsample(k(1), start, start+span, ts.Hour, ts.AggMean); s.Len() != 14*24 {
			b.Fatalf("window at %d: %d buckets", start, s.Len())
		}
	}
}
