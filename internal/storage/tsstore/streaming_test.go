package tsstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hygraph/internal/ts"
)

// sameResample is element-wise equality of times and value bits, with any
// NaN equal to any NaN.
func sameResample(a, b *ts.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.TimeAt(i) != b.TimeAt(i) {
			return false
		}
		av, bv := a.ValueAt(i), b.ValueAt(i)
		if math.Float64bits(av) != math.Float64bits(bv) && !(math.IsNaN(av) && math.IsNaN(bv)) {
			return false
		}
	}
	return true
}

// streamChecker drives one store through random interleavings of
// append/upsert/out-of-order/delete/seal and asserts, at every
// checkpoint, that each Downsample answer equals a from-scratch
// resample of the same window — element-wise, with the 1e-9 tolerance the
// battery promises (the implementation is in fact bit-exact).
type streamWindow struct {
	start, end, bucket ts.Time
	agg                ts.AggFunc
}

func checkWindows(t *testing.T, db *DB, keys []SeriesKey, windows []streamWindow, where string) {
	t.Helper()
	for _, k := range keys {
		for _, w := range windows {
			got := db.Downsample(k, w.start, w.end, w.bucket, w.agg)
			want := db.RangeSeries(k, w.start, w.end).Resample(w.bucket, w.agg)
			if got.Len() != want.Len() {
				t.Fatalf("%s: key %v window %+v: %d buckets vs %d", where, k, w, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if got.TimeAt(i) != want.TimeAt(i) {
					t.Fatalf("%s: key %v window %+v bucket %d: time %d vs %d",
						where, k, w, i, got.TimeAt(i), want.TimeAt(i))
				}
				gv, wv := got.ValueAt(i), want.ValueAt(i)
				if math.IsNaN(gv) && math.IsNaN(wv) {
					continue
				}
				if math.Abs(gv-wv) > 1e-9 {
					t.Fatalf("%s: key %v window %+v bucket %d: %v vs %v",
						where, k, w, i, gv, wv)
				}
			}
		}
	}
}

// streamWindows are the windows the differential battery checks; they also
// seed FuzzDownsample's corpus.
var streamWindows = []streamWindow{
	{0, 400 * ts.Minute, 10 * ts.Minute, ts.AggMean},
	{0, 400 * ts.Minute, 10 * ts.Minute, ts.AggSum},
	{30 * ts.Minute, 310 * ts.Minute, 7 * ts.Minute, ts.AggMin},
	{30 * ts.Minute, 310 * ts.Minute, 7 * ts.Minute, ts.AggMax},
	{0, 600 * ts.Minute, ts.Hour, ts.AggCount},
	{0, 600 * ts.Minute, ts.Hour, ts.AggStd},
	{10 * ts.Minute, 500 * ts.Minute, 13 * ts.Minute, ts.AggMedian},
}

// TestStreamingDifferentialInterleavings is the tentpole differential
// battery at the store level: the read-time fold must equal from-scratch
// recomputation under random interleavings of tail appends,
// upserts, out-of-order writes, series deletes, chunk seals (implicit in
// cursor movement), writes that reinflate long-sealed chunks, and Save/Load
// round-trips.
func TestStreamingDifferentialInterleavings(t *testing.T) {
	keys := []SeriesKey{
		{Entity: 1, Metric: "avail"},
		{Entity: 2, Metric: "avail"},
		{Entity: 3, Metric: "temp"},
	}
	windows := streamWindows
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		db := New(ts.Hour) // 1h chunks: cursor moves seal constantly
		heads := map[SeriesKey]ts.Time{}
		for op := 0; op < 250; op++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(10) {
			case 0: // upsert / out-of-order into the seen range
				pt := ts.Time(rng.Intn(int(heads[k] + 2)))
				db.Insert(k, pt, rng.Float64()*100)
			case 1: // delete, then let later ops rebuild
				db.DeleteSeries(k)
				heads[k] = 0
			case 2: // write into the first hour, reinflating its sealed chunk
				db.Insert(k, ts.Time(rng.Intn(int(ts.Hour))), rng.Float64()*100)
			case 3: // batch load
				batch := ts.New("b")
				for i := 0; i < 8; i++ {
					heads[k] += ts.Time(1 + rng.Intn(10*int(ts.Minute)))
					batch.MustAppend(heads[k], rng.Float64()*100)
				}
				db.InsertSeries(k, batch)
			default: // tail append (the hot path)
				heads[k] += ts.Time(1 + rng.Intn(12*int(ts.Minute)))
				db.Insert(k, heads[k], rng.Float64()*100)
			}
			if op%5 == 0 { // downsample between writes
				w := windows[rng.Intn(len(windows))]
				db.Downsample(k, w.start, w.end, w.bucket, w.agg)
			}
			if op%50 == 49 {
				checkWindows(t, db, keys, windows, "mid-run")
			}
		}
		checkWindows(t, db, keys, windows, "final")

		// Save/Load round-trip: the reloaded store answers the same windows,
		// and keeps answering them through further writes.
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		db2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkWindows(t, db2, keys, windows, "post-load")
		for op := 0; op < 40; op++ {
			k := keys[rng.Intn(len(keys))]
			heads[k] += ts.Time(1 + rng.Intn(5*int(ts.Minute)))
			db2.Insert(k, heads[k], rng.Float64()*100)
			w := windows[rng.Intn(len(windows))]
			db2.Downsample(k, w.start, w.end, w.bucket, w.agg)
		}
		checkWindows(t, db2, keys, windows, "post-load continued")
	}
}
