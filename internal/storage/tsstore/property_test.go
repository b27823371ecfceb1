package tsstore

import (
	"math"
	"math/rand"
	"testing"

	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// TestDownsamplePropertyRandomInterleavings drives the resampled
// correlation path with random interleavings of appends and
// CorrelateResampled calls, checking two properties:
//
//  1. Read-your-writes: every answer equals the answer from a fresh store
//     built from the same points.
//  2. Accounting: the obs read counter equals the downsamples issued (two
//     per correlation, one per side).
func TestDownsamplePropertyRandomInterleavings(t *testing.T) {
	keys := []SeriesKey{
		{Entity: 1, Metric: "avail"},
		{Entity: 2, Metric: "avail"},
	}
	windows := []struct{ start, end, bucket ts.Time }{
		{0, 200 * ts.Minute, 10 * ts.Minute},
		{50 * ts.Minute, 150 * ts.Minute, 5 * ts.Minute},
		{0, 400 * ts.Minute, ts.Hour},
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := New(ts.Hour)
		reg := obs.New()
		db.Instrument(reg)
		// model holds the authoritative points per key (upsert semantics,
		// matching Insert).
		model := map[SeriesKey]map[ts.Time]float64{keys[0]: {}, keys[1]: {}}
		lookups := int64(0)

		oracle := func(w struct{ start, end, bucket ts.Time }) float64 {
			fresh := New(ts.Hour)
			for k, pts := range model {
				for pt, v := range pts {
					fresh.Insert(k, pt, v)
				}
			}
			return fresh.CorrelateResampled(keys[0], keys[1], w.start, w.end, w.bucket)
		}

		// Seed both series so early correlations have shared buckets.
		for i := 0; i < 40; i++ {
			for _, k := range keys {
				pt := ts.Time(rng.Intn(400)) * ts.Minute
				v := rng.Float64() * 100
				db.Insert(k, pt, v)
				model[k][pt] = v
			}
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(4) {
			case 0: // single append
				k := keys[rng.Intn(2)]
				pt := ts.Time(rng.Intn(400)) * ts.Minute
				v := rng.Float64() * 100
				db.Insert(k, pt, v)
				model[k][pt] = v
			case 1: // batch append
				k := keys[rng.Intn(2)]
				batch := ts.New("avail")
				base := ts.Time(rng.Intn(300)) * ts.Minute
				for i := 0; i < 5; i++ {
					pt := base + ts.Time(i)*ts.Minute
					v := rng.Float64() * 100
					batch.MustAppend(pt, v)
					model[k][pt] = v
				}
				db.InsertSeries(k, batch)
			default: // correlate, twice as likely as either write
				w := windows[rng.Intn(len(windows))]
				got := db.CorrelateResampled(keys[0], keys[1], w.start, w.end, w.bucket)
				want := oracle(w)
				lookups += 2
				if !(math.IsNaN(got) && math.IsNaN(want)) && got != want {
					t.Fatalf("trial %d op %d: corr %v, oracle %v (window %+v)",
						trial, op, got, want, w)
				}
			}
		}

		if got := reg.Snapshot().Counters["tsstore.reads"]; got != lookups {
			t.Fatalf("trial %d: tsstore.reads %d != downsamples %d", trial, got, lookups)
		}
	}
}
