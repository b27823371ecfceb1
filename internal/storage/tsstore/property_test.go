package tsstore

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
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

// MergeBySeq merges the stripes' summary batches as ascending runs. On
// random inserts, batch loads and deletes from concurrent writers across the
// stripes, each stripe's batch must ascend by Seq, and the merge must equal
// the concatenate-and-sort it replaced, row for row; Keys, merged the same
// way, must list the same series in the same order.
func TestMergeBySeqEqualsSort(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		db := NewSharded(ts.Hour, 4)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 200; op++ {
					key := SeriesKey{Entity: uint32(rng.Intn(60)), Metric: "avail"}
					switch rng.Intn(6) {
					case 0:
						db.DeleteSeries(key)
					case 1:
						batch := ts.New("avail")
						for i := 0; i < 3; i++ {
							batch.MustAppend(ts.Time(op*4+i)*ts.Minute, float64(i))
						}
						db.InsertSeries(key, batch)
					case 2:
						db.Insert(SeriesKey{Entity: key.Entity, Metric: "other"}, ts.Time(op)*ts.Minute, 1)
					default:
						db.Insert(key, ts.Time(op)*ts.Minute, rng.Float64())
					}
				}
			}(int64(100*trial + w))
		}
		wg.Wait()
		parts := make([][]EntitySummary, db.NumShards())
		var want []EntitySummary
		for i := range parts {
			parts[i] = db.AggregateShard(i, "avail", 0, 300*ts.Minute)
			if !slices.IsSortedFunc(parts[i], func(a, b EntitySummary) int { return cmp.Compare(a.Seq, b.Seq) }) {
				t.Fatalf("trial %d: stripe %d's batch does not ascend by Seq", trial, i)
			}
			want = append(want, parts[i]...)
		}
		sort.Slice(want, func(a, b int) bool { return want[a].Seq < want[b].Seq })
		got := MergeBySeq(parts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merge holds %d rows, the sort %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Entity != want[i].Entity || got[i].Count != want[i].Count ||
				math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
				t.Fatalf("trial %d row %d: merge %+v, sort %+v", trial, i, got[i], want[i])
			}
		}
		keys, j := db.Keys(), 0
		for _, key := range keys {
			if key.Metric != "avail" {
				continue
			}
			if j >= len(want) || key.Entity != want[j].Entity {
				t.Fatalf("trial %d: Keys lists %v at avail position %d, the sort %+v", trial, key, j, want[j:min(j+1, len(want))])
			}
			j++
		}
		if j != len(want) {
			t.Fatalf("trial %d: Keys lists %d avail series, the sort %d", trial, j, len(want))
		}
	}
}
