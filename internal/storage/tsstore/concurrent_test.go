package tsstore

import (
	"reflect"
	"sync"
	"testing"

	"hygraph/internal/ts"
)

func loadNSeries(db *DB, n, pts int) []SeriesKey {
	keys := make([]SeriesKey, n)
	for i := range keys {
		keys[i] = SeriesKey{Entity: uint32(i), Metric: "availability"}
		for h := 0; h < pts; h++ {
			db.Insert(keys[i], ts.Time(h)*ts.Hour, float64(i)+float64(h%24))
		}
	}
	return keys
}

// Concurrent readers across every query shape must be race-free and agree
// with the single-threaded answers.
func TestConcurrentReaders(t *testing.T) {
	db := New(ts.Day)
	keys := loadNSeries(db, 8, 24*7)
	end := ts.Time(24*7) * ts.Hour
	wantAgg := db.Aggregate(keys[3], 0, end)
	wantAll := aggregateShards(db, "availability", 0, end)
	// A window that cuts both edge chunks mid-day, with its answer taken
	// from Range so the readers below race to build the sub-slot indexes.
	lo, hi := 5*ts.Hour, end-7*ts.Hour
	wantEdge := foldRange(db, keys[5], lo, hi)

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := keys[(c+i)%len(keys)]
				db.Range(k, 0, end)
				db.RangeSeries(k, 0, end)
				if got := db.Aggregate(keys[3], 0, end); got != wantAgg {
					t.Error("Aggregate unstable")
					return
				}
				if got := db.Aggregate(keys[5], lo, hi); got != wantEdge {
					t.Error("edge Aggregate unstable")
					return
				}
				if first, last, ok := db.Span(k); !ok || first != 0 || last != end-ts.Hour {
					t.Error("Span unstable")
					return
				}
				if got := aggregateShards(db, "availability", 0, end); !reflect.DeepEqual(got, wantAll) {
					t.Error("shard-batched aggregate unstable")
					return
				}
				db.Correlate(k, keys[(c+i+1)%len(keys)], 0, end)
				db.Downsample(k, 0, end, ts.Day, ts.AggMean)
				db.Stats()
				db.Keys()
				db.EntitiesOf("availability")
			}
		}(c)
	}
	// Writers to series outside the read assertions run alongside.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := SeriesKey{Entity: uint32(100 + c), Metric: "other"}
			for i := 0; i < 50; i++ {
				db.Insert(k, ts.Time(i)*ts.Hour, float64(i))
			}
		}(c)
	}
	wg.Wait()
}

// The resample cache must serve hits after a miss, return an owned copy,
// and drop exactly the written series' entries on mutation.
func TestResampleCache(t *testing.T) {
	db := New(ts.Day)
	keys := loadNSeries(db, 2, 24*7)
	end := ts.Time(24*7) * ts.Hour

	base := db.ResampleCacheStats()
	first := db.Downsample(keys[0], 0, end, ts.Day, ts.AggMean)
	second := db.Downsample(keys[0], 0, end, ts.Day, ts.AggMean)
	st := db.ResampleCacheStats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 1 {
		t.Fatalf("stats after miss+hit: %+v (base %+v)", st, base)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result differs from computed result")
	}
	// Mutating the returned series must not poison the cache.
	second.MustAppend(end+ts.Hour, 12345)
	third := db.Downsample(keys[0], 0, end, ts.Day, ts.AggMean)
	if !reflect.DeepEqual(first, third) {
		t.Fatal("caller mutation leaked into the cache")
	}

	// Different (bucket, agg, range) are distinct entries.
	db.Downsample(keys[0], 0, end, ts.Hour*6, ts.AggMean)
	db.Downsample(keys[0], 0, end, ts.Day, ts.AggMax)
	st2 := db.ResampleCacheStats()
	if st2.Misses-st.Misses != 2 {
		t.Fatalf("distinct keys not distinct entries: %+v vs %+v", st2, st)
	}

	// Writing series 0 past every cached window touches no entry: both
	// series' entries stay warm (write-through makes invalidation
	// bucket-granular — see TestUnrelatedWindowsSurviveTailAppend).
	db.Downsample(keys[1], 0, end, ts.Day, ts.AggMean) // miss, warm
	db.Insert(keys[0], end+ts.Hour, 1)
	st3 := db.ResampleCacheStats()
	if st3.Invalidations != st2.Invalidations || st3.Patches != st2.Patches {
		t.Fatalf("out-of-window write touched cache entries: %+v vs %+v", st3, st2)
	}
	db.Downsample(keys[1], 0, end, ts.Day, ts.AggMean)
	db.Downsample(keys[0], 0, end, ts.Day, ts.AggMean)
	if st4 := db.ResampleCacheStats(); st4.Hits-st3.Hits != 2 {
		t.Fatalf("warm entries were wrongly dropped: %+v vs %+v", st4, st3)
	}
	// A write inside a cached window patches the entry in place: the next
	// read is a hit and already includes the new point.
	preHit := db.ResampleCacheStats()
	db.Insert(keys[0], end-ts.Hour/2, 1000)
	st5 := db.ResampleCacheStats()
	if st5.Patches == preHit.Patches {
		t.Fatalf("in-window write patched nothing: %+v", st5)
	}
	patched := db.Downsample(keys[0], 0, end, ts.Day, ts.AggMean)
	if st6 := db.ResampleCacheStats(); st6.Hits-st5.Hits != 1 || st6.Misses != st5.Misses {
		t.Fatalf("patched entry did not serve a hit: %+v vs %+v", st6, st5)
	}
	want := db.RangeSeries(keys[0], 0, end).Resample(ts.Day, ts.AggMean)
	if !patched.Equal(want) {
		t.Fatalf("patched entry diverged from recompute:\n got %v\nwant %v", patched, want)
	}
	// Series 0 reads over a new window recompute — and see the new point.
	after := db.Downsample(keys[0], 0, end+2*ts.Hour, ts.Day, ts.AggMean)
	if after.Len() != first.Len()+1 {
		t.Fatalf("post-write downsample stale: %d vs %d buckets", after.Len(), first.Len())
	}

	// DeleteSeries invalidates exactly the deleted series' entries; the
	// other series' entry still hits, and deleting the now-absent key drops
	// nothing.
	cached := len(db.shard(keys[0]).ridx[keys[0]])
	if cached != 4 {
		t.Fatalf("series 0 has %d cached windows, want 4", cached)
	}
	preDel := db.ResampleCacheStats()
	db.DeleteSeries(keys[0])
	db.DeleteSeries(keys[0])
	st7 := db.ResampleCacheStats()
	if st7.Invalidations-preDel.Invalidations != int64(cached) {
		t.Fatalf("DeleteSeries invalidated %d entries, want %d", st7.Invalidations-preDel.Invalidations, cached)
	}
	db.Downsample(keys[1], 0, end, ts.Day, ts.AggMean)
	if st8 := db.ResampleCacheStats(); st8.Hits-st7.Hits != 1 || st8.Misses != st7.Misses {
		t.Fatalf("other series' entry lost to the delete: %+v vs %+v", st8, st7)
	}
}

// CorrelateResampled must agree with ts.Correlation over the same window
// and hit the cache on repeat.
func TestCorrelateResampled(t *testing.T) {
	db := New(ts.Day)
	keys := loadNSeries(db, 2, 24*7)
	end := ts.Time(24*7) * ts.Hour

	want := ts.Correlation(
		db.RangeSeries(keys[0], 0, end),
		db.RangeSeries(keys[1], 0, end),
		ts.Hour*6)
	got := db.CorrelateResampled(keys[0], keys[1], 0, end, ts.Hour*6)
	if got != want {
		t.Fatalf("CorrelateResampled=%v ts.Correlation=%v", got, want)
	}
	st := db.ResampleCacheStats()
	if db.CorrelateResampled(keys[0], keys[1], 0, end, ts.Hour*6) != got {
		t.Fatal("repeat correlation changed")
	}
	if st2 := db.ResampleCacheStats(); st2.Hits-st.Hits != 2 || st2.Misses != st.Misses {
		t.Fatalf("repeat correlation missed the cache: %+v vs %+v", st2, st)
	}
}

// The cache cap must bound memory: a full shard evicts one random entry per
// admission instead of growing without limit, and the counters stay exact:
// live entries == misses - evictions - invalidations.
func TestResampleCacheCap(t *testing.T) {
	db := New(ts.Day)
	keys := loadNSeries(db, 1, 48)
	base := db.ResampleCacheStats()
	const n = maxResampleCache + 10
	for i := 0; i < n; i++ {
		db.Downsample(keys[0], 0, ts.Time(48)*ts.Hour, ts.Time(i+1)*ts.Minute, ts.AggMean)
	}
	size := db.resampleCacheLen()
	if size > maxResampleCache {
		t.Fatalf("cache grew past cap: %d", size)
	}
	st := db.ResampleCacheStats()
	misses := st.Misses - base.Misses
	evictions := st.Evictions - base.Evictions
	if misses != n {
		t.Fatalf("expected %d misses, got %d", n, misses)
	}
	if evictions == 0 {
		t.Fatal("overflow evicted nothing")
	}
	if int(misses-evictions) != size {
		t.Fatalf("accounting drift: misses=%d evictions=%d live=%d", misses, evictions, size)
	}
	// A second pass recomputes evicted entries as fresh misses and the
	// accounting identity keeps holding.
	pre := db.ResampleCacheStats()
	for i := 0; i < n; i++ {
		db.Downsample(keys[0], 0, ts.Time(48)*ts.Hour, ts.Time(i+1)*ts.Minute, ts.AggMean)
	}
	post := db.ResampleCacheStats()
	if post.Misses == pre.Misses {
		t.Fatal("evicted entries were not recomputed")
	}
	if int(post.Misses-post.Evictions-post.Invalidations) != db.resampleCacheLen() {
		t.Fatalf("accounting drift after churn: %+v live=%d", post, db.resampleCacheLen())
	}
}
