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

// CorrelateResampled must agree with ts.Correlation over the same window
// and give the same answer on repeat.
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
	if db.CorrelateResampled(keys[0], keys[1], 0, end, ts.Hour*6) != got {
		t.Fatal("repeat correlation changed")
	}
}
