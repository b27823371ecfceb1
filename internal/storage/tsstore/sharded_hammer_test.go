package tsstore

import (
	"fmt"
	"sync"
	"testing"

	"hygraph/internal/ts"
)

// hammerBatch is the bulk writer's InsertSeries input for one entity: ten
// points on half-minute offsets, which no single-point writer uses, so the
// final store contents do not depend on interleaving.
func hammerBatch(e, perWrite int) *ts.Series {
	s := ts.New("bulk")
	for j := 0; j < 10; j++ {
		s.MustAppend(ts.Time(j*perWrite/10)*ts.Minute+30*ts.Second, float64(e+j))
	}
	return s
}

// Race-detector hammer: writers spread over every stripe while aggregate
// scans, point reads, and cached downsamples run against the same store.
// Correctness of the concurrent phase is checked after quiescence by
// replaying the identical inserts into a single-stripe reference store and
// comparing the merged insertion-order fold element by element, and by
// checking every write-through-maintained downsample window against a
// from-scratch resample.
func TestShardedIngestQueryHammer(t *testing.T) {
	const (
		writers  = 4
		readers  = 4
		perWrite = 300
		entities = 64
	)
	db := NewSharded(ts.Hour, 8)
	end := ts.Time(perWrite) * ts.Minute
	keys := make([]SeriesKey, entities)
	for e := range keys {
		keys[e] = SeriesKey{Entity: uint32(e), Metric: "m"}
		// Warm every reader window up front so each write below patches it.
		db.Downsample(keys[e], 0, end, 10*ts.Minute, ts.AggMean)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // one bulk writer
		defer wg.Done()
		for e, key := range keys {
			db.InsertSeries(key, hammerBatch(e, perWrite))
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWrite; i++ {
				key := SeriesKey{Entity: uint32((w*perWrite + i) % 64), Metric: "m"}
				db.Insert(key, ts.Time(i)*ts.Minute, float64(w*i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := SeriesKey{Entity: uint32(i % 64), Metric: "m"}
				db.Aggregate(key, 0, ts.Time(perWrite)*ts.Minute)
				db.AggregateEach("m", 0, ts.Time(perWrite)*ts.Minute, func(uint32, Summary) {})
				db.Downsample(key, 0, ts.Time(perWrite)*ts.Minute, 10*ts.Minute, ts.AggMean)
				parts := make([][]EntitySummary, db.NumShards())
				for s := range parts {
					parts[s] = db.AggregateShard(s, "m", 0, ts.Time(perWrite)*ts.Minute)
				}
				MergeBySeq(parts)
			}
		}(r)
	}
	wg.Wait()

	// Quiesced: replay into a single stripe and compare the full fold.
	ref := New(ts.Hour)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWrite; i++ {
			key := SeriesKey{Entity: uint32((w*perWrite + i) % 64), Metric: "m"}
			ref.Insert(key, ts.Time(i)*ts.Minute, float64(w*i))
		}
	}
	for e, key := range keys {
		ref.InsertSeries(key, hammerBatch(e, perWrite))
	}
	got := db.AggregateAll("m", 0, ts.Time(perWrite)*ts.Minute)
	want := ref.AggregateAll("m", 0, ts.Time(perWrite)*ts.Minute)
	if len(got) != len(want) {
		t.Fatalf("entity count: got %d want %d", len(got), len(want))
	}
	for e, ws := range want {
		gs, ok := got[e]
		if !ok {
			t.Fatalf("entity %d missing from sharded store", e)
		}
		if gs.Count != ws.Count || gs.Min != ws.Min || gs.Max != ws.Max {
			t.Fatalf("entity %d: got %+v want %+v", e, gs, ws)
		}
	}

	// Every warmed window was maintained by patches alone — appends never
	// invalidate — and still serves a hit equal to a from-scratch resample.
	st := db.ResampleCacheStats()
	if st.Patches == 0 || st.Invalidations != 0 {
		t.Fatalf("write-through accounting: %+v, want patches > 0 and no invalidations", st)
	}
	checkWindows(t, db, keys, []streamWindow{{0, end, 10 * ts.Minute, ts.AggMean}}, "quiesced")
	if after := db.ResampleCacheStats(); after.Misses != st.Misses {
		t.Fatalf("a warmed window was lost: %d misses, want %d", after.Misses, st.Misses)
	}
}

// The merged insertion-order iteration must be identical no matter how many
// stripes the keys are spread over, and must equal the MergeBySeq of the
// per-stripe partitions — that equivalence is what lets the parallel
// executor partition by shard without changing any fold's result.
func TestShardedIterationOrderMatchesMerge(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewSharded(ts.Hour, shards)
			for i := 0; i < 200; i++ {
				key := SeriesKey{Entity: uint32(i), Metric: "m"}
				db.Insert(key, ts.Time(i)*ts.Minute, float64(i))
			}
			var each []uint32
			db.AggregateEach("m", 0, 200*ts.Minute, func(e uint32, _ Summary) {
				each = append(each, e)
			})
			parts := make([][]EntitySummary, db.NumShards())
			for s := range parts {
				parts[s] = db.AggregateShard(s, "m", 0, 200*ts.Minute)
			}
			merged := MergeBySeq(parts)
			if len(each) != 200 || len(merged) != 200 {
				t.Fatalf("lengths: each=%d merged=%d", len(each), len(merged))
			}
			for i := range merged {
				if merged[i].Entity != each[i] {
					t.Fatalf("order diverges at %d: merge=%d each=%d", i, merged[i].Entity, each[i])
				}
				// Insertion order here is entity order, so both must count up.
				if merged[i].Entity != uint32(i) {
					t.Fatalf("insertion order broken at %d: %d", i, merged[i].Entity)
				}
			}
		})
	}
}
