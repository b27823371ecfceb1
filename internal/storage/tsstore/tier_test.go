package tsstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// buildTiered fills a store with enough slots that most chunks seal.
func buildTiered(t *testing.T, shards int) (*DB, []SeriesKey) {
	t.Helper()
	db := NewSharded(100, shards)
	rng := rand.New(rand.NewSource(11))
	keys := []SeriesKey{
		{Entity: 1, Metric: "load"},
		{Entity: 2, Metric: "load"},
		{Entity: 1, Metric: "temp"},
	}
	for _, key := range keys {
		for i := 0; i < 1000; i++ {
			db.Insert(key, ts.Time(i*10), float64(rng.Intn(50)))
		}
	}
	return db, keys
}

func snapshotQueries(db *DB, keys []SeriesKey) []interface{} {
	var out []interface{}
	for _, key := range keys {
		out = append(out, db.Range(key, 0, 10000))
		out = append(out, db.Aggregate(key, 0, 10000))
		out = append(out, db.Aggregate(key, 333, 7777))
		out = append(out, db.Downsample(key, 0, 10000, 500, ts.AggMean))
	}
	return out
}

func TestSpillAndColdScan(t *testing.T) {
	db, keys := buildTiered(t, 4)
	want := snapshotQueries(db, keys)

	before := db.Stats()
	if before.CompressedChunks == 0 {
		t.Fatalf("workload sealed no chunks: %+v", before)
	}
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	st, err := db.Spill()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != before.CompressedChunks || st.Bytes == 0 {
		t.Fatalf("spill moved %d blocks (%d bytes), want %d", st.Blocks, st.Bytes, before.CompressedChunks)
	}
	after := db.Stats()
	if after.CompressedChunks != 0 || after.SpilledChunks != before.CompressedChunks {
		t.Fatalf("post-spill stats: %+v", after)
	}
	if after.MemBytes >= before.MemBytes {
		t.Fatalf("spill did not shrink memory: %d -> %d", before.MemBytes, after.MemBytes)
	}

	// Every sealed chunk is read back from disk, on both scans.
	for _, pass := range []string{"first", "second"} {
		if got := snapshotQueries(db, keys); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s spilled scan differs from pre-spill results", pass)
		}
	}
	if db.Err() != nil {
		t.Fatalf("store degraded: %v", db.Err())
	}
	if err := db.CloseColdTier(); err != nil {
		t.Fatal(err)
	}
}

// Writing into a spilled slot must inflate from the spill file, apply the
// write, and keep queries consistent.
func TestWriteIntoSpilledChunkInflates(t *testing.T) {
	db, keys := buildTiered(t, 2)
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Spill(); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	db.Instrument(reg)
	key := keys[0]
	db.Insert(key, 5, 999) // t=5 lives in the first (spilled) slot
	if reg.Snapshot().Counters["tsstore.compress.inflates"] == 0 {
		t.Fatal("write into spilled slot did not inflate")
	}
	pts := db.Range(key, 0, 10)
	found := false
	for _, p := range pts {
		if p.T == 5 && p.V == 999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted point missing after inflate: %+v", pts)
	}
	if s := db.Aggregate(key, 0, 100); s.Max != 999 {
		t.Fatalf("summary not updated after inflate: %+v", s)
	}
	if db.Err() != nil {
		t.Fatalf("store degraded: %v", db.Err())
	}
}

// Snapshots must be self-contained: Save reads spilled payloads back, and
// the snapshot loads into a store with no cold tier attached.
func TestSaveAfterSpillIsSelfContained(t *testing.T) {
	db, keys := buildTiered(t, 2)
	want := snapshotQueries(db, keys)
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Spill(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseColdTier(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotQueries(got, keys), want) {
		t.Fatal("snapshot of spilled store loads differently")
	}
	if got.Err() != nil {
		t.Fatalf("loaded store degraded: %v", got.Err())
	}
}

func TestSpillWithoutTierFails(t *testing.T) {
	db := New(0)
	if _, err := db.Spill(); err == nil {
		t.Fatal("Spill without EnableColdTier succeeded")
	}
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableColdTier(t.TempDir()); err == nil {
		t.Fatal("double EnableColdTier succeeded")
	}
}

// Deleting a series after spilling and scanning it must leave nothing
// behind: a fresh series under the same key must not see stale blocks.
func TestDeleteSpilledSeriesThenReinsert(t *testing.T) {
	db, keys := buildTiered(t, 1)
	if err := db.EnableColdTier(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Spill(); err != nil {
		t.Fatal(err)
	}
	key := keys[0]
	if len(db.Range(key, 0, 10000)) != 1000 {
		t.Fatal("spilled scan lost points")
	}
	if !db.DeleteSeries(key) {
		t.Fatal("delete failed")
	}
	db.Insert(key, 3, 42)
	pts := db.Range(key, 0, 10000)
	if len(pts) != 1 || pts[0].V != 42 {
		t.Fatalf("reinserted series sees stale data: %+v", pts)
	}
}
