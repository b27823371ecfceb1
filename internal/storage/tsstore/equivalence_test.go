package tsstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hygraph/internal/ts"
)

// Property: a compressed store and a compressed+tiered store are
// observationally identical to a raw store under any interleaving of
// inserts, upserts, NaN writes, deletes and out-of-order writes — for
// Range, Aggregate (pushdown and edge paths), Downsample, and across a
// Save/Load round trip. This is the invariant the Q1-Q8 differential
// battery then re-proves end-to-end through ttdb.
func TestCompressedTieredObservationalEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))

			raw := NewSharded(100, 3)
			raw.SetCompress(false)
			comp := NewSharded(100, 3)
			tiered := NewSharded(100, 3)
			if err := tiered.EnableColdTier(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			stores := []*DB{raw, comp, tiered}

			metrics := []string{"a", "b"}
			keyOf := func() SeriesKey {
				return SeriesKey{Entity: uint32(1 + rng.Intn(3)), Metric: metrics[rng.Intn(len(metrics))]}
			}
			var clock ts.Time
			for op := 0; op < 400; op++ {
				switch r := rng.Float64(); {
				case r < 0.70: // in-order insert (advancing clock)
					clock += ts.Time(1 + rng.Intn(40))
					key, v := keyOf(), float64(rng.Intn(100))
					if rng.Intn(50) == 0 {
						v = math.NaN()
					}
					for _, db := range stores {
						db.Insert(key, clock, v)
					}
				case r < 0.85: // out-of-order or upsert into the past
					back := ts.Time(rng.Int63n(int64(clock + 1)))
					key, v := keyOf(), float64(rng.Intn(100))
					for _, db := range stores {
						db.Insert(key, back, v)
					}
				case r < 0.92: // delete
					key := keyOf()
					var got []bool
					for _, db := range stores {
						got = append(got, db.DeleteSeries(key))
					}
					if got[0] != got[1] || got[1] != got[2] {
						t.Fatalf("op %d: DeleteSeries(%v) disagreement %v", op, key, got)
					}
				default: // compaction pass on the tiered store only
					if _, err := tiered.Spill(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := tiered.Spill(); err != nil {
				t.Fatal(err)
			}

			assertEquivalent(t, "live", stores, metrics, clock)

			// Save/Load round trip: each store's snapshot must load into an
			// observationally identical store (tiered snapshots are
			// self-contained — no cold tier attached to the loaded copy).
			reloaded := make([]*DB, len(stores))
			for i, db := range stores {
				var buf bytes.Buffer
				if err := db.Save(&buf); err != nil {
					t.Fatalf("store %d save: %v", i, err)
				}
				got, err := Load(&buf)
				if err != nil {
					t.Fatalf("store %d load: %v", i, err)
				}
				reloaded[i] = got
			}
			assertEquivalent(t, "reloaded", reloaded, metrics, clock)

			for i, db := range stores {
				if err := db.Err(); err != nil {
					t.Fatalf("store %d degraded: %v", i, err)
				}
			}
		})
	}
}

// assertEquivalent compares every observable query across the stores,
// treating store 0 as reference. NaN == NaN for this comparison (bitwise
// result equality is the contract the differential battery enforces).
func assertEquivalent(t *testing.T, phase string, stores []*DB, metrics []string, horizon ts.Time) {
	t.Helper()
	ref := observe(stores[0], metrics, horizon)
	for i := 1; i < len(stores); i++ {
		got := observe(stores[i], metrics, horizon)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: store %d diverges from raw reference\nraw: %v\ngot: %v", phase, i, ref, got)
		}
	}
}

// observe runs the full query surface and flattens results into a
// comparable value. NaNs are canonicalized via Float64bits formatting.
func observe(db *DB, metrics []string, horizon ts.Time) []string {
	var out []string
	f := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	out = append(out, fmt.Sprintf("series=%d", db.NumSeries()))
	for _, m := range metrics {
		for _, e := range entitiesOf(db, m) {
			key := SeriesKey{Entity: e, Metric: m}
			out = append(out, fmt.Sprintf("key=%v", key))
			for _, p := range db.Range(key, 0, horizon+1) {
				out = append(out, fmt.Sprintf("p %d %s", p.T, f(p.V)))
			}
			for _, win := range [][2]ts.Time{{0, horizon + 1}, {horizon / 3, 2 * horizon / 3}, {100, 101}} {
				s := db.Aggregate(key, win[0], win[1])
				out = append(out, fmt.Sprintf("agg %d %s %s %s", s.Count, f(s.Sum), f(s.Min), f(s.Max)))
			}
			ds := db.Downsample(key, 0, horizon+1, 250, ts.AggMean)
			for i := 0; i < ds.Len(); i++ {
				out = append(out, fmt.Sprintf("ds %d %s", ds.TimeAt(i), f(ds.ValueAt(i))))
			}
		}
		for _, es := range aggregateShards(db, m, 0, horizon+1) {
			s := es.Summary
			out = append(out, fmt.Sprintf("all %s %d %d %s %s %s", m, es.Entity, s.Count, f(s.Sum), f(s.Min), f(s.Max)))
		}
	}
	return out
}
