package tsstore

import (
	"bytes"
	"math"
	"testing"

	"hygraph/internal/ts"
)

// snapshotSeeds returns a v2 snapshot holding open, sealed and NaN chunks
// and a hand-built v1 snapshot (raw chunks, no form byte) with a NaN point.
func snapshotSeeds(t testing.TB) [][]byte {
	db := New(100)
	for i := ts.Time(0); i < 450; i += 7 {
		db.Insert(k(1), i, float64(i%13))
	}
	db.Insert(k(2), 5, math.NaN())
	db.Insert(k(2), 150, 2) // seals the NaN chunk; slot 1 stays open
	var v2 bytes.Buffer
	if err := db.Save(&v2); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	v1.WriteString(snapshotMagic)
	putUvarint(&v1, 1)  // version 1
	putUvarint(&v1, 10) // chunk width
	putUvarint(&v1, 1)  // one key
	putUvarint(&v1, 3)  // entity
	putUvarint(&v1, 1)  // metric length
	v1.WriteString("m")
	putUvarint(&v1, 2) // two chunks
	putVarint(&v1, 0)  // slot 0: two points
	putUvarint(&v1, 2)
	putVarint(&v1, 4)
	putVarint(&v1, 3)
	putFloat(&v1, 1.5)
	putFloat(&v1, math.NaN())
	putVarint(&v1, 2) // slot 2: one point
	putUvarint(&v1, 1)
	putVarint(&v1, 21)
	putFloat(&v1, -4)
	return [][]byte{v2.Bytes(), v1.Bytes()}
}

// FuzzLoadSnapshot feeds arbitrary bytes to Load. Load must never panic,
// and a store it accepts must answer Aggregate, Range and Span over every
// key — whole, interior and edge-cutting windows — without panicking. A
// corrupt block is not caught by Load (it pays no decode per chunk), so a
// query that reaches one must latch it for Err(), and Err() may only report
// a block that is really corrupt. The edge folds also drive the sub-slot
// index builder over corrupt blocks. An accepted store lists each series
// once: its Keys are unique and as many as NumSeries.
func FuzzLoadSnapshot(f *testing.F) {
	for _, seed := range snapshotSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		corrupt, spanCorrupt := false, false
		for i := range db.shards {
			for _, s := range db.shards[i].data {
				for ci, c := range s.chunks {
					if c.enc == nil {
						continue
					}
					if _, _, err := decodeChunk(c.enc); err != nil {
						corrupt = true
						spanCorrupt = spanCorrupt || ci == 0 || ci == len(s.chunks)-1
					}
				}
			}
		}
		keys := db.Keys()
		seen := map[SeriesKey]bool{}
		for _, key := range keys {
			if seen[key] {
				t.Fatalf("Keys() lists %v twice: %v", key, keys)
			}
			seen[key] = true
		}
		if len(keys) != db.NumSeries() {
			t.Fatalf("%d keys, but NumSeries() = %d", len(keys), db.NumSeries())
		}
		const minT, maxT = ts.Time(math.MinInt64), ts.Time(math.MaxInt64)
		for _, key := range keys {
			wins := [][2]ts.Time{{minT, maxT}}
			if first, last, ok := db.Span(key); ok {
				mid := first/2 + last/2
				wins = append(wins, [2]ts.Time{first, mid}, [2]ts.Time{mid, last},
					[2]ts.Time{first + 1, last}, [2]ts.Time{mid - db.chunkWidth/3, mid + db.chunkWidth/2})
			}
			for _, w := range wins {
				db.Aggregate(key, w[0], w[1])
				db.Range(key, w[0], w[1])
			}
		}
		if spanCorrupt && db.Err() == nil {
			t.Fatal("Span read a corrupt outermost block without latching an error")
		}
		if db.Err() != nil && !corrupt {
			t.Fatalf("Err() = %v on a store whose blocks all decode", db.Err())
		}
	})
}
