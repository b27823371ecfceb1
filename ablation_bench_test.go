// Ablation benchmarks for the design choices behind the reproduction:
// hypertable chunk width, property-chain length (the mechanism behind
// Table 1), embedding dimensionality, and the cost split between HyQL
// parsing and execution.
package hygraph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/embed"
	"hygraph/internal/hyql"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// BenchmarkAblation_ChunkWidth sweeps the hypertable chunk width: too small
// multiplies per-chunk overhead, too large defeats summary pushdown for
// partial ranges. The aggregate query covers ~1/3 of a 90-day series.
func BenchmarkAblation_ChunkWidth(b *testing.B) {
	src := ts.New("m")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 90*24; i++ {
		src.MustAppend(ts.Time(i)*ts.Hour, rng.NormFloat64())
	}
	key := tsstore.SeriesKey{Entity: 1, Metric: "m"}
	for _, width := range []ts.Time{6 * ts.Hour, ts.Day, ts.Week, 30 * ts.Day} {
		db := tsstore.New(width)
		db.InsertSeries(key, src)
		b.Run(fmt.Sprintf("width=%dh", width/ts.Hour), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.Aggregate(key, 20*ts.Day, 50*ts.Day)
			}
		})
	}
}

// BenchmarkAblation_ChainLength shows the all-in-graph pathology directly:
// reading ONE property from a node whose chain holds n time-series points
// is O(n). This is the per-access cost the paper's Q4–Q8 multiply by the
// station count.
func BenchmarkAblation_ChainLength(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		db := graphstore.New()
		node := db.CreateNode("Station")
		db.SetNodeProp(node, "district", graphstore.StrVal("north"))
		for i := 0; i < n; i++ {
			db.SetNodeProp(node, fmt.Sprintf("availability@%d", i), graphstore.FloatVal(1))
		}
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// "district" was written first, so it sits at the END of the
				// prepend-ordered chain: worst-case but realistic (metadata
				// written before the series).
				if _, ok := db.NodeProp(node, "district"); !ok {
					b.Fatal("lost property")
				}
			}
		})
	}
}

// BenchmarkAblation_FastRPDim sweeps embedding dimensionality.
func BenchmarkAblation_FastRPDim(b *testing.B) {
	bikeHGFixture()
	view := bikeHG.SnapshotAt(7 * ts.Day)
	for _, dim := range []int{8, 32, 128} {
		cfg := embed.FastRPConfig{Dim: dim, Weights: []float64{0.5, 1}, Seed: 1, NormalizeL2: true}
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				embed.FastRP(view.Graph, cfg)
			}
		})
	}
}

// BenchmarkAblation_SegmentBudget sweeps the segmentation budget.
func BenchmarkAblation_SegmentBudget(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s := ts.New("s")
	for i := 0; i < 2000; i++ {
		level := float64((i / 400) * 10)
		s.MustAppend(ts.Time(i), level+rng.NormFloat64())
	}
	for _, k := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("maxSegments=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Segmentize(k, 0.001)
			}
		})
	}
}

// BenchmarkAblation_HyQLParseVsExec splits query cost into parsing and
// execution, justifying the prepared-query API (Engine.Exec).
func BenchmarkAblation_HyQLParseVsExec(b *testing.B) {
	fraudFixture()
	const q = `
		MATCH (u:User)-[:USES]->(c:CreditCard)
		WHERE ts.min(c) < 0.25 * ts.mean(c)
		RETURN u.name`
	mid := ts.Time(fraudData.Config.Hours/2) * ts.Hour
	b.Run("Parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hyql.Parse(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Exec", func(b *testing.B) {
		parsed, err := hyql.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		eng := hyql.NewEngine(fraudData.H)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(parsed, mid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Persistence measures both stores' snapshot round-trips.
func BenchmarkAblation_Persistence(b *testing.B) {
	gdb := graphstore.New()
	for i := 0; i < 500; i++ {
		n := gdb.CreateNode("N")
		gdb.SetNodeProp(n, "x", graphstore.IntVal(int64(i)))
		if i > 0 {
			gdb.CreateRel(n-1, n, "next")
		}
	}
	tdb := tsstore.New(ts.Day)
	for i := 0; i < 50000; i++ {
		tdb.Insert(tsstore.SeriesKey{Entity: uint32(i % 50), Metric: "m"},
			ts.Time(i)*ts.Minute, float64(i))
	}
	b.Run("GraphstoreSave", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gdb.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GraphstoreLoad", func(b *testing.B) {
		var buf bytes.Buffer
		gdb.Save(&buf)
		raw := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := graphstore.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TsstoreSave", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := tdb.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TsstoreLoad", func(b *testing.B) {
		var buf bytes.Buffer
		tdb.Save(&buf)
		raw := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tsstore.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_StreamIngest measures streaming append throughput (R3).
func BenchmarkAblation_StreamIngest(b *testing.B) {
	// Measured via the ts layer the stream writes through.
	s := ts.New("hot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(ts.Time(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ParallelCorrelation sweeps worker counts for the O(n²)
// correlation-edge operator (R4 scaling).
func BenchmarkAblation_ParallelCorrelation(b *testing.B) {
	build := func() *core.HyGraph {
		h, _ := dataset.GenerateBike(dataset.BikeConfig{Stations: 40, Districts: 4,
			Days: 14, StepMinutes: 60, TripsPerSt: 2, Seed: 7}).ToHyGraph()
		return h
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := build()
				b.StartTimer()
				if workers == 1 {
					if _, err := h.CorrelationEdges(0.8, ts.Hour, 24); err != nil {
						b.Fatal(err)
					}
				} else if _, err := h.CorrelationEdgesParallel(0.8, ts.Hour, 24, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ParallelAggregateAll sweeps worker counts for hypertable
// fan-out aggregation.
func BenchmarkAblation_ParallelAggregateAll(b *testing.B) {
	db := tsstore.New(ts.Week)
	for e := uint32(0); e < 200; e++ {
		for i := 0; i < 24*90; i++ {
			db.Insert(tsstore.SeriesKey{Entity: e, Metric: "m"}, ts.Time(i)*ts.Hour, float64(i%24))
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.AggregateAllParallel("m", 10*ts.Day, 80*ts.Day, workers)
			}
		})
	}
}

// BenchmarkAblation_ViewCache measures the snapshot cache: repeated queries
// at one instant (the continuous-query pattern) versus distinct instants.
func BenchmarkAblation_ViewCache(b *testing.B) {
	fraudFixture()
	parsed, err := hyql.Parse(`MATCH (u:User)-[:USES]->(c:CreditCard) RETURN count(*)`)
	if err != nil {
		b.Fatal(err)
	}
	mid := ts.Time(fraudData.Config.Hours/2) * ts.Hour
	b.Run("SameInstant", func(b *testing.B) {
		eng := hyql.NewEngine(fraudData.H)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(parsed, mid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DistinctInstants", func(b *testing.B) {
		eng := hyql.NewEngine(fraudData.H)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(parsed, ts.Time(i%1000)*ts.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
}
