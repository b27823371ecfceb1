// Benchmarks regenerating every table and figure of the paper. One bench
// per experiment; EXPERIMENTS.md maps each to the corresponding table or
// figure and records the measured shape.
//
// The Table 1 benches here run a reduced workload so `go test -bench=.`
// stays fast; cmd/hybench runs the full harness with MRS/CV reporting.
package hygraph_test

import (
	"context"
	"sync"
	"testing"

	"hygraph/internal/bench"
	"hygraph/internal/core"
	"hygraph/internal/dataset"
	"hygraph/internal/embed"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/ml"
	"hygraph/internal/pipeline"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// ---------------------------------------------------------------------------
// Shared fixtures, built once.

var (
	onceBike sync.Once
	bikeData *dataset.BikeData
	neoEng   *ttdb.AllInGraph
	pgEng    *ttdb.Polyglot
	neoIDs   []ttdb.StationID
	pgIDs    []ttdb.StationID

	onceFraud sync.Once
	fraudData *dataset.FraudData

	onceBikeHG sync.Once
	bikeHG     *core.HyGraph
	bikeVIDs   []core.VID

	onceIoT sync.Once
	iotData *dataset.IoTData
)

func bikeFixture() {
	onceBike.Do(func() {
		cfg := dataset.BikeConfig{Stations: 60, Districts: 6, Days: 60,
			StepMinutes: 60, TripsPerSt: 4, Seed: 7}
		bikeData = dataset.GenerateBike(cfg)
		neoEng = ttdb.NewAllInGraph()
		pgEng = ttdb.NewPolyglot(ts.Week)
		var err error
		if neoIDs, err = bikeData.LoadEngine(neoEng); err != nil {
			panic(err)
		}
		if pgIDs, err = bikeData.LoadEngine(pgEng); err != nil {
			panic(err)
		}
	})
}

func fraudFixture() {
	onceFraud.Do(func() { fraudData = dataset.GenerateFraud(dataset.DefaultFraud()) })
}

func bikeHGFixture() {
	onceBikeHG.Do(func() {
		cfg := dataset.BikeConfig{Stations: 30, Districts: 5, Days: 14,
			StepMinutes: 60, TripsPerSt: 3, Seed: 7}
		bikeHG, bikeVIDs = dataset.GenerateBike(cfg).ToHyGraph()
	})
}

func iotFixture() {
	onceIoT.Do(func() { iotData = dataset.GenerateIoT(dataset.DefaultIoT()) })
}

// ---------------------------------------------------------------------------
// Table 1 — storage benchmark (paper's headline table). One sub-benchmark
// per (query, engine); the paper's "who wins" per query is visible directly
// in the ns/op columns.

func BenchmarkTable1(b *testing.B) {
	bikeFixture()
	ctx := context.Background()
	for _, en := range []struct {
		name string
		e    ttdb.Engine
		ids  []ttdb.StationID
	}{{"Neo4jSim", neoEng, neoIDs}, {"TTDB", pgEng, pgIDs}} {
		for _, q := range bikeData.Table1Queries(en.ids) {
			b.Run(q.Op.String()+"/"+en.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := en.e.Exec(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable1_Harness runs the full MRS/CV harness once per iteration at
// reduced scale — the programmatic version of cmd/hybench.
func BenchmarkTable1_Harness(b *testing.B) {
	cfg := bench.Config{
		Bike: dataset.BikeConfig{Stations: 20, Districts: 4, Days: 30,
			StepMinutes: 60, TripsPerSt: 3, Seed: 7},
		Reps: 3,
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("expected 8 rows")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 1 — all-in-graph (red) vs polyglot (green) write path: the paper's
// "high write overhead" of storing every observation as a property.

func BenchmarkFig1_StorageApproaches(b *testing.B) {
	s := ts.New(ttdb.Metric)
	for i := 0; i < 24*30; i++ {
		s.MustAppend(ts.Time(i)*ts.Hour, float64(i%24))
	}
	b.Run("LoadSeries/AllInGraph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ttdb.NewAllInGraph()
			st, err := e.AddStation("s", "d")
			if err != nil {
				b.Fatal(err)
			}
			if err := e.LoadSeries(st, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LoadSeries/Polyglot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ttdb.NewPolyglot(ts.Week)
			st, err := e.AddStation("s", "d")
			if err != nil {
				b.Fatal(err)
			}
			if err := e.LoadSeries(st, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Table 2 — one bench per hybrid operator family.

func BenchmarkTable2_Q1_HybridMatch(b *testing.B) {
	fraudFixture()
	drain := ts.New("drain")
	for i, v := range []float64{1000, 50, 50, 50, 50, 1000} {
		drain.MustAppend(ts.Time(i)*ts.Hour, v)
	}
	p := lpg.NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", core.SeriesWhere(core.SubsequencePred("", drain, 1.5))).
		E("u", "c", "USES", nil)
	mid := ts.Time(fraudData.Config.Hours/2) * ts.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fraudData.H.HybridMatch(mid, p, 0)
	}
}

func BenchmarkTable2_Q2_HybridAggregate(b *testing.B) {
	bikeHGFixture()
	spec := core.AggregateSpec{
		GroupKey:  func(v *core.Vertex) string { return v.Prop("district").String() },
		Bucket:    ts.Day,
		SeriesAgg: ts.AggMean,
		Combine:   ts.AggSum,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bikeHG.HybridAggregate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Q3_CorrelationReachability(b *testing.B) {
	bikeHGFixture()
	// Reachability over the raw graph with the correlation constraint.
	sa, sb := bikeVIDs[0], bikeVIDs[len(bikeVIDs)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bikeHG.CorrelatedReachable(sa, sb, 0.8, ts.Hour, 6)
	}
}

func BenchmarkTable2_Q3_CorrelationEdges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, _ := dataset.GenerateBike(dataset.BikeConfig{Stations: 20, Districts: 4,
			Days: 7, StepMinutes: 60, TripsPerSt: 2, Seed: 7}).ToHyGraph()
		b.StartTimer()
		if _, err := h.CorrelationEdges(0.8, ts.Hour, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Q4_SegmentSnapshots(b *testing.B) {
	bikeHGFixture()
	driver := bikeHG.ActivitySeries(0, 14*ts.Day, ts.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bikeHG.SegmentSnapshots(driver, 4, 0.02)
	}
}

func BenchmarkTable2_D_AnomalyCommunities(b *testing.B) {
	iotFixture()
	mid := ts.Time(iotData.Config.Hours/2) * ts.Hour
	for i := 0; i < b.N; i++ {
		iotData.H.AnomalyCommunities(mid, 24, 6, 1)
	}
}

func BenchmarkTable2_PM_Motifs(b *testing.B) {
	iotFixture()
	for i := 0; i < b.N; i++ {
		iotData.H.MotifPatterns(8, 4, 2)
	}
}

func BenchmarkTable2_PM_MatrixProfile(b *testing.B) {
	iotFixture()
	s, _ := iotData.H.Vertex(iotData.Sensors[0]).SeriesVar("")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatrixProfile(24)
	}
}

func BenchmarkTable2_E_Embeddings(b *testing.B) {
	bikeHGFixture()
	view := bikeHG.SnapshotAt(7 * ts.Day)
	b.Run("FastRP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			embed.FastRP(view.Graph, embed.DefaultFastRP())
		}
	})
	b.Run("SeriesFeatures", func(b *testing.B) {
		var series []*ts.Series
		bikeHG.Vertices(func(v *core.Vertex) bool {
			if v.Kind == core.TS {
				if s, ok := v.SeriesVar(""); ok {
					series = append(series, s)
				}
			}
			return true
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			embed.SeriesFeatures(series)
		}
	})
}

func BenchmarkTable2_C2_Clustering(b *testing.B) {
	fraudFixture()
	var rows [][]float64
	for u := range fraudData.Users {
		s, _ := fraudData.H.Vertex(fraudData.Cards[u]).SeriesVar("")
		rows = append(rows, s.Features())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.KMeans(rows, 4, 50, 1)
	}
}

// ---------------------------------------------------------------------------
// Figure 2 — the two single-model detectors of the running example.

func BenchmarkFig2_Listing1_GraphOnly(b *testing.B) {
	fraudFixture()
	p := pipeline.DefaultParams()
	for i := 0; i < b.N; i++ {
		pipeline.GraphOnly(fraudData, p)
	}
}

func BenchmarkFig2_Listing1_HyQL(b *testing.B) {
	fraudFixture()
	eng := hyql.NewEngine(fraudData.H)
	mid := ts.Time(fraudData.Config.Hours/2) * ts.Hour
	const q = `
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX_FLOW]->(m:Merchant)
		WHERE ts.max(t) > 1000
		RETURN u.name AS suspicious, count(m) AS merchants`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q, mid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_Listing2_TSOnly(b *testing.B) {
	fraudFixture()
	p := pipeline.DefaultParams()
	for i := 0; i < b.N; i++ {
		pipeline.SeriesOnly(fraudData, p)
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — the transformation lattice between the model worlds.

func BenchmarkFig3_Transforms(b *testing.B) {
	fraudFixture()
	b.Run("TPGToHyGraph", func(b *testing.B) {
		g, _ := fraudData.H.ToTPG()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.FromTPG(g)
		}
	})
	b.Run("HyGraphToTPG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fraudData.H.ToTPG()
		}
	})
	b.Run("GraphToSeries_MetricEvolution", func(b *testing.B) {
		bikeHGFixture()
		for i := 0; i < b.N; i++ {
			if err := bikeHG.DegreeEvolution(0, 14*ts.Day, ts.Day); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SeriesToGraph_SAXGroups", func(b *testing.B) {
		iotFixture()
		for i := 0; i < b.N; i++ {
			iotData.H.MotifPatterns(8, 4, 2)
		}
	})
	b.Run("SnapshotProjection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fraudData.H.SnapshotAt(100 * ts.Hour)
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 4 — the full hybrid pipeline. Each iteration regenerates the
// workload because the pipeline enriches the instance in place.

func BenchmarkFig4_Pipeline(b *testing.B) {
	cfg := dataset.DefaultFraud()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := dataset.GenerateFraud(cfg)
		b.StartTimer()
		r := pipeline.Run(d, pipeline.DefaultParams())
		if r.HybridMetrics.Recall() != 1 {
			b.Fatalf("pipeline lost a fraudster: %+v", r.HybridMetrics)
		}
	}
}
