package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"hygraph/internal/dataset"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// Microbenchmark workload: small enough to preload quickly, large enough
// that per-shard fixed costs don't swamp the scan work.
func microBike() dataset.BikeConfig {
	cfg := DefaultConfig().Bike
	cfg.Stations = 40
	cfg.Days = 30
	return cfg
}

func microEngine(b *testing.B, shards int) (*ttdb.Polyglot, []ttdb.StationID, ts.Time, ts.Time) {
	b.Helper()
	data := dataset.GenerateBike(microBike())
	eng := &ttdb.Polyglot{G: graphstore.NewSharded(shards), T: tsstore.NewSharded(ts.Week, shards)}
	ids, err := data.LoadEngine(eng)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetWorkers(runtime.GOMAXPROCS(0))
	start, end := data.Span()
	qStart := start + (end-start)/4
	return eng, ids, qStart, qStart + (end-start)/2
}

func microDurable(b *testing.B, shards int) (*ttdb.DurablePolyglot, []ttdb.StationID, ts.Time) {
	b.Helper()
	dir := b.TempDir()
	logs := make([]*os.File, 0, 2)
	for _, name := range []string{"graph.wal", "ts.wal"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		logs = append(logs, f)
	}
	b.Cleanup(func() {
		for _, f := range logs {
			f.Close()
		}
	})
	data := dataset.GenerateBike(microBike())
	eng := &ttdb.Polyglot{G: graphstore.NewSharded(shards), T: tsstore.NewSharded(ts.Week, shards)}
	eng.SetWorkers(runtime.GOMAXPROCS(0))
	d := ttdb.ResumeDurable(eng, logs[0], logs[1])
	ids := make([]ttdb.StationID, len(data.Stations))
	for i, st := range data.Stations {
		id, err := d.IngestStation(uint64(i)+1, st.Name, st.District, st.Availability)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	_, end := data.Span()
	return d, ids, end
}

// BenchmarkIngest measures the durable streaming write path (AppendPoint:
// WAL enqueue + group commit + store insert) across stripe counts. Run with
// -cpu 1,4,8 to see striping remove the writer convoy.
func BenchmarkIngest(b *testing.B) {
	for _, shards := range []int{1, tsstore.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d, ids, end := microDurable(b, shards)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					st := ids[int(n)%len(ids)]
					if err := d.AppendPoint(st, end+ts.Time(n)*ts.Minute, float64(n%48)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkAggregateSharded measures the fan-out aggregate (Q4: per-station
// means folded in insertion order) against stripe count. With -cpu 1,4,8
// the striped store scales the scan; the single stripe cannot. Both edge
// chunks of every series fold through their sub-slot indexes, which the
// first query builds.
func BenchmarkAggregateSharded(b *testing.B) {
	for _, shards := range []int{1, 4, tsstore.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, _, qStart, qEnd := microEngine(b, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m, err := eng.Exec(context.Background(), ttdb.Q4(qStart, qEnd)); err != nil || len(m.IDs) == 0 {
					b.Fatalf("aggregate: %d stations, %v", len(m.IDs), err)
				}
			}
		})
	}
}

// BenchmarkMixedReadWrite interleaves durable appends with reads (per 8-op
// cycle: 4 appends, 3 Q3 point reads, 1 Q4 fan-out aggregate) on every
// goroutine — the repo's single-stripe vs striped read/write comparison. Run
// with -cpu 1,4,8: the single stripe serializes readers behind each writer,
// the striped store does not.
func BenchmarkMixedReadWrite(b *testing.B) {
	for _, shards := range []int{1, tsstore.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d, ids, end := microDurable(b, shards)
			qEnd := end
			qStart := end - 7*ts.Day
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					st := ids[int(n)%len(ids)]
					var err error
					switch n % 8 {
					case 0:
						_, err = d.Exec(context.Background(), ttdb.Q4(qStart, qEnd))
					case 1, 2, 3:
						_, err = d.Exec(context.Background(), ttdb.Q3(st, qStart, qEnd))
					default:
						err = d.AppendPoint(st, end+ts.Time(n)*ts.Minute, float64(n%48))
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
