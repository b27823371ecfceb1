package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hygraph/internal/dataset"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// ThroughputReport summarizes one concurrent-client run: N goroutines each
// issuing the Q1–Q8 mix back-to-back against one shared polyglot engine.
type ThroughputReport struct {
	Engine       string  `json:"engine"`
	Clients      int     `json:"clients"`
	OpsPerClient int     `json:"ops_per_client"`
	TotalOps     int     `json:"total_ops"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// Throughput loads the polyglot engine once and hammers it with `clients`
// concurrent goroutines, each issuing `opsPerClient` queries drawn
// round-robin from the Q1–Q8 mix over deterministically varied stations.
// It exercises the concurrent-reader locking end to end — run it under
// -race to surface ordering bugs — and measures aggregate queries/second.
// The engine's intra-query fan-out stays at cfg.Workers; with many clients
// the inter-query concurrency already saturates the cores.
func Throughput(ctx context.Context, cfg Config, clients, opsPerClient int) (ThroughputReport, error) {
	if clients <= 0 || opsPerClient <= 0 {
		return ThroughputReport{}, fmt.Errorf("bench: clients and ops must be positive, got %d/%d", clients, opsPerClient)
	}
	data := dataset.GenerateBike(cfg.Bike)
	pg := ttdb.NewPolyglot(ts.Week)
	ids, err := data.LoadEngine(pg)
	if err != nil {
		return ThroughputReport{}, fmt.Errorf("bench: loading %s: %w", pg.Name(), err)
	}
	pg.SetWorkers(cfg.Workers)
	qs := data.Table1Queries(ids)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; op < opsPerClient && errs[c] == nil; op++ {
				_, errs[c] = pg.Exec(ctx, spreadQuery(qs, ids, c, op))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return ThroughputReport{}, fmt.Errorf("bench: throughput: %w", err)
	}

	total := clients * opsPerClient
	rep := ThroughputReport{
		Engine:       pg.Name(),
		Clients:      clients,
		OpsPerClient: opsPerClient,
		TotalOps:     total,
		ElapsedMS:    float64(elapsed.Nanoseconds()) / 1e6,
	}
	if elapsed > 0 {
		rep.OpsPerSec = float64(total) / elapsed.Seconds()
	}
	return rep, nil
}

// spreadQuery is one client's op-th query: the canonical workload round-robin,
// with the probed stations spread deterministically over ids.
func spreadQuery(qs []ttdb.Query, ids []ttdb.StationID, client, op int) ttdb.Query {
	q := qs[op%len(qs)]
	q.Station = ids[(client*7919+op)%len(ids)]
	q.Other = ids[(client*7919+op+len(ids)/2)%len(ids)]
	return q
}

// FormatThroughput renders a throughput report as one readable block.
func FormatThroughput(r ThroughputReport) string {
	return fmt.Sprintf("engine %s: %d clients x %d ops = %d queries in %.1f ms (%.0f q/s)",
		r.Engine, r.Clients, r.OpsPerClient, r.TotalOps, r.ElapsedMS, r.OpsPerSec)
}
