package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hygraph/internal/dataset"
	"hygraph/internal/obs"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// MixedConfig scopes one mixed read/write throughput run: N ingest clients
// streaming points through the durable write path while M query clients
// issue the Q1–Q8 mix against the same engine. Ingest is open-loop — each
// writer offers IngestRate appends/sec, the way sensor streams arrive in
// the paper's hybrid setting — and queries are closed-loop, so both legs
// serve the identical write load and the comparison measures how much
// query throughput the engine sustains alongside it. Clients run for a
// fixed window; a leg that cannot keep up with the offered write rate
// shows it as achieved writes below offered.
type MixedConfig struct {
	IngestClients int `json:"ingest_clients"`
	QueryClients  int `json:"query_clients"`
	// IngestRate is the offered append rate per ingest client in ops/sec
	// (open-loop pacing). The default, 4000, is deliberately above what a
	// single-lock engine can serve alongside the query mix — the shortfall
	// between offered and achieved writes is the measurement.
	IngestRate int `json:"ingest_rate"`
	// WindowMS is the measured window per rep in milliseconds. 0 means 100.
	WindowMS int `json:"window_ms"`
	// Shards is the lock-stripe count of both stores (1 = the single-lock
	// baseline).
	Shards int `json:"shards"`
	// GroupCommit is the max records coalesced per physical WAL flush
	// (1 = per-record flushing, the pre-group-commit baseline).
	GroupCommit int `json:"group_commit"`
	// Procs pins GOMAXPROCS for the measured phase, like testing.B's -cpu:
	// an N-client throughput run schedules N-way, with the OS arbitrating
	// the cores it actually has. 0 means ingest+query clients.
	Procs int `json:"procs"`
	// Reps repeats the measured phase and keeps the best-throughput rep
	// (standard for throughput benchmarks, where interference only ever
	// slows a run down). 0 means 3.
	Reps int `json:"reps"`
}

// MixedReport summarizes one mixed run. WALAppends/WALFlushes are the
// time-series WAL's counters over the measured phase only (preload
// excluded), the direct evidence of group-commit coalescing: per-record
// flushing pins flushes == appends, group commit drives flushes below.
type MixedReport struct {
	Mode          string  `json:"mode"` // "baseline" or "sharded"
	Shards        int     `json:"shards"`
	GroupCommit   int     `json:"group_commit"`
	Procs         int     `json:"procs"`
	IngestClients int     `json:"ingest_clients"`
	QueryClients  int     `json:"query_clients"`
	IngestRate    int     `json:"ingest_rate"`
	WindowMS      int     `json:"window_ms"`
	IngestOps     int64   `json:"ingest_ops"`
	QueryOps      int64   `json:"query_ops"`
	TotalOps      int64   `json:"total_ops"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	WALAppends    int64   `json:"wal_appends"`
	WALFlushes    int64   `json:"wal_flushes"`
}

// MixedComparison pairs the single-stripe, per-record-flush baseline with
// the striped group-commit run over the identical workload — the scaling
// claim of the mixed benchmark in one record.
type MixedComparison struct {
	Baseline MixedReport `json:"baseline"`
	Sharded  MixedReport `json:"sharded"`
	// Speedup is Sharded.OpsPerSec / Baseline.OpsPerSec — total completed
	// operations of both kinds.
	Speedup float64 `json:"speedup"`
	// WriteSpeedup is the ratio of served write throughput at the identical
	// offered rate: how much more of the ingest load the striped engine
	// absorbs while the same query mix runs. ReadSpeedup is the query-side
	// ratio over the same windows.
	WriteSpeedup float64 `json:"write_speedup"`
	ReadSpeedup  float64 `json:"read_speedup"`
}

// MixedThroughput preloads the bike network through the durable ingest
// protocol, then runs mc.IngestClients goroutines streaming AppendPoint
// writes concurrently with mc.QueryClients goroutines issuing the Q1–Q8
// mix, all against one DurablePolyglot logging to real temp files (so a
// WAL flush costs a syscall, as deployed). Every client loops until the
// window closes; the report carries completed ops of each kind plus the
// measured-phase WAL append/flush counts.
func MixedThroughput(ctx context.Context, bike dataset.BikeConfig, mc MixedConfig) (MixedReport, error) {
	if mc.IngestClients <= 0 || mc.QueryClients <= 0 {
		return MixedReport{}, fmt.Errorf("bench: mixed client counts must be positive, got %d/%d",
			mc.IngestClients, mc.QueryClients)
	}
	if mc.IngestRate <= 0 {
		mc.IngestRate = 4000
	}
	if mc.WindowMS <= 0 {
		mc.WindowMS = 100
	}
	if mc.Procs <= 0 {
		mc.Procs = mc.IngestClients + mc.QueryClients
	}
	if mc.Reps <= 0 {
		mc.Reps = 3
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mc.Procs))
	data := dataset.GenerateBike(bike)

	logs, closeLogs, err := tempLogs("hybench-mixed-")
	if err != nil {
		return MixedReport{}, err
	}
	defer closeLogs()

	reg := obs.New()
	eng := ttdb.NewPolyglotSharded(ts.Week, mc.Shards)
	// Identical intra-query fan-out on both legs, capped at the physical
	// cores: client-level concurrency is Procs, but fanning a single scan
	// wider than the hardware only adds goroutine churn. The single-stripe
	// baseline degenerates to a serial scan regardless, because it has only
	// one stripe to fan over — precisely the limit striping removes.
	if w := runtime.NumCPU(); w < mc.Procs {
		eng.SetWorkers(w)
	} else {
		eng.SetWorkers(mc.Procs)
	}
	d := ttdb.ResumeDurable(eng, logs[0], logs[1], logs[2], 0)
	d.SetGroupCommit(mc.GroupCommit)
	d.Instrument(reg)

	ids, err := preload(ctx, d, data.Stations, data.Trips)
	if err != nil {
		return MixedReport{}, err
	}
	_, end := data.Span()
	qs := data.Table1Queries(ids)

	var failed firstError
	fail := failed.set

	// One counter for the whole run (all reps): every append gets a fresh
	// timestamp past the preloaded span, so ingest is always an append,
	// never an upsert.
	var tsSeq atomic.Int64
	ingest := func(c, op int) error {
		st := ids[(c*31+op)%len(ids)]
		t := end + ts.Time(tsSeq.Add(1))*ts.Minute
		return d.AppendPoint(st, t, float64((c+op)%48))
	}
	window := time.Duration(mc.WindowMS) * time.Millisecond
	// Writers deliver their offered rate in 5ms batches, the way sensor
	// gateways flush: coarse slots survive scheduler wake-up jitter that
	// sub-millisecond per-op sleeps cannot, and the burst exercises the
	// write path's contention behaviour.
	const slot = 5 * time.Millisecond
	perSlot := mc.IngestRate * int(slot) / int(time.Second)
	if perSlot < 1 {
		perSlot = 1
	}
	measure := func() (ingestOps, queryOps int64, elapsed time.Duration, appends, flushes int64, err error) {
		pre := reg.Snapshot()
		var wg sync.WaitGroup
		t0 := time.Now()
		deadline := t0.Add(window)
		var nIngest, nQuery atomic.Int64
		for c := 0; c < mc.IngestClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Open-loop pacing: a burst of perSlot appends per 5ms
				// slot. A slot that can't be served on time is dropped
				// rather than queued, like a sensor stream — an overloaded
				// engine shows achieved writes below the offered rate
				// instead of degenerating into a closed-loop write hammer.
				next := t0
				for op := 0; ; {
					now := time.Now()
					if !now.Before(deadline) || ctx.Err() != nil {
						return
					}
					if now.Before(next) {
						time.Sleep(next.Sub(now))
						if !time.Now().Before(deadline) {
							return
						}
					}
					for i := 0; i < perSlot; i++ {
						if err := ingest(c, op); err != nil {
							fail(fmt.Errorf("bench: mixed ingest client %d: %w", c, err))
							return
						}
						op++
						nIngest.Add(1)
					}
					if next = next.Add(slot); next.Before(time.Now()) {
						next = time.Now()
					}
				}
			}(c)
		}
		for c := 0; c < mc.QueryClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for op := 0; time.Now().Before(deadline); op++ {
					if _, err := d.Exec(ctx, spreadQuery(qs, ids, c, op)); err != nil {
						fail(fmt.Errorf("bench: mixed query client %d: %w", c, err))
						return
					}
					nQuery.Add(1)
				}
			}(c)
		}
		wg.Wait()
		elapsed = time.Since(t0)
		if failed.err != nil {
			return 0, 0, 0, 0, 0, failed.err
		}
		post := reg.Snapshot()
		return nIngest.Load(), nQuery.Load(), elapsed,
			post.Counters["tsstore.wal.appends"] - pre.Counters["tsstore.wal.appends"],
			post.Counters["tsstore.wal.flushes"] - pre.Counters["tsstore.wal.flushes"],
			nil
	}

	mode := "sharded"
	if mc.Shards <= 1 {
		mode = "baseline"
	}
	rep := MixedReport{
		Mode:          mode,
		Shards:        mc.Shards,
		GroupCommit:   mc.GroupCommit,
		Procs:         mc.Procs,
		IngestClients: mc.IngestClients,
		QueryClients:  mc.QueryClients,
		IngestRate:    mc.IngestRate,
		WindowMS:      mc.WindowMS,
	}
	// Best of Reps: co-tenant interference and cold caches only ever slow a
	// rep down, so the fastest rep is the closest estimate of what the
	// configuration can actually sustain.
	for r := 0; r < mc.Reps; r++ {
		in, q, elapsed, appends, flushes, err := measure()
		if err != nil {
			return MixedReport{}, err
		}
		if elapsed <= 0 {
			continue
		}
		ops := float64(in+q) / elapsed.Seconds()
		if ops > rep.OpsPerSec {
			rep.OpsPerSec = ops
			rep.IngestOps = in
			rep.QueryOps = q
			rep.TotalOps = in + q
			rep.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
			rep.WALAppends = appends
			rep.WALFlushes = flushes
		}
	}
	if rep.OpsPerSec == 0 {
		return MixedReport{}, fmt.Errorf("bench: mixed %s run measured no throughput", mode)
	}
	return rep, nil
}

// firstError keeps the first error any client goroutine of a section
// reports; read err once the goroutines are joined.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// tempLogs creates the three log files of a durable engine (graph WAL,
// time-series WAL, intent journal, in that order) in a fresh temp directory,
// so a WAL flush costs a syscall, as deployed. The returned func closes the
// files and removes the directory.
func tempLogs(prefix string) ([]*os.File, func(), error) {
	dir, err := os.MkdirTemp("", prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: temp dir: %w", err)
	}
	var logs []*os.File
	cleanup := func() {
		for _, f := range logs {
			f.Close()
		}
		os.RemoveAll(dir)
	}
	for _, name := range []string{"graph.wal", "ts.wal", "intent.journal"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("bench: log file: %w", err)
		}
		logs = append(logs, f)
	}
	return logs, cleanup, nil
}

// preload durably ingests the stations and the trips among them, returning
// the station ids in the given order.
func preload(ctx context.Context, d *ttdb.DurablePolyglot, stations []dataset.BikeStation, trips []dataset.BikeTrip) ([]ttdb.StationID, error) {
	ids := make([]ttdb.StationID, len(stations))
	for i, st := range stations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, err := d.IngestStation(st.Name, st.District, st.Availability)
		if err != nil {
			return nil, fmt.Errorf("bench: preload %s: %w", st.Name, err)
		}
		ids[i] = id
	}
	for _, tr := range trips {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.AddTrip(ids[tr.From], ids[tr.To], tr.Count); err != nil {
			return nil, fmt.Errorf("bench: preload trip: %w", err)
		}
	}
	return ids, nil
}

// RunMixed runs the mixed workload twice — single stripe with per-record
// flushing, then striped stores with group commit — and pairs the reports.
func RunMixed(ctx context.Context, cfg Config, ingest, query, windowMS int) (MixedComparison, error) {
	base, err := MixedThroughput(ctx, cfg.Bike, MixedConfig{
		IngestClients: ingest, QueryClients: query, WindowMS: windowMS,
		Shards: 1, GroupCommit: 1,
	})
	if err != nil {
		return MixedComparison{}, err
	}
	sharded, err := MixedThroughput(ctx, cfg.Bike, MixedConfig{
		IngestClients: ingest, QueryClients: query, WindowMS: windowMS,
		Shards: tsstore.DefaultShards, GroupCommit: 64,
	})
	if err != nil {
		return MixedComparison{}, err
	}
	cmp := MixedComparison{Baseline: base, Sharded: sharded}
	if base.OpsPerSec > 0 {
		cmp.Speedup = sharded.OpsPerSec / base.OpsPerSec
	}
	if base.IngestOps > 0 {
		cmp.WriteSpeedup = float64(sharded.IngestOps) / float64(base.IngestOps)
	}
	if base.QueryOps > 0 {
		cmp.ReadSpeedup = float64(sharded.QueryOps) / float64(base.QueryOps)
	}
	return cmp, nil
}

// FormatMixed renders a mixed comparison as a readable block.
func FormatMixed(c MixedComparison) string {
	line := func(r MixedReport) string {
		offered := float64(r.IngestClients*r.IngestRate) * float64(r.WindowMS) / 1000
		return fmt.Sprintf("  %-8s shards=%-2d group=%-2d procs=%-2d  %d ingest @ %d/s + %d query clients, %d ms window: %d/%.0f writes + %d reads (%.0f ops/s), ts-wal %d appends / %d flushes",
			r.Mode, r.Shards, r.GroupCommit, r.Procs, r.IngestClients, r.IngestRate, r.QueryClients, r.WindowMS,
			r.IngestOps, offered, r.QueryOps, r.OpsPerSec, r.WALAppends, r.WALFlushes)
	}
	return fmt.Sprintf("mixed read/write throughput:\n%s\n%s\n  speedup: %.2fx total ops/s, %.2fx served writes, %.2fx reads at the same offered load\n",
		line(c.Baseline), line(c.Sharded), c.Speedup, c.WriteSpeedup, c.ReadSpeedup)
}
