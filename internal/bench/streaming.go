package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hygraph/internal/dataset"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The streaming section measures what write-through delta maintenance of
// the continuous-aggregate cache buys under sustained ingest: aggregate-read
// latency (p50/p99) and read-your-writes staleness (append-acknowledged to
// visible-in-the-aggregate, p50/p99) while open-loop writers stream points
// into the very windows the readers aggregate. Two legs over the identical
// workload and engine configuration differ only in the maintenance strategy:
// incremental (writes patch the owning bucket in place) vs recompute (writes
// invalidate the cached window, so every post-write read rebuilds it from
// the raw points). Both legs must pass the structural identity gate — the
// final cached aggregates element-wise equal (1e-9) to a from-scratch
// resample — so the speedup is never bought with wrong answers.

// StreamingConfig scopes one streaming-aggregates run.
type StreamingConfig struct {
	IngestClients int `json:"ingest_clients"`
	ReadClients   int `json:"read_clients"`
	// IngestRate is the offered append rate per ingest client in ops/sec
	// (open-loop pacing, same discipline as the mixed section). 0 means 4000.
	IngestRate int `json:"ingest_rate"`
	// ReadRate is the offered aggregate-read rate per read client in ops/sec.
	// Reads are paced, not closed-loop: a free-running reader would revisit
	// each station many times between writes, so most recompute-leg reads
	// would hit a still-valid cache and the comparison would measure nothing.
	// Paced below the aggregate write rate, consecutive reads of a station
	// usually have an intervening append — the live-dashboard access pattern
	// the continuous-aggregate store exists for. 0 means 2000.
	ReadRate int `json:"read_rate"`
	// WindowMS is the measured window in milliseconds. 0 means 150.
	WindowMS int `json:"window_ms"`
	// Stations bounds the station subset both writers and readers touch, so
	// the aggregate windows under test stay resident in the resample cache.
	// 0 means min(64, dataset stations).
	Stations int `json:"stations"`
	// Procs pins GOMAXPROCS for the measured phase. 0 means ingest+read.
	Procs int `json:"procs"`
}

// StreamingLeg is one maintenance strategy's measurements.
type StreamingLeg struct {
	Mode          string  `json:"mode"` // "incremental" or "recompute"
	Shards        int     `json:"shards"`
	GroupCommit   int     `json:"group_commit"`
	Procs         int     `json:"procs"`
	IngestClients int     `json:"ingest_clients"`
	ReadClients   int     `json:"read_clients"`
	IngestRate    int     `json:"ingest_rate"`
	ReadRate      int     `json:"read_rate"`
	WindowMS      int     `json:"window_ms"`
	IngestOps     int64   `json:"ingest_ops"`
	ReadOps       int64   `json:"read_ops"`
	IngestPerSec  float64 `json:"ingest_per_sec"`
	ReadsPerSec   float64 `json:"reads_per_sec"`
	// ReadP50MS/ReadP99MS are aggregate-read latencies under the offered
	// write load; StaleP50MS/StaleP99MS are ingest-to-visible times (from
	// just before AppendPoint until a read returns the aggregate covering
	// the appended point's bucket).
	ReadP50MS  float64 `json:"read_p50_ms"`
	ReadP99MS  float64 `json:"read_p99_ms"`
	StaleP50MS float64 `json:"stale_p50_ms"`
	StaleP99MS float64 `json:"stale_p99_ms"`
	// Cache deltas over the measured phase: the incremental leg must patch
	// and never invalidate on the streamed appends; the recompute leg the
	// reverse.
	CachePatches       int64 `json:"cache_patches"`
	CacheInvalidations int64 `json:"cache_invalidations"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	// Identical is the structural gate: after the measured phase, the cached
	// aggregates equal a from-scratch resample of the raw points.
	Identical bool `json:"identical"`
}

// StreamingReport pairs the two legs with the headline ratios.
type StreamingReport struct {
	Incremental StreamingLeg `json:"incremental"`
	Recompute   StreamingLeg `json:"recompute"`
	// SpeedupP50/SpeedupP99 are recompute read latency / incremental read
	// latency — how much cheaper an aggregate read is when sustained ingest
	// patches buckets instead of invalidating windows.
	SpeedupP50 float64 `json:"speedup_p50"`
	SpeedupP99 float64 `json:"speedup_p99"`
	// IngestRatio is incremental/recompute served ingest throughput at the
	// identical offered rate: write-through maintenance must not buy read
	// latency with write throughput.
	IngestRatio float64 `json:"ingest_ratio"`
	// Cores is runtime.NumCPU() at run time; the latency-speedup gate only
	// binds on machines with at least 4.
	Cores int `json:"cores"`
}

// streamBucket is the aggregate-read granularity: day buckets over hourly
// raw data put ~24 points behind every bucket, so a recompute pays a full
// window scan where a patched read pays a clone of the bucket list.
const streamBucket = ts.Day

// streamAggs is the identity-gate aggregate mix: the O(1)-delta family plus
// a rescan-only member.
var streamAggs = []ts.AggFunc{ts.AggMean, ts.AggSum, ts.AggMin, ts.AggMax, ts.AggCount, ts.AggStd}

func (sc StreamingConfig) withDefaults(nStations int) StreamingConfig {
	if sc.IngestClients <= 0 {
		sc.IngestClients = 4
	}
	if sc.ReadClients <= 0 {
		sc.ReadClients = 4
	}
	if sc.IngestRate <= 0 {
		sc.IngestRate = 4000
	}
	if sc.ReadRate <= 0 {
		sc.ReadRate = 2000
	}
	if sc.WindowMS <= 0 {
		sc.WindowMS = 150
	}
	if sc.Stations <= 0 || sc.Stations > nStations {
		sc.Stations = nStations
		if sc.Stations > 64 {
			sc.Stations = 64
		}
	}
	if sc.Procs <= 0 {
		sc.Procs = sc.IngestClients + sc.ReadClients
	}
	return sc
}

// streamingLeg runs one maintenance strategy over a fresh durable engine.
func streamingLeg(ctx context.Context, data *dataset.BikeData, sc StreamingConfig, writeThrough bool) (StreamingLeg, error) {
	mode := "incremental"
	if !writeThrough {
		mode = "recompute"
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.Procs))

	logs, closeLogs, err := tempLogs("hybench-streaming-")
	if err != nil {
		return StreamingLeg{}, err
	}
	defer closeLogs()

	const groupCommit = 64
	eng := ttdb.NewPolyglotSharded(ts.Week, tsstore.DefaultShards)
	eng.T.SetWriteThrough(writeThrough)
	d := ttdb.ResumeDurable(eng, logs[0], logs[1], logs[2], 0)
	d.SetGroupCommit(groupCommit)

	ids, err := preload(ctx, d, data.Stations[:sc.Stations], nil)
	if err != nil {
		return StreamingLeg{}, err
	}
	_, end := data.Span()

	// Warm every station's aggregate window once, so the measured phase
	// exercises maintenance (patch vs invalidate+recompute), not cold misses.
	readOne := func(ctx context.Context, st ttdb.StationID) ([]ts.Point, error) {
		res, err := d.Exec(ctx, ttdb.Downsample(st, 0, ts.MaxTime, streamBucket, ts.AggMean))
		return res.Points, err
	}
	for _, st := range ids {
		if _, err := readOne(ctx, st); err != nil {
			return StreamingLeg{}, fmt.Errorf("bench: streaming warmup: %w", err)
		}
	}

	var failed firstError
	fail := failed.set

	pre := eng.T.ResampleCacheStats()
	var tsSeq atomic.Int64
	var nIngest, nRead atomic.Int64
	readLat := make([][]time.Duration, sc.ReadClients)
	staleLat := make([][]time.Duration, sc.IngestClients)

	window := time.Duration(sc.WindowMS) * time.Millisecond
	const slot = 5 * time.Millisecond
	perSlot := sc.IngestRate * int(slot) / int(time.Second)
	if perSlot < 1 {
		perSlot = 1
	}
	readsPerSlot := sc.ReadRate * int(slot) / int(time.Second)
	if readsPerSlot < 1 {
		readsPerSlot = 1
	}

	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(window)
	for c := 0; c < sc.IngestClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; ; {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					return
				}
				next := now.Add(slot)
				for i := 0; i < perSlot; i++ {
					st := ids[(c*31+op)%len(ids)]
					t := end + ts.Time(tsSeq.Add(1))*ts.Minute
					// Every 16th append is a staleness probe: append, then
					// read the aggregate until the appended point's bucket is
					// covered. Write-through makes the first read suffice; the
					// measurement is honest either way.
					if op%16 == 0 {
						probe := time.Now()
						if err := d.AppendPoint(st, t, float64(op%48)); err != nil {
							fail(fmt.Errorf("bench: streaming ingest client %d: %w", c, err))
							return
						}
						want := ts.BucketStart(t, streamBucket)
						for {
							pts, err := readOne(ctx, st)
							if err != nil {
								fail(err)
								return
							}
							if len(pts) > 0 && pts[len(pts)-1].T >= want {
								break
							}
						}
						staleLat[c] = append(staleLat[c], time.Since(probe))
					} else if err := d.AppendPoint(st, t, float64(op%48)); err != nil {
						fail(fmt.Errorf("bench: streaming ingest client %d: %w", c, err))
						return
					}
					op++
					nIngest.Add(1)
				}
				if now = time.Now(); now.Before(next) {
					time.Sleep(next.Sub(now))
				}
			}
		}(c)
	}
	for c := 0; c < sc.ReadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := 0; ; {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					return
				}
				next := now.Add(slot)
				for i := 0; i < readsPerSlot; i++ {
					st := ids[(c*7919+op)%len(ids)]
					r0 := time.Now()
					if _, err := readOne(ctx, st); err != nil {
						fail(fmt.Errorf("bench: streaming read client %d: %w", c, err))
						return
					}
					readLat[c] = append(readLat[c], time.Since(r0))
					op++
					nRead.Add(1)
				}
				if now = time.Now(); now.Before(next) {
					time.Sleep(next.Sub(now))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if failed.err != nil {
		return StreamingLeg{}, failed.err
	}
	post := eng.T.ResampleCacheStats()

	leg := StreamingLeg{
		Mode:          mode,
		Shards:        tsstore.DefaultShards,
		GroupCommit:   groupCommit,
		Procs:         sc.Procs,
		IngestClients: sc.IngestClients,
		ReadClients:   sc.ReadClients,
		IngestRate:    sc.IngestRate,
		ReadRate:      sc.ReadRate,
		WindowMS:      sc.WindowMS,
		IngestOps:     nIngest.Load(),
		ReadOps:       nRead.Load(),

		CachePatches:       post.Patches - pre.Patches,
		CacheInvalidations: post.Invalidations - pre.Invalidations,
		CacheHits:          post.Hits - pre.Hits,
		CacheMisses:        post.Misses - pre.Misses,
	}
	if s := elapsed.Seconds(); s > 0 {
		leg.IngestPerSec = float64(leg.IngestOps) / s
		leg.ReadsPerSec = float64(leg.ReadOps) / s
	}
	var allReads, allStale []time.Duration
	for _, l := range readLat {
		allReads = append(allReads, l...)
	}
	for _, l := range staleLat {
		allStale = append(allStale, l...)
	}
	leg.ReadP50MS, leg.ReadP99MS = quantilesMS(allReads)
	leg.StaleP50MS, leg.StaleP99MS = quantilesMS(allStale)

	// Structural identity gate: the cached aggregates (whatever mix of
	// patched, rescanned, and recomputed buckets they hold) must equal a
	// from-scratch resample of the raw points, element-wise within 1e-9.
	leg.Identical = true
check:
	for _, st := range ids {
		raw, err := d.Exec(ctx, ttdb.Q1(st, 0, ts.MaxTime))
		if err != nil {
			return StreamingLeg{}, err
		}
		s := ts.FromPoints("raw", raw.Points)
		for _, agg := range streamAggs {
			got, err := d.Exec(ctx, ttdb.Downsample(st, 0, ts.MaxTime, streamBucket, agg))
			if err != nil {
				return StreamingLeg{}, err
			}
			want := s.Resample(streamBucket, agg).Points()
			if !pointsEqual(got.Points, want) {
				leg.Identical = false
				break check
			}
		}
	}
	return leg, nil
}

// pointsEqual compares bucket lists element-wise within 1e-9 relative
// tolerance (NaN equals NaN).
func pointsEqual(a, b []ts.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T {
			return false
		}
		av, bv := a[i].V, b[i].V
		if av == bv || (math.IsNaN(av) && math.IsNaN(bv)) {
			continue
		}
		m := math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
		if math.Abs(av-bv) > 1e-9*m {
			return false
		}
	}
	return true
}

// RunStreaming runs the two maintenance legs over the identical workload and
// pairs them.
func RunStreaming(ctx context.Context, cfg Config, sc StreamingConfig) (StreamingReport, error) {
	data := dataset.GenerateBike(cfg.Bike)
	sc = sc.withDefaults(len(data.Stations))
	inc, err := streamingLeg(ctx, data, sc, true)
	if err != nil {
		return StreamingReport{}, err
	}
	rec, err := streamingLeg(ctx, data, sc, false)
	if err != nil {
		return StreamingReport{}, err
	}
	rep := StreamingReport{Incremental: inc, Recompute: rec, Cores: runtime.NumCPU()}
	if inc.ReadP50MS > 0 {
		rep.SpeedupP50 = rec.ReadP50MS / inc.ReadP50MS
	}
	if inc.ReadP99MS > 0 {
		rep.SpeedupP99 = rec.ReadP99MS / inc.ReadP99MS
	}
	if rec.IngestPerSec > 0 {
		rep.IngestRatio = inc.IngestPerSec / rec.IngestPerSec
	}
	return rep, nil
}

// CheckStreaming validates the structural invariants of the streaming
// section. The latency-speedup and ingest-parity gates only bind on machines
// with at least 4 cores — below that the two legs timeshare the same core
// and the ratio measures the scheduler, not the maintenance strategy.
func CheckStreaming(r *StreamingReport) []string {
	var problems []string
	for _, l := range []struct {
		name string
		leg  StreamingLeg
	}{{"streaming.incremental", r.Incremental}, {"streaming.recompute", r.Recompute}} {
		if l.leg.IngestOps < 1 || l.leg.ReadOps < 1 {
			problems = append(problems, fmt.Sprintf(
				"%s: %d appends / %d reads — both sides must make progress", l.name, l.leg.IngestOps, l.leg.ReadOps))
		}
		for _, m := range []struct {
			name string
			v    float64
		}{
			{"ingest_per_sec", l.leg.IngestPerSec}, {"reads_per_sec", l.leg.ReadsPerSec},
			{"read_p50_ms", l.leg.ReadP50MS}, {"read_p99_ms", l.leg.ReadP99MS},
			{"stale_p50_ms", l.leg.StaleP50MS}, {"stale_p99_ms", l.leg.StaleP99MS},
		} {
			if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v <= 0 {
				problems = append(problems, fmt.Sprintf("%s.%s %v not finite and positive", l.name, m.name, m.v))
			}
		}
		if l.leg.ReadP99MS < l.leg.ReadP50MS {
			problems = append(problems, fmt.Sprintf("%s: p99 %.4fms below p50 %.4fms", l.name, l.leg.ReadP99MS, l.leg.ReadP50MS))
		}
		if !l.leg.Identical {
			problems = append(problems, l.name+": cached aggregates differ from a from-scratch resample")
		}
	}
	if r.Incremental.CachePatches < 1 {
		problems = append(problems, "streaming.incremental: no cache patches — write-through maintenance did not run")
	}
	if r.Incremental.CacheInvalidations > 0 {
		problems = append(problems, fmt.Sprintf(
			"streaming.incremental: %d invalidations — streamed appends must patch, not drop, cached windows",
			r.Incremental.CacheInvalidations))
	}
	if r.Recompute.CachePatches > 0 {
		problems = append(problems, fmt.Sprintf(
			"streaming.recompute: %d patches — the baseline leg must not write through", r.Recompute.CachePatches))
	}
	if r.Recompute.CacheInvalidations < 1 {
		problems = append(problems, "streaming.recompute: no invalidations — the baseline leg never paid for its writes")
	}
	if r.Cores >= 4 {
		if r.SpeedupP50 < 5 {
			problems = append(problems, fmt.Sprintf(
				"streaming: read p50 speedup %.2fx below the 5x floor (incremental %.4fms vs recompute %.4fms)",
				r.SpeedupP50, r.Incremental.ReadP50MS, r.Recompute.ReadP50MS))
		}
		if r.IngestRatio < 0.9 {
			problems = append(problems, fmt.Sprintf(
				"streaming: incremental leg served only %.0f%% of the recompute leg's ingest throughput (floor 90%%)",
				100*r.IngestRatio))
		}
	}
	return problems
}

// FormatStreaming renders the streaming comparison as a readable block.
func FormatStreaming(r StreamingReport) string {
	line := func(l StreamingLeg) string {
		return fmt.Sprintf("  %-11s %d ingest @ %d/s + %d readers @ %d/s, %d ms window: %.0f appends/s, %.0f reads/s, read p50 %.4f ms p99 %.4f ms, visible p50 %.4f ms p99 %.4f ms, cache %dP/%dI/%dH/%dM",
			l.Mode, l.IngestClients, l.IngestRate, l.ReadClients, l.ReadRate, l.WindowMS,
			l.IngestPerSec, l.ReadsPerSec, l.ReadP50MS, l.ReadP99MS, l.StaleP50MS, l.StaleP99MS,
			l.CachePatches, l.CacheInvalidations, l.CacheHits, l.CacheMisses)
	}
	return fmt.Sprintf("streaming aggregates under sustained ingest (%d-core, identity gate %v/%v):\n%s\n%s\n  read speedup: %.1fx p50, %.1fx p99; ingest parity %.2fx\n",
		r.Cores, r.Incremental.Identical, r.Recompute.Identical,
		line(r.Incremental), line(r.Recompute), r.SpeedupP50, r.SpeedupP99, r.IngestRatio)
}
