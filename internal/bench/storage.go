package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"hygraph/internal/dataset"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The storage benchmark measures what the compression + tiering layer buys:
// points-per-MB of the raw vs compressed layouts on the sealed-chunk
// workload (hourly integer availability counts — the shape bike telemetry
// actually has), the cost of a scan that reads every block back from the
// spill tier, and the Q1–Q8 latency deltas of a compressed polyglot engine
// against a raw one on the regular Table 1 workload.

// StorageReport is the baseline's storage section (schema v4).
type StorageReport struct {
	// Sealed-chunk workload shape.
	Series int `json:"series"`
	Points int `json:"points"`
	// In-memory footprint of the identical workload in each layout.
	RawBytes        int64 `json:"raw_bytes"`
	CompressedBytes int64 `json:"compressed_bytes"`
	// CompressionRatio is RawBytes / CompressedBytes (higher is better);
	// the layer's acceptance floor is 4x on this workload.
	CompressionRatio float64 `json:"compression_ratio"`
	PointsPerMBRaw   float64 `json:"points_per_mb_raw"`
	PointsPerMB      float64 `json:"points_per_mb_compressed"`
	// Identical reports that raw, compressed, and spilled stores returned
	// element-wise identical Range/Aggregate/Downsample results.
	Identical bool `json:"identical"`
	// Cold tier: every sealed block spilled to disk, then scanned, each
	// block read back from its spill file and decoded.
	SpilledBlocks int     `json:"spilled_blocks"`
	SpilledBytes  int64   `json:"spilled_bytes"`
	ColdScanMS    float64 `json:"cold_scan_ms"`
	// QueryDeltas maps Q1–Q8 to (compressedMRS - rawMRS) / rawMRS on the
	// Table 1 workload: the latency price of the compressed layout.
	// Timing-dependent, so reported rather than validated.
	QueryDeltas map[string]float64 `json:"query_deltas"`
}

// storageWorkload fills a store with the sealed-chunk workload: hourly
// integer availability counts, a seeded random walk per series. Returns
// series and point counts.
func storageWorkload(db *tsstore.DB, series, points int) (int, int) {
	for s := 0; s < series; s++ {
		key := tsstore.SeriesKey{Entity: uint32(s + 1), Metric: "availability"}
		// Deterministic per-series walk (xorshift), clamped to [0, 60].
		x := uint64(2463534242*uint64(s) + 1442695040888963407)
		level := int64(30)
		for i := 0; i < points; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			level += int64(x%5) - 2
			if level < 0 {
				level = 0
			}
			if level > 60 {
				level = 60
			}
			db.Insert(key, ts.Time(i)*ts.Hour, float64(level))
		}
	}
	return series, series * points
}

// storageObserve flattens the query surface over every series for equality
// checks and scan timing. The fold is deterministic: fixed key order, fixed
// windows.
func storageObserve(db *tsstore.DB, series, points int) []float64 {
	horizon := ts.Time(points) * ts.Hour
	var out []float64
	for s := 0; s < series; s++ {
		key := tsstore.SeriesKey{Entity: uint32(s + 1), Metric: "availability"}
		for _, p := range db.Range(key, 0, horizon) {
			out = append(out, float64(p.T), p.V)
		}
		for _, w := range [][2]ts.Time{{0, horizon}, {horizon / 4, horizon / 2}} {
			sum := db.Aggregate(key, w[0], w[1])
			out = append(out, float64(sum.Count), sum.Sum, sum.Min, sum.Max)
		}
		ds := db.Downsample(key, 0, horizon, ts.Day, ts.AggMean)
		for i := 0; i < ds.Len(); i++ {
			out = append(out, float64(ds.TimeAt(i)), ds.ValueAt(i))
		}
	}
	return out
}

func storageEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RunStorage measures the compression + tiering layer. The footprint and
// equality numbers are deterministic; the scan and query timings are not.
func RunStorage(ctx context.Context, cfg Config) (StorageReport, error) {
	const series, points = 64, 4096 // ~262k points, ~36 sealed chunks/series
	var rep StorageReport

	raw := tsstore.NewSharded(0, 0)
	raw.SetCompress(false)
	comp := tsstore.NewSharded(0, 0)
	rep.Series, rep.Points = storageWorkload(raw, series, points)
	storageWorkload(comp, series, points)

	rawStats, compStats := raw.Stats(), comp.Stats()
	rep.RawBytes, rep.CompressedBytes = rawStats.MemBytes, compStats.MemBytes
	if rep.CompressedBytes > 0 {
		rep.CompressionRatio = float64(rep.RawBytes) / float64(rep.CompressedBytes)
	}
	if rep.RawBytes > 0 {
		rep.PointsPerMBRaw = float64(rep.Points) / (float64(rep.RawBytes) / 1e6)
	}
	if rep.CompressedBytes > 0 {
		rep.PointsPerMB = float64(rep.Points) / (float64(rep.CompressedBytes) / 1e6)
	}

	want := storageObserve(raw, series, points)
	rep.Identical = storageEqual(want, storageObserve(comp, series, points))

	// Cold tier: spill every sealed block, then time a scan that reads every
	// block back.
	dir, err := os.MkdirTemp("", "hybench-tier-")
	if err != nil {
		return rep, fmt.Errorf("bench: storage temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := comp.EnableColdTier(dir); err != nil {
		return rep, err
	}
	st, err := comp.Spill()
	if err != nil {
		return rep, err
	}
	rep.SpilledBlocks, rep.SpilledBytes = st.Blocks, st.Bytes
	t0 := time.Now()
	cold := storageObserve(comp, series, points)
	rep.ColdScanMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	rep.Identical = rep.Identical && storageEqual(want, cold)
	if err := comp.Err(); err != nil {
		return rep, fmt.Errorf("bench: tiered store degraded: %w", err)
	}
	if err := comp.CloseColdTier(); err != nil {
		return rep, err
	}

	// Q1–Q8 deltas on the Table 1 workload: raw vs compressed polyglot.
	deltas, err := storageQueryDeltas(ctx, cfg)
	if err != nil {
		return rep, err
	}
	rep.QueryDeltas = deltas
	return rep, nil
}

// storageQueryDeltas times Q1–Q8 on two polyglot engines over the same
// dataset — chunk compression off vs on — and reports the relative MRS
// delta per query.
func storageQueryDeltas(ctx context.Context, cfg Config) (map[string]float64, error) {
	data := dataset.GenerateBike(cfg.Bike)
	rawE := ttdb.NewPolyglot(ts.Week)
	rawE.T.SetCompress(false)
	compE := ttdb.NewPolyglot(ts.Week)
	idsRaw, err := data.LoadEngine(rawE)
	if err != nil {
		return nil, fmt.Errorf("bench: loading raw engine: %w", err)
	}
	idsComp, err := data.LoadEngine(compE)
	if err != nil {
		return nil, fmt.Errorf("bench: loading compressed engine: %w", err)
	}
	rawQs, compQs := data.Table1Queries(idsRaw), data.Table1Queries(idsComp)

	// The queries are sub-millisecond, so the delta needs noise control the
	// MRS table doesn't: batch each timing sample to ≥2ms of work (timer
	// granularity and scheduler preemption otherwise dominate), alternate
	// raw/compressed samples (drift hits both legs equally), and compare
	// the *minimum* sample per leg — timing noise is strictly additive, so
	// the min is the robust estimator of true cost on a busy box.
	const targetSample = 2 * time.Millisecond
	reps := cfg.Reps * 2
	if reps < 11 {
		reps = 11
	}
	// sample is the mean ns of iters back-to-back runs of q.
	sample := func(e ttdb.Querier, q ttdb.Query, iters int) (float64, error) {
		s0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.Exec(ctx, q); err != nil {
				return 0, fmt.Errorf("bench: storage %s: %w", q.Op, err)
			}
		}
		return float64(time.Since(s0).Nanoseconds()) / float64(iters), nil
	}
	deltas := make(map[string]float64, len(rawQs))
	for i, rawQ := range rawQs {
		once, err := sample(rawE, rawQ, 1)
		if err != nil {
			return nil, err
		}
		if _, err := sample(compE, compQs[i], 1); err != nil { // warm-up both legs
			return nil, err
		}
		iters := 1
		if once > 0 && once < float64(targetSample) {
			iters = int(float64(targetSample) / once)
			if iters > 4096 {
				iters = 4096
			}
		}
		rawS := make([]float64, reps)
		compS := make([]float64, reps)
		for r := 0; r < reps; r++ {
			if rawS[r], err = sample(rawE, rawQ, iters); err != nil {
				return nil, err
			}
			if compS[r], err = sample(compE, compQs[i], iters); err != nil {
				return nil, err
			}
		}
		rawMin, compMin := minSample(rawS), minSample(compS)
		if rawMin > 0 {
			deltas[rawQ.Op.String()] = (compMin - rawMin) / rawMin
		}
	}
	return deltas, nil
}

// FormatStorage renders the storage section for terminal output.
func FormatStorage(r StorageReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Storage: compression + tiering (%d series × %d points)\n", r.Series, r.Points/max(1, r.Series))
	fmt.Fprintf(&b, "  footprint    raw %.1f MB → compressed %.1f MB (%.1fx, %s)\n",
		float64(r.RawBytes)/1e6, float64(r.CompressedBytes)/1e6, r.CompressionRatio,
		map[bool]string{true: "identical results", false: "RESULTS DIFFER"}[r.Identical])
	fmt.Fprintf(&b, "  points/MB    raw %.0f → compressed %.0f\n", r.PointsPerMBRaw, r.PointsPerMB)
	fmt.Fprintf(&b, "  cold tier    %d blocks (%.1f MB) spilled; scan %.1f ms\n",
		r.SpilledBlocks, float64(r.SpilledBytes)/1e6, r.ColdScanMS)
	b.WriteString("  Q deltas     ")
	for op := ttdb.OpQ1; op <= ttdb.OpQ8; op++ {
		fmt.Fprintf(&b, "%s %+.0f%%  ", op, 100*r.QueryDeltas[op.String()])
	}
	b.WriteString("\n")
	return b.String()
}

// CheckStorage validates the deterministic invariants of the storage
// section. Scan timings and query deltas are reported, not gated — CI boxes
// are too noisy to fail a build on a latency ratio.
func CheckStorage(r *StorageReport) []string {
	var problems []string
	if r.Series < 1 || r.Points < 1 {
		problems = append(problems, "storage: empty workload")
	}
	if !r.Identical {
		problems = append(problems, "storage: compressed/tiered results differ from raw")
	}
	if r.RawBytes <= 0 || r.CompressedBytes <= 0 {
		problems = append(problems, fmt.Sprintf("storage: footprints %d/%d not positive", r.RawBytes, r.CompressedBytes))
	}
	if math.IsNaN(r.CompressionRatio) || math.IsInf(r.CompressionRatio, 0) || r.CompressionRatio < 4 {
		problems = append(problems, fmt.Sprintf(
			"storage: compression ratio %.2f below the 4x floor on the sealed-chunk workload", r.CompressionRatio))
	}
	if r.SpilledBlocks < 1 || r.SpilledBytes < 1 {
		problems = append(problems, "storage: cold tier spilled nothing")
	}
	if r.ColdScanMS < 0 {
		problems = append(problems, "storage: negative scan timing")
	}
	for op := ttdb.OpQ1; op <= ttdb.OpQ8; op++ {
		q := op.String()
		d, ok := r.QueryDeltas[q]
		if !ok {
			problems = append(problems, fmt.Sprintf("storage: missing query delta for %s", q))
			continue
		}
		if math.IsNaN(d) || math.IsInf(d, 0) {
			problems = append(problems, fmt.Sprintf("storage: %s delta %v not finite", q, d))
		}
	}
	return problems
}
