// Package ttdb reproduces the two storage architectures benchmarked in the
// paper's Table 1:
//
//   - AllInGraph: the "Neo4j" baseline — time series stored inside the graph
//     store, every (timestamp, value) observation as a separate property on
//     its node (the paper: "each timestamp and its corresponding value are
//     stored as separate properties ... significantly increases the number
//     of properties, resulting in high write overhead" and property-chain
//     scans at query time).
//
//   - Polyglot: the TimeTravelDB architecture — graph topology in the graph
//     store, series in the time-series store, linked by node id (polyglot
//     persistence). Queries route the structural part to the graph store and
//     the temporal part to the hypertable.
//
// Both engines expose the same eight queries Q1–Q8 over a bike-sharing
// network so the Table 1 harness can time them head-to-head. Q1 is a plain
// time-range probe (the one query the paper shows Neo4j winning), Q2–Q3 add
// filters and single-entity aggregation, and Q4–Q8 aggregate, join, rank and
// correlate across many entities — the regime where all-in-graph storage
// collapses.
package ttdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// Metric is the series name used by the bike-sharing workload.
const Metric = "availability"

// StationID identifies a station in either engine (the graph-store node id).
type StationID = graphstore.NodeID

// Engine is the common query surface of both storage architectures. The
// mutating methods return errors rather than panicking: callers on the
// library path handle them, and only explicit Must* helpers may panic.
type Engine interface {
	// Name identifies the engine in reports ("neo4j-sim" / "ttdb").
	Name() string
	// AddStation registers a station with its district; returns its id.
	AddStation(name, district string) (StationID, error)
	// AddTrip records an aggregated trip edge between two stations.
	AddTrip(a, b StationID, count int) error
	// LoadSeries attaches the metric series to a station.
	LoadSeries(st StationID, s *ts.Series) error
	// SetWorkers fixes the fan-out width for the multi-station queries
	// Q4–Q8 (<= 1 selects the sequential path). Results are identical at
	// any width; only wall-clock changes.
	SetWorkers(n int)
	// Instrument attaches metric handles from the registry (per-query
	// timers, fan-out width, store counters). Call before the engine is
	// shared; a nil registry detaches instrumentation. Results are
	// unaffected either way.
	Instrument(r *obs.Registry)

	// Q1: raw time-range fetch for one station.
	Q1TimeRange(st StationID, start, end ts.Time) []ts.Point
	// Q2: range fetch keeping only values below the threshold.
	Q2FilteredRange(st StationID, start, end ts.Time, below float64) []ts.Point
	// Q3: mean of one station over the range.
	Q3StationMean(st StationID, start, end ts.Time) float64
	// Q4: mean per station over the range, for every station.
	Q4AllStationMeans(start, end ts.Time) map[StationID]float64
	// Q5: total availability per district over the range.
	Q5DistrictSums(start, end ts.Time) map[string]float64
	// Q6: the k stations with the highest mean over the range.
	Q6TopKStations(start, end ts.Time, k int) []StationID
	// Q7: Pearson correlation of two stations' series over the range.
	Q7Correlation(a, b StationID, start, end, bucket ts.Time) float64
	// Q8: mean availability of every station adjacent to st via trips.
	Q8NeighborMeans(st StationID, start, end ts.Time) map[StationID]float64
}

// ---------------------------------------------------------------------------
// All-in-graph engine (the Neo4j baseline of Table 1)

// AllInGraph stores series points as individual node properties named
// "<metric>@<timestamp>".
type AllInGraph struct {
	G       *graphstore.DB
	workers int
	obs     queryObs // metric handles; zero value = instrumentation off
}

// NewAllInGraph returns an empty all-in-graph engine.
func NewAllInGraph() *AllInGraph { return &AllInGraph{G: graphstore.New()} }

// Name implements Engine.
func (a *AllInGraph) Name() string { return "neo4j-sim" }

// SetWorkers implements Engine.
func (a *AllInGraph) SetWorkers(n int) { a.workers = n }

// AddStation implements Engine.
func (a *AllInGraph) AddStation(name, district string) (StationID, error) {
	id := a.G.CreateNode("Station")
	if err := a.G.SetNodeProp(id, "name", graphstore.StrVal(name)); err != nil {
		return 0, err
	}
	if err := a.G.SetNodeProp(id, "district", graphstore.StrVal(district)); err != nil {
		return 0, err
	}
	return id, nil
}

// AddTrip implements Engine.
func (a *AllInGraph) AddTrip(x, y StationID, count int) error {
	rel, err := a.G.CreateRel(x, y, "TRIP")
	if err != nil {
		return err
	}
	return a.G.SetRelProp(rel, "count", graphstore.IntVal(int64(count)))
}

// pointKey encodes one observation's property name.
func pointKey(t ts.Time) string { return Metric + "@" + strconv.FormatInt(int64(t), 10) }

// parsePointKey decodes a property name back into a timestamp.
func parsePointKey(key string) (ts.Time, bool) {
	rest, ok := strings.CutPrefix(key, Metric+"@")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return ts.Time(v), true
}

// LoadSeries implements Engine: one property record per observation.
func (a *AllInGraph) LoadSeries(st StationID, s *ts.Series) error {
	for i := 0; i < s.Len(); i++ {
		if err := a.G.SetNodeProp(st, pointKey(s.TimeAt(i)), graphstore.FloatVal(s.ValueAt(i))); err != nil {
			return err
		}
	}
	return nil
}

// scan walks the whole property chain of a station, decoding every record
// and yielding the points inside [start, end). There is no index over the
// chain, so this is O(total properties) per call — the measured bottleneck.
func (a *AllInGraph) scan(st StationID, start, end ts.Time, fn func(ts.Time, float64)) {
	a.G.NodeProps(st, func(key string, val graphstore.PropValue) bool {
		t, ok := parsePointKey(key)
		if !ok || t < start || t >= end {
			return true
		}
		if f, ok := val.AsFloat(); ok {
			fn(t, f)
		}
		return true
	})
}

// rangePoints is the untimed Q1 body, shared with Q7 so composite queries
// don't double-count into Q1's histogram.
func (a *AllInGraph) rangePoints(st StationID, start, end ts.Time) []ts.Point {
	var pts []ts.Point
	a.scan(st, start, end, func(t ts.Time, v float64) { pts = append(pts, ts.Point{T: t, V: v}) })
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// Q1TimeRange implements Engine.
func (a *AllInGraph) Q1TimeRange(st StationID, start, end ts.Time) []ts.Point {
	sw := a.obs.q[0].Start()
	defer sw.Stop()
	return a.rangePoints(st, start, end)
}

// Q2FilteredRange implements Engine.
func (a *AllInGraph) Q2FilteredRange(st StationID, start, end ts.Time, below float64) []ts.Point {
	sw := a.obs.q[1].Start()
	defer sw.Stop()
	var pts []ts.Point
	a.scan(st, start, end, func(t ts.Time, v float64) {
		if v < below {
			pts = append(pts, ts.Point{T: t, V: v})
		}
	})
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// meanOf is the untimed Q3 body, shared with Q4/Q6/Q8 fan-outs so composite
// queries don't double-count into Q3's histogram (or pay its timer per item).
func (a *AllInGraph) meanOf(st StationID, start, end ts.Time) float64 {
	var sum float64
	var n int
	a.scan(st, start, end, func(_ ts.Time, v float64) { sum += v; n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Q3StationMean implements Engine.
func (a *AllInGraph) Q3StationMean(st StationID, start, end ts.Time) float64 {
	sw := a.obs.q[2].Start()
	defer sw.Stop()
	return a.meanOf(st, start, end)
}

// allMeans is the untimed Q4 body, shared with Q6.
func (a *AllInGraph) allMeans(start, end ts.Time) map[StationID]float64 {
	stations := a.G.NodesByLabel("Station")
	means := make([]float64, len(stations))
	a.obs.parallelFor(a.workers, len(stations), func(i int) {
		means[i] = a.meanOf(stations[i], start, end)
	})
	out := make(map[StationID]float64, len(stations))
	for i, st := range stations {
		out[st] = means[i]
	}
	return out
}

// Q4AllStationMeans implements Engine. The per-station scans are
// independent, so they fan out across the worker pool; the merge folds the
// result slice in station order regardless of width.
func (a *AllInGraph) Q4AllStationMeans(start, end ts.Time) map[StationID]float64 {
	sw := a.obs.q[3].Start()
	defer sw.Stop()
	return a.allMeans(start, end)
}

// Q5DistrictSums implements Engine. Per-station sums and district lookups
// run on the worker pool; the district fold runs sequentially in station
// order so float accumulation order is fixed.
func (a *AllInGraph) Q5DistrictSums(start, end ts.Time) map[string]float64 {
	sw := a.obs.q[4].Start()
	defer sw.Stop()
	stations := a.G.NodesByLabel("Station")
	districts := make([]string, len(stations))
	sums := make([]float64, len(stations))
	a.obs.parallelFor(a.workers, len(stations), func(i int) {
		districts[i] = "?"
		if v, ok := a.G.NodeProp(stations[i], "district"); ok {
			districts[i] = v.S
		}
		var sum float64
		a.scan(stations[i], start, end, func(_ ts.Time, v float64) { sum += v })
		sums[i] = sum
	})
	out := map[string]float64{}
	for i := range stations {
		out[districts[i]] += sums[i]
	}
	return out
}

// Q6TopKStations implements Engine.
func (a *AllInGraph) Q6TopKStations(start, end ts.Time, k int) []StationID {
	sw := a.obs.q[5].Start()
	defer sw.Stop()
	return topK(a.allMeans(start, end), k)
}

// Q7Correlation implements Engine.
func (a *AllInGraph) Q7Correlation(x, y StationID, start, end, bucket ts.Time) float64 {
	sw := a.obs.q[6].Start()
	defer sw.Stop()
	sx := ts.FromPoints("x", a.rangePoints(x, start, end))
	sy := ts.FromPoints("y", a.rangePoints(y, start, end))
	return ts.Correlation(sx, sy, bucket)
}

// Q8NeighborMeans implements Engine: the graph store answers adjacency,
// then the per-neighbor chain scans fan out across the worker pool.
func (a *AllInGraph) Q8NeighborMeans(st StationID, start, end ts.Time) map[StationID]float64 {
	sw := a.obs.q[7].Start()
	defer sw.Stop()
	ns := a.G.Neighbors(st, "TRIP")
	means := make([]float64, len(ns))
	a.obs.parallelFor(a.workers, len(ns), func(i int) {
		means[i] = a.meanOf(ns[i], start, end)
	})
	out := make(map[StationID]float64, len(ns))
	for i, n := range ns {
		out[n] = means[i]
	}
	return out
}

// ---------------------------------------------------------------------------
// Polyglot engine (TimeTravelDB)

// Polyglot keeps topology in the graph store and series in the hypertable.
type Polyglot struct {
	G       *graphstore.DB
	T       *tsstore.DB
	workers int
	obs     queryObs  // metric handles; zero value = instrumentation off
	series  seriesObs // HyQL series-handle counters (hyql.go), same discipline
}

// NewPolyglot returns an empty polyglot engine with the given chunk width
// (<= 0 selects the default).
func NewPolyglot(chunkWidth ts.Time) *Polyglot {
	return &Polyglot{G: graphstore.New(), T: tsstore.New(chunkWidth)}
}

// NewPolyglotSharded is NewPolyglot with an explicit lock-stripe count for
// both stores. shards <= 1 collapses to the single-stripe configuration —
// the pre-striping baseline the mixed throughput benchmark compares against.
func NewPolyglotSharded(chunkWidth ts.Time, shards int) *Polyglot {
	return &Polyglot{G: graphstore.NewSharded(shards), T: tsstore.NewSharded(chunkWidth, shards)}
}

// Name implements Engine.
func (p *Polyglot) Name() string { return "ttdb" }

// SetWorkers implements Engine.
func (p *Polyglot) SetWorkers(n int) { p.workers = n }

// AddStation implements Engine.
func (p *Polyglot) AddStation(name, district string) (StationID, error) {
	id := p.G.CreateNode("Station")
	if err := p.G.SetNodeProp(id, "name", graphstore.StrVal(name)); err != nil {
		return 0, err
	}
	if err := p.G.SetNodeProp(id, "district", graphstore.StrVal(district)); err != nil {
		return 0, err
	}
	return id, nil
}

// AddTrip implements Engine.
func (p *Polyglot) AddTrip(x, y StationID, count int) error {
	rel, err := p.G.CreateRel(x, y, "TRIP")
	if err != nil {
		return err
	}
	return p.G.SetRelProp(rel, "count", graphstore.IntVal(int64(count)))
}

func key(st StationID) tsstore.SeriesKey {
	return tsstore.SeriesKey{Entity: uint32(st), Metric: Metric}
}

// LoadSeries implements Engine: points go to the hypertable, keyed by node.
func (p *Polyglot) LoadSeries(st StationID, s *ts.Series) error {
	p.T.InsertSeries(key(st), s)
	return nil
}

// Q1TimeRange implements Engine.
func (p *Polyglot) Q1TimeRange(st StationID, start, end ts.Time) []ts.Point {
	sw := p.obs.q[0].Start()
	defer sw.Stop()
	return p.T.Range(key(st), start, end)
}

// Q2FilteredRange implements Engine: the value filter is pushed into the
// chunk scan so only matching points are materialized.
func (p *Polyglot) Q2FilteredRange(st StationID, start, end ts.Time, below float64) []ts.Point {
	sw := p.obs.q[1].Start()
	defer sw.Stop()
	var out []ts.Point
	p.T.RangeFunc(key(st), start, end, func(t ts.Time, v float64) {
		if v < below {
			out = append(out, ts.Point{T: t, V: v})
		}
	})
	return out
}

// meanOf is the untimed Q3 body, shared with the Q8 fan-out so composite
// queries don't double-count into Q3's histogram (or pay its timer per item).
func (p *Polyglot) meanOf(st StationID, start, end ts.Time) float64 {
	s := p.T.Aggregate(key(st), start, end)
	if s.Count == 0 {
		return 0
	}
	return s.Mean()
}

// Q3StationMean implements Engine.
func (p *Polyglot) Q3StationMean(st StationID, start, end ts.Time) float64 {
	sw := p.obs.q[2].Start()
	defer sw.Stop()
	return p.meanOf(st, start, end)
}

// shardSummaries fans the metric's per-entity summaries out across the
// worker pool, one whole lock stripe per work item, and merges the parts
// back into hypertable insertion order. Each worker takes a shard's read
// lock exactly once for its whole batch instead of once per station, and
// the merged order makes every downstream fold byte-identical at any worker
// width.
func (p *Polyglot) shardSummaries(start, end ts.Time) []tsstore.EntitySummary {
	parts := make([][]tsstore.EntitySummary, p.T.NumShards())
	p.obs.parallelFor(p.workers, len(parts), func(i int) {
		parts[i] = p.T.AggregateShard(i, Metric, start, end)
	})
	return tsstore.MergeBySeq(parts)
}

// Q4AllStationMeans implements Engine: per-shard summary batches fan out
// across the worker pool, merged in insertion order.
func (p *Polyglot) Q4AllStationMeans(start, end ts.Time) map[StationID]float64 {
	sw := p.obs.q[3].Start()
	defer sw.Stop()
	sums := p.shardSummaries(start, end)
	out := make(map[StationID]float64, len(sums))
	for _, e := range sums {
		if e.Count > 0 {
			out[StationID(e.Entity)] = e.Mean()
		} else {
			out[StationID(e.Entity)] = 0
		}
	}
	return out
}

// Q5DistrictSums implements Engine: aggregation pushdown fans out one lock
// stripe per worker, then the district lookups (graph-store topology) fan
// out per station. The district fold runs sequentially in hypertable
// insertion order, fixing the float accumulation order — sequential and
// parallel runs, and repeated runs of either, all produce bit-identical
// sums (a map-iteration fold would make even two sequential runs differ in
// the last ulp).
func (p *Polyglot) Q5DistrictSums(start, end ts.Time) map[string]float64 {
	sw := p.obs.q[4].Start()
	defer sw.Stop()
	sums := p.shardSummaries(start, end)
	districts := make([]string, len(sums))
	p.obs.parallelFor(p.workers, len(sums), func(i int) {
		districts[i] = "?"
		if v, ok := p.G.NodeProp(StationID(sums[i].Entity), "district"); ok {
			districts[i] = v.S
		}
	})
	out := map[string]float64{}
	for i := range sums {
		out[districts[i]] += sums[i].Sum
	}
	return out
}

// Q6TopKStations implements Engine: summaries fan out like Q4, then one
// deterministic sort ranks the stations (ties by ascending id).
func (p *Polyglot) Q6TopKStations(start, end ts.Time, k int) []StationID {
	sw := p.obs.q[5].Start()
	defer sw.Stop()
	sums := p.shardSummaries(start, end)
	m := make(map[StationID]float64, len(sums))
	for _, e := range sums {
		if e.Count > 0 {
			m[StationID(e.Entity)] = e.Mean()
		}
	}
	return topK(m, k)
}

// Q7Correlation implements Engine: correlation is pushed down into the
// time-series store, the way a TimescaleDB deployment computes corr() in
// SQL instead of shipping points to a client. With a positive bucket both
// sides go through the memoized resample cache (bucket means joined on the
// shared grid, matching ts.Correlation); bucket <= 0 merge-joins raw
// points on exact timestamps.
func (p *Polyglot) Q7Correlation(x, y StationID, start, end, bucket ts.Time) float64 {
	sw := p.obs.q[6].Start()
	defer sw.Stop()
	if bucket > 0 {
		return p.T.CorrelateResampled(key(x), key(y), start, end, bucket)
	}
	return p.T.Correlate(key(x), key(y), start, end)
}

// Downsample returns one station's series resampled to bucket-wide windows
// under agg, served from the hypertable's continuous-aggregate cache: a warm
// window is patched in place per append (write-through deltas), so repeated
// reads under sustained ingest never recompute the whole window. The result
// is element-wise identical to a from-scratch Resample of the raw range.
func (p *Polyglot) Downsample(st StationID, start, end, bucket ts.Time, agg ts.AggFunc) []ts.Point {
	return p.T.Downsample(key(st), start, end, bucket, agg).Points()
}

// Q8NeighborMeans implements Engine: adjacency from the graph store, then
// per-neighbor summary pushdowns on the worker pool.
func (p *Polyglot) Q8NeighborMeans(st StationID, start, end ts.Time) map[StationID]float64 {
	sw := p.obs.q[7].Start()
	defer sw.Stop()
	ns := p.G.Neighbors(st, "TRIP")
	means := make([]float64, len(ns))
	p.obs.parallelFor(p.workers, len(ns), func(i int) {
		means[i] = p.meanOf(ns[i], start, end)
	})
	out := make(map[StationID]float64, len(ns))
	for i, n := range ns {
		out[n] = means[i]
	}
	return out
}

// topK returns the k keys with the largest values, ties by ascending id.
func topK(m map[StationID]float64, k int) []StationID {
	type pair struct {
		id StationID
		v  float64
	}
	ps := make([]pair, 0, len(m))
	for id, v := range m {
		ps = append(ps, pair{id, v})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].v != ps[j].v {
			return ps[i].v > ps[j].v
		}
		return ps[i].id < ps[j].id
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]StationID, k)
	for i := range out {
		out[i] = ps[i].id
	}
	return out
}

// QueryNames lists the Table 1 query ids in order.
var QueryNames = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"}

// Describe returns the human description of a Table 1 query id.
func Describe(q string) string {
	switch q {
	case "Q1":
		return "time-range fetch, one station"
	case "Q2":
		return "filtered range (value threshold), one station"
	case "Q3":
		return "mean over range, one station"
	case "Q4":
		return "mean over range, all stations"
	case "Q5":
		return "sum per district (topology join + aggregation)"
	case "Q6":
		return "top-k stations by mean"
	case "Q7":
		return "correlation of two stations"
	case "Q8":
		return "graph neighbors + per-neighbor mean (hybrid)"
	}
	return fmt.Sprintf("unknown query %s", q)
}
