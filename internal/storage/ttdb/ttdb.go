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
// Both engines answer the same eight queries Q1–Q8 over a bike-sharing
// network, expressed as one descriptor (Query) run by one method (Exec), so
// the Table 1 harness can time them head-to-head. Q1 is a plain
// time-range probe (the one query the paper shows Neo4j winning), Q2–Q3 add
// filters and single-entity aggregation, and Q4–Q8 aggregate, join, rank and
// correlate across many entities — the regime where all-in-graph storage
// collapses.
package ttdb

import (
	"context"
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

// Engine is the common surface of both storage architectures: loading plus
// the one query method. The mutating methods return errors rather than
// panicking: callers on the library path handle them, and only explicit
// Must* helpers may panic.
type Engine interface {
	// Name identifies the engine in reports ("neo4j-sim" / "ttdb").
	Name() string
	// IngestStation registers a station with its district and its metric
	// series; returns its id.
	IngestStation(name, district string, s *ts.Series) (StationID, error)
	// AddTrip records an aggregated trip edge between two stations.
	AddTrip(a, b StationID, count int) error
	// SetWorkers fixes the fan-out width for the multi-station queries
	// Q4–Q8 (<= 1 selects the sequential path). Results are identical at
	// any width; only wall-clock changes.
	SetWorkers(n int)
	// Instrument attaches metric handles from the registry (per-query
	// timers, fan-out width, store counters). Call before the engine is
	// shared; a nil registry detaches instrumentation. Results are
	// unaffected either way.
	Instrument(r *obs.Registry)

	// Exec answers one query (query.go). The fan-out operations Q4–Q6 and Q8
	// check the context between work items inside the worker pool, so a
	// cancelled caller stops a multi-station scan after at most one
	// in-flight item per worker; the single-entity probes check it on entry
	// and exit, which bounds wasted work by one series scan.
	Querier
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

// IngestStation implements Engine: one property record per observation.
func (a *AllInGraph) IngestStation(name, district string, s *ts.Series) (StationID, error) {
	id, err := addStation(a.G, name, district)
	if err != nil {
		return 0, err
	}
	for i := 0; i < s.Len(); i++ {
		if err := a.G.SetNodeProp(id, pointKey(s.TimeAt(i)), graphstore.FloatVal(s.ValueAt(i))); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// addStation creates a Station node carrying its name and district.
func addStation(g *graphstore.DB, name, district string) (StationID, error) {
	id := g.CreateNode("Station")
	if err := g.SetNodeProp(id, "name", graphstore.StrVal(name)); err != nil {
		return 0, err
	}
	if err := g.SetNodeProp(id, "district", graphstore.StrVal(district)); err != nil {
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

// Exec implements Engine: the entry check, the per-op timer, then one body
// per operation. Composite operations share the untimed bodies (Q7 reads
// through rangePoints, Q4/Q6/Q8 through meanOf), so no query double-counts
// into another's histogram or pays its timer per item.
func (a *AllInGraph) Exec(ctx context.Context, q Query) (Result, error) {
	if err := begin(ctx, q); err != nil {
		return Result{}, err
	}
	sw := a.obs.q[q.Op].Start()
	defer sw.Stop()
	res := Result{Op: q.Op}
	var err error
	switch q.Op {
	case OpQ1:
		res.Points = a.rangePoints(q.Station, q.Start, q.End)
	case OpQ2:
		a.scan(q.Station, q.Start, q.End, func(t ts.Time, v float64) {
			if v < q.Below {
				res.Points = append(res.Points, ts.Point{T: t, V: v})
			}
		})
		sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].T < res.Points[j].T })
	case OpQ3:
		res.Scalar = a.meanOf(q.Station, q.Start, q.End)
	case OpQ4:
		res.ByStation, err = a.meansOf(ctx, a.G.NodesByLabel("Station"), q.Start, q.End)
	case OpQ5:
		res.ByDistrict, err = a.districtSums(ctx, q.Start, q.End)
	case OpQ6:
		var means map[StationID]float64
		means, err = a.meansOf(ctx, a.G.NodesByLabel("Station"), q.Start, q.End)
		res.Stations = TopK(means, q.K)
	case OpQ7:
		sx := ts.FromPoints("x", a.rangePoints(q.Station, q.Start, q.End))
		sy := ts.FromPoints("y", a.rangePoints(q.Other, q.Start, q.End))
		res.Scalar = ts.Correlation(sx, sy, q.Bucket)
	case OpQ8:
		// The graph store answers adjacency, then the per-neighbor chain
		// scans fan out across the worker pool.
		res.ByStation, err = a.meansOf(ctx, a.G.Neighbors(q.Station, "TRIP"), q.Start, q.End)
	case OpDownsample:
		raw := ts.FromPoints(Metric, a.rangePoints(q.Station, q.Start, q.End))
		res.Points = raw.Resample(q.Bucket, q.Agg).Points()
	}
	return finish(ctx, res, err)
}

// rangePoints is the Q1 body: the station's points in the window, in time
// order (the property chain is not).
func (a *AllInGraph) rangePoints(st StationID, start, end ts.Time) []ts.Point {
	var pts []ts.Point
	a.scan(st, start, end, func(t ts.Time, v float64) { pts = append(pts, ts.Point{T: t, V: v}) })
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// meanOf is the Q3 body.
func (a *AllInGraph) meanOf(st StationID, start, end ts.Time) float64 {
	var sum float64
	var n int
	a.scan(st, start, end, func(_ ts.Time, v float64) { sum += v; n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meansOf is the Q4/Q6/Q8 body: the per-station scans are independent, so
// they fan out across the worker pool; the merge folds the result slice in
// station order regardless of width.
func (a *AllInGraph) meansOf(ctx context.Context, stations []StationID, start, end ts.Time) (map[StationID]float64, error) {
	means := make([]float64, len(stations))
	if err := a.obs.parallelFor(ctx, a.workers, len(stations), func(i int) {
		means[i] = a.meanOf(stations[i], start, end)
	}); err != nil {
		return nil, err
	}
	out := make(map[StationID]float64, len(stations))
	for i, st := range stations {
		out[st] = means[i]
	}
	return out, nil
}

// districtSums is the Q5 body. Per-station sums and district lookups run on
// the worker pool; the district fold runs sequentially in station order so
// float accumulation order is fixed.
func (a *AllInGraph) districtSums(ctx context.Context, start, end ts.Time) (map[string]float64, error) {
	stations := a.G.NodesByLabel("Station")
	districts := make([]string, len(stations))
	sums := make([]float64, len(stations))
	if err := a.obs.parallelFor(ctx, a.workers, len(stations), func(i int) {
		districts[i] = "?"
		if v, ok := a.G.NodeProp(stations[i], "district"); ok {
			districts[i] = v.S
		}
		var sum float64
		a.scan(stations[i], start, end, func(_ ts.Time, v float64) { sum += v })
		sums[i] = sum
	}); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i := range stations {
		out[districts[i]] += sums[i]
	}
	return out, nil
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

// Name implements Engine.
func (p *Polyglot) Name() string { return "ttdb" }

// SetWorkers implements Engine.
func (p *Polyglot) SetWorkers(n int) { p.workers = n }

// IngestStation implements Engine: the node goes to the graph store, the
// points to the hypertable, keyed by node.
func (p *Polyglot) IngestStation(name, district string, s *ts.Series) (StationID, error) {
	id, err := addStation(p.G, name, district)
	if err != nil {
		return 0, err
	}
	p.T.InsertSeries(key(id), s)
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

// Exec implements Engine.
func (p *Polyglot) Exec(ctx context.Context, q Query) (Result, error) {
	if err := begin(ctx, q); err != nil {
		return Result{}, err
	}
	return p.run(ctx, q)
}

// run is Exec after the entry check — where the durable layer, which has
// made that check itself, enters. It owns the per-op timer; the bodies below
// are untimed so composite operations (Q8 over meanOf) don't double-count.
func (p *Polyglot) run(ctx context.Context, q Query) (Result, error) {
	sw := p.obs.q[q.Op].Start()
	defer sw.Stop()
	res := Result{Op: q.Op}
	var err error
	switch q.Op {
	case OpQ1:
		res.Points = p.T.Range(key(q.Station), q.Start, q.End)
	case OpQ2:
		// The value filter is pushed into the chunk scan so only matching
		// points are materialized.
		p.T.RangeFunc(key(q.Station), q.Start, q.End, func(t ts.Time, v float64) {
			if v < q.Below {
				res.Points = append(res.Points, ts.Point{T: t, V: v})
			}
		})
	case OpQ3:
		res.Scalar = p.meanOf(q.Station, q.Start, q.End)
	case OpQ4:
		res.ByStation, err = p.allMeans(ctx, q.Start, q.End, true)
	case OpQ5:
		res.ByDistrict, err = p.districtSums(ctx, q.Start, q.End)
	case OpQ6:
		// Summaries fan out like Q4 (stations without samples don't rank),
		// then one deterministic sort (ties by ascending id).
		var means map[StationID]float64
		means, err = p.allMeans(ctx, q.Start, q.End, false)
		res.Stations = TopK(means, q.K)
	case OpQ7:
		// Correlation is pushed down into the time-series store, the way a
		// TimescaleDB deployment computes corr() in SQL instead of shipping
		// points to a client. With a positive bucket both sides are
		// downsampled in the store (bucket means joined on the shared grid,
		// matching ts.Correlation); bucket <= 0 merge-joins raw points on
		// exact timestamps.
		if q.Bucket > 0 {
			res.Scalar = p.T.CorrelateResampled(key(q.Station), key(q.Other), q.Start, q.End, q.Bucket)
		} else {
			res.Scalar = p.T.Correlate(key(q.Station), key(q.Other), q.Start, q.End)
		}
	case OpQ8:
		res.ByStation, err = p.neighborMeans(ctx, q.Station, q.Start, q.End)
	case OpDownsample:
		// Folded bucket by bucket from the hypertable's chunk scan; the
		// result is element-wise identical to a Resample of the raw range.
		res.Points = p.T.Downsample(key(q.Station), q.Start, q.End, q.Bucket, q.Agg).Points()
	}
	return finish(ctx, res, err)
}

// meanOf is the Q3 body, shared with the Q8 fan-out.
func (p *Polyglot) meanOf(st StationID, start, end ts.Time) float64 {
	s := p.T.Aggregate(key(st), start, end)
	if s.Count == 0 {
		return 0
	}
	return s.Mean()
}

// shardSummaries fans the metric's per-entity summaries out across the
// worker pool, one whole lock stripe per work item, and merges the parts
// back into hypertable insertion order. Each worker takes a shard's read
// lock exactly once for its whole batch instead of once per station, and
// the merged order makes every downstream fold byte-identical at any worker
// width. On cancellation the partial parts are discarded.
func (p *Polyglot) shardSummaries(ctx context.Context, start, end ts.Time) ([]tsstore.EntitySummary, error) {
	parts := make([][]tsstore.EntitySummary, p.T.NumShards())
	if err := p.obs.parallelFor(ctx, p.workers, len(parts), func(i int) {
		parts[i] = p.T.AggregateShard(i, Metric, start, end)
	}); err != nil {
		return nil, err
	}
	return tsstore.MergeBySeq(parts), nil
}

// allMeans is the Q4/Q6 body: per-shard summary batches fan out across the
// worker pool, merged in insertion order. A station without samples in the
// window has mean 0 when withEmpty, and is left out otherwise.
func (p *Polyglot) allMeans(ctx context.Context, start, end ts.Time, withEmpty bool) (map[StationID]float64, error) {
	sums, err := p.shardSummaries(ctx, start, end)
	if err != nil {
		return nil, err
	}
	out := make(map[StationID]float64, len(sums))
	for _, e := range sums {
		if e.Count > 0 {
			out[StationID(e.Entity)] = e.Mean()
		} else if withEmpty {
			out[StationID(e.Entity)] = 0
		}
	}
	return out, nil
}

// districtSums is the Q5 body: aggregation pushdown fans out one lock stripe
// per worker, then the district lookups (graph-store topology) fan out per
// station. The district fold runs sequentially in hypertable insertion
// order, fixing the float accumulation order — sequential and parallel runs,
// and repeated runs of either, all produce bit-identical sums (a
// map-iteration fold would make even two sequential runs differ in the last
// ulp).
func (p *Polyglot) districtSums(ctx context.Context, start, end ts.Time) (map[string]float64, error) {
	sums, err := p.shardSummaries(ctx, start, end)
	if err != nil {
		return nil, err
	}
	districts := make([]string, len(sums))
	if err := p.obs.parallelFor(ctx, p.workers, len(sums), func(i int) {
		districts[i] = p.district(StationID(sums[i].Entity))
	}); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i := range sums {
		out[districts[i]] += sums[i].Sum
	}
	return out, nil
}

// district reads a station's district from the graph store ("?" when unset).
func (p *Polyglot) district(st StationID) string {
	if v, ok := p.G.NodeProp(st, "district"); ok {
		return v.S
	}
	return "?"
}

// neighborMeans is the Q8 body: adjacency from the graph store, then
// per-neighbor summary pushdowns on the worker pool.
func (p *Polyglot) neighborMeans(ctx context.Context, st StationID, start, end ts.Time) (map[StationID]float64, error) {
	ns := p.G.Neighbors(st, "TRIP")
	means := make([]float64, len(ns))
	if err := p.obs.parallelFor(ctx, p.workers, len(ns), func(i int) {
		means[i] = p.meanOf(ns[i], start, end)
	}); err != nil {
		return nil, err
	}
	out := make(map[StationID]float64, len(ns))
	for i, n := range ns {
		out[n] = means[i]
	}
	return out, nil
}

// TopK returns the k keys with the largest values, ties by ascending id —
// the Q6 ranking rule, shared with the coordinator's merge.
func TopK(m map[StationID]float64, k int) []StationID {
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
