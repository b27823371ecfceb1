// Package obs is the engine's stdlib-only observability layer: atomic
// counters, high-watermark gauges, exponential-bucket latency histograms,
// span-style timed regions with parent/child nesting, and a JSON-serializable
// snapshot of everything. It exists so the polyglot engine can attribute time
// to graph-store vs ts-store vs WAL vs resample-cache instead of reporting a
// single end-to-end number (docs/OBSERVABILITY.md).
//
// Two properties shape the design:
//
//   - Allocation-light hot path. Instrumented code holds preallocated
//     *Counter/*Gauge/*Histogram handles obtained once from a Registry; a
//     point increment is a single atomic add with no map lookup and no
//     allocation.
//
//   - Zero overhead when disabled. Every handle method is nil-safe: code
//     instrumented against a nil Registry gets nil handles, and Inc/Add/
//     Observe/Start/Stop on nil handles are cheap no-ops that never read the
//     clock. Stores that were never Instrument()ed pay only a nil check.
//
// All mutating methods on handles are safe for concurrent use. Registry
// lookups take a mutex but are meant for setup, not the hot path.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks an instantaneous level plus its high watermark — e.g. the
// number of in-flight worker-pool items and the peak fan-out width reached.
// A nil *Gauge is a no-op sink.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Add moves the level by delta and updates the high watermark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	cur := g.v.Add(delta)
	for {
		h := g.high.Load()
		if cur <= h || g.high.CompareAndSwap(h, cur) {
			return
		}
	}
}

// Set forces the level to v and updates the high watermark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the high watermark (0 on a nil receiver).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// numBuckets covers 1µs..~34s in powers of two, with a final overflow bucket.
const numBuckets = 26

// bucketFloorNS is the lower bound of bucket i in nanoseconds: 1µs << i.
// Bucket 0 also absorbs everything below 1µs.
func bucketFloorNS(i int) int64 { return 1000 << uint(i) }

// bucketIndex maps a duration in ns to its histogram bucket.
func bucketIndex(ns int64) int {
	if ns < 1000 {
		return 0
	}
	i := bits.Len64(uint64(ns/1000)) - 1
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram is a fixed-size exponential-bucket latency histogram. All fields
// are atomics, so concurrent Observe calls never contend on a lock. A nil
// *Histogram is a no-op sink whose Start never reads the clock.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		m := h.maxNS.Load()
		if ns <= m || h.maxNS.CompareAndSwap(m, ns) {
			break
		}
	}
	h.buckets[bucketIndex(ns)].Add(1)
}

// Stopwatch times one region for a Histogram. The zero value (and the value
// returned by a nil Histogram's Start) is inert: Stop returns 0 without
// touching the clock, which is the zero-overhead disabled path.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing a region. On a nil receiver it returns an inert
// Stopwatch and does not read the clock.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()}
}

// Stop records the elapsed time and returns it (0 when inert).
func (sw Stopwatch) Stop() time.Duration {
	if sw.h == nil {
		return 0
	}
	d := time.Since(sw.t0)
	sw.h.Observe(d)
	return d
}

// Registry is a named collection of metric handles. Lookups are idempotent:
// asking for the same name twice returns the same handle, so independent
// components can share a counter. A nil *Registry hands out nil handles,
// which is how instrumentation is disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *Tracer
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		tracer:   newTracer(),
	}
}

// Counter returns the named counter handle, creating it on first use.
// Returns nil on a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge handle, creating it on first use. Returns
// nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram handle, creating it on first
// use. Returns nil on a nil receiver.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's span tracer (nil on a nil receiver).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// GaugeStat is the snapshot of one gauge.
type GaugeStat struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// HistStat is the snapshot of one latency histogram. P50/P99 are upper-bound
// estimates from the exponential buckets, reported in milliseconds.
type HistStat struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MaxNS   int64   `json:"max_ns"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// Snapshot is a point-in-time, JSON-serializable view of a Registry.
type Snapshot struct {
	Counters  map[string]int64     `json:"counters,omitempty"`
	Gauges    map[string]GaugeStat `json:"gauges,omitempty"`
	Durations map[string]HistStat  `json:"durations,omitempty"`
	Trace     *TraceSnapshot       `json:"trace,omitempty"`
}

// Snapshot captures every registered metric. Safe to call concurrently with
// hot-path updates (values are read atomically, so a snapshot taken mid-run
// is a consistent-enough view: each individual value is exact at its own read
// time). On a nil receiver it returns an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	tr := r.tracer
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for name, c := range counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]GaugeStat, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = GaugeStat{Value: g.Value(), High: g.High()}
		}
	}
	if len(hists) > 0 {
		s.Durations = make(map[string]HistStat, len(hists))
		for name, h := range hists {
			s.Durations[name] = h.stat()
		}
	}
	if t := tr.Snapshot(); t != nil {
		s.Trace = t
	}
	return s
}

// stat reduces a histogram to its snapshot form.
func (h *Histogram) stat() HistStat {
	st := HistStat{
		Count:   h.count.Load(),
		TotalNS: h.sumNS.Load(),
		MaxNS:   h.maxNS.Load(),
	}
	if st.Count > 0 {
		st.MeanMS = float64(st.TotalNS) / float64(st.Count) / 1e6
		var counts [numBuckets]int64
		var total int64
		for i := range h.buckets {
			counts[i] = h.buckets[i].Load()
			total += counts[i]
		}
		st.P50MS = quantileMS(counts[:], total, 0.50)
		st.P99MS = quantileMS(counts[:], total, 0.99)
	}
	return st
}

// quantileMS returns the upper bound (in ms) of the bucket containing the
// q-quantile observation.
func quantileMS(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum > rank {
			// Upper bound of bucket i is the floor of bucket i+1.
			return float64(bucketFloorNS(i+1)) / 1e6
		}
	}
	return float64(bucketFloorNS(len(counts))) / 1e6
}
