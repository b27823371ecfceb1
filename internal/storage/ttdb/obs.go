package ttdb

import (
	"context"
	"strings"

	"hygraph/internal/obs"
)

// queryObs holds an engine's preallocated metric handles: one latency
// histogram per operation plus worker-pool fan-out counters. The zero value
// (all nil) is the disabled state — every Start/Stop and increment is a
// nil-check no-op that never reads the clock.
type queryObs struct {
	q      [len(ops)]*obs.Histogram // indexed by Op; "<prefix>.q1".."q8", "<prefix>.downsample"
	fanout *obs.Counter             // parallel fan-outs issued
	items  *obs.Counter             // work items dispatched across fan-outs
	active *obs.Gauge               // in-flight workers; High() = peak fan-out width
}

// newQueryObs builds the handle set under a name prefix ("ttdb" / "neo4j").
func newQueryObs(r *obs.Registry, prefix string) queryObs {
	var o queryObs
	if r == nil {
		return o
	}
	for op := OpQ1; op.valid(); op++ {
		o.q[op] = r.Histogram(prefix + "." + strings.ToLower(op.String()))
	}
	o.fanout = r.Counter(prefix + ".fanout.calls")
	o.items = r.Counter(prefix + ".fanout.items")
	o.active = r.Gauge(prefix + ".fanout.active")
	return o
}

// parallelFor dispatches a cancellable fan-out through the worker pool,
// tracking the in-flight worker count when instrumented.
func (o *queryObs) parallelFor(ctx context.Context, workers, n int, fn func(int)) error {
	if o.active != nil {
		o.fanout.Inc()
		o.items.Add(int64(n))
	}
	return parallelFor(ctx, workers, n, o.active, fn)
}

// Instrument attaches per-query timers and fan-out metrics to the engine and
// cascades to its graph store. Call before the engine is shared across
// goroutines; a nil registry detaches instrumentation.
func (a *AllInGraph) Instrument(r *obs.Registry) {
	a.obs = newQueryObs(r, "neo4j")
	a.G.Instrument(r)
}

// Instrument attaches per-query timers and fan-out metrics to the engine and
// cascades to both stores. Call before the engine is shared across
// goroutines; a nil registry detaches instrumentation.
func (p *Polyglot) Instrument(r *obs.Registry) {
	p.obs = newQueryObs(r, "ttdb")
	p.series = newSeriesObs(r)
	p.G.Instrument(r)
	p.T.Instrument(r)
}

// durObs holds the durable layer's preallocated metric handles: completed
// ingests and degraded-query count. The zero value is the disabled state.
type durObs struct {
	ingests  *obs.Counter // station ingests fully committed
	degraded *obs.Counter // queries answered degraded (ErrDegraded)
}

// Instrument attaches metric handles to the durable layer and cascades to
// the wrapped engine, both stores, and both WALs. Call before the engine is
// shared; a nil registry detaches instrumentation.
func (d *DurablePolyglot) Instrument(r *obs.Registry) {
	d.eng.Instrument(r)
	d.gw.Instrument(r)
	d.tw.Instrument(r)
	if r == nil {
		d.obs = durObs{}
		return
	}
	d.obs = durObs{
		ingests:  r.Counter("ttdb.ingest.stations"),
		degraded: r.Counter("ttdb.queries.degraded"),
	}
}
