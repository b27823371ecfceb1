package hyql

import "hygraph/internal/obs"

// engineObs holds the engine's preallocated metric handles: per-clause
// latency histograms and pushdown-attachment counters. The zero value (all
// nil) is the disabled state — every Start/Stop and increment is a
// nil-check no-op that never reads the clock.
type engineObs struct {
	parse   *obs.Histogram // source text -> AST
	match   *obs.Histogram // MATCH pattern enumeration
	where   *obs.Histogram // post-match WHERE filter pass
	with    *obs.Histogram // WITH re-projection stage
	project *obs.Histogram // RETURN projection (incl. grouping/DISTINCT)
	order   *obs.Histogram // ORDER BY + LIMIT

	pushNode *obs.Counter // WHERE conjuncts pushed onto pattern vertices
	pushEdge *obs.Counter // WHERE conjuncts pushed onto pattern edges
	anchored *obs.Counter // pattern vertices seeded from the string index

	rebuilds  *obs.Counter // Views built, one per source version queried
	spanScans *obs.Counter // View.GraphAt calls that read spans
}

// Instrument attaches metric handles to the engine; a nil registry detaches
// instrumentation. It is not synchronized with queries: call it before
// issuing any, never while one runs. It drops the View, so the next one is
// built counting on the new handles.
func (e *Engine) Instrument(r *obs.Registry) {
	e.view.Store(nil)
	if r == nil {
		e.obs = engineObs{}
		return
	}
	e.obs = engineObs{
		parse:    r.Histogram("hyql.clause.parse"),
		match:    r.Histogram("hyql.clause.match"),
		where:    r.Histogram("hyql.clause.where"),
		with:     r.Histogram("hyql.clause.with"),
		project:  r.Histogram("hyql.clause.return"),
		order:    r.Histogram("hyql.clause.order"),
		pushNode: r.Counter("hyql.pushdown.node_conjuncts"),
		pushEdge: r.Counter("hyql.pushdown.edge_conjuncts"),
		anchored: r.Counter("hyql.match.anchored"),

		rebuilds:  r.Counter("hyql.view.structural_rebuilds"),
		spanScans: r.Counter("hyql.view.span_scans"),
	}
}
