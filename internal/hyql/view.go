package hyql

import (
	"math"
	"slices"
	"sync/atomic"

	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// View selects from one version of a Source's structure the graph a query
// at an instant matches: the structure minus every vertex and edge not
// valid at the instant, and minus the edges touching a hidden vertex. A TS
// element (one whose `_series` holds a series) is valid from its first
// sample to its last, any other over its ρ when the source gives one.
//
// The structure graph is immutable, so a View lives as long as the version
// it was built from: the Engine replaces it when the source's version moves,
// never when a series gains a sample. When nothing is hidden — the steady
// state of a live dataset queried "as of" now — the structure graph is
// returned as is.
type View struct {
	g       *lpg.Graph
	version uint64    // the source's version g was read at
	elems   []element // vertices, then edges, each by ascending id
	// valid is [max first, min last] of the spans GraphAt last read, when
	// every element had one. Within a version a span only widens — an
	// append moves its last sample later, a backfill its first earlier, and
	// ρ stays — so every element is still valid inside it: GraphAt answers
	// such an instant with the structure graph and no Span call.
	valid atomic.Pointer[[2]ts.Time]
	// last memoises the most recent projection that hid something, keyed by
	// exactly which vertices and edges it hid.
	last  atomic.Pointer[projection]
	scans *obs.Counter // GraphAt calls that read spans
}

// element is one vertex or edge whose validity can miss an instant.
type element struct {
	edge bool
	id   int64
	span spanner
}

// spanner gives the first and last instants an element is valid at.
type spanner interface {
	Span() (first, last ts.Time, ok bool)
}

// rho is a PG element's ρ, [start, end), as the closed span [start, end-1].
type rho tpg.Interval

func (r rho) Span() (ts.Time, ts.Time, bool) { return r.Start, r.End - 1, r.Start < r.End }

// multiSpan is the span of a series held inline as a multiseries.
type multiSpan struct{ m *ts.MultiSeries }

func (s multiSpan) Span() (ts.Time, ts.Time, bool) { return s.m.Start(), s.m.End(), s.m.Len() > 0 }

type projection struct {
	hiddenV []lpg.VertexID
	hiddenE []lpg.EdgeID
	g       *lpg.Graph
}

// NewView wraps a structure graph, which must not be modified afterwards,
// and ρ by id, and indexes its string properties for anchored queries.
func NewView(g *lpg.Graph, vertexRho, edgeRho []tpg.Interval) *View {
	g.IndexStrings()
	v := &View{g: g}
	g.Vertices(func(x *lpg.Vertex) bool {
		if s := spanOf(x.Prop("_series"), vertexRho, int(x.ID)); s != nil {
			v.elems = append(v.elems, element{id: int64(x.ID), span: s})
		}
		return true
	})
	g.Edges(func(x *lpg.Edge) bool {
		if s := spanOf(x.Prop("_series"), edgeRho, int(x.ID)); s != nil {
			v.elems = append(v.elems, element{edge: true, id: int64(x.ID), span: s})
		}
		return true
	})
	return v
}

// spanOf is the validity of element id: its series' span when series holds
// one, else its ρ when rhos covers it, else nil (always valid).
func spanOf(series lpg.Value, rhos []tpg.Interval, id int) spanner {
	if m, ok := series.AsMulti(); ok {
		return multiSpan{m}
	}
	if r, ok := series.AsSeriesRef(); ok {
		if s, ok := r.(Series); ok {
			return s
		}
	} else if id < len(rhos) {
		return rho(rhos[id])
	}
	return nil
}

// GraphAt is the structure minus the elements not valid at the instant,
// numbered as if they had never been there.
func (v *View) GraphAt(at ts.Time) *lpg.Graph {
	if w := v.valid.Load(); w != nil && w[0] <= at && at <= w[1] {
		return v.g
	}
	v.scans.Inc()
	var hiddenV []lpg.VertexID
	var hiddenE []lpg.EdgeID
	w, all := [2]ts.Time{math.MinInt64, math.MaxInt64}, true
	for _, el := range v.elems {
		first, last, ok := el.span.Span()
		all = all && ok
		w = [2]ts.Time{max(w[0], first), min(w[1], last)}
		switch {
		case ok && first <= at && at <= last:
		case el.edge:
			hiddenE = append(hiddenE, lpg.EdgeID(el.id))
		default:
			hiddenV = append(hiddenV, lpg.VertexID(el.id))
		}
	}
	if all && w[0] <= w[1] {
		v.valid.Store(&w)
	}
	if len(hiddenV) == 0 && len(hiddenE) == 0 {
		return v.g
	}
	if p := v.last.Load(); p != nil && slices.Equal(p.hiddenV, hiddenV) && slices.Equal(p.hiddenE, hiddenE) {
		return p.g
	}
	g, _, _ := v.g.Without(hiddenV, hiddenE)
	g.IndexStrings()
	v.last.Store(&projection{hiddenV: hiddenV, hiddenE: hiddenE, g: g})
	return g
}
