// The example's ingestion layer — the paper's requirement R3 (timeliness):
// a HyGraph instance must absorb high-velocity updates — new observations,
// stale-value replacements and structural changes — without rebuilds, and
// support continuous (windowed) evaluation over the arriving data, in the
// spirit of the property-graph-stream systems the paper cites (Seraph).

package main

import (
	"errors"
	"fmt"

	"hygraph/internal/core"
	"hygraph/internal/hyql"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// Update is one streamed event. Exactly one Kind-dependent field group is
// used.
type Update struct {
	Kind UpdateKind
	At   ts.Time

	// Append / Upsert: a new observation for a TS element.
	Vertex core.VID
	Edge   core.EID
	OnEdge bool // target the Edge instead of the Vertex
	Value  float64

	// AddEdge: a structural change.
	From, To core.VID
	Label    string

	// EndEdge closes Edge's validity at At.
}

// UpdateKind enumerates streamed event types.
type UpdateKind int

// Supported event kinds.
const (
	Append UpdateKind = iota // strictly newer observation
	Upsert                   // replace-or-insert (stale data replacement)
	AddEdge
	EndEdge
)

// Stats counts applied events.
type Stats struct {
	Appended, Upserted, EdgesAdded, EdgesEnded, Errors int
}

// Ingestor applies updates to a HyGraph instance and drives continuous
// queries as event time advances.
type Ingestor struct {
	H     *core.HyGraph
	stats Stats
	conts []*Continuous
	now   ts.Time
}

// NewIngestor wraps an instance.
func NewIngestor(h *core.HyGraph) *Ingestor { return &Ingestor{H: h} }

// Stats returns the event counters so far.
func (in *Ingestor) Stats() Stats { return in.stats }

// errNoSeries signals appends to elements without a series payload.
var errNoSeries = errors.New("stream: element has no series")

// Apply applies one update, then evaluates every continuous query whose
// window closed. Unknown targets and out-of-order appends count as Errors
// but do not stop the stream (at-least-once sources re-deliver). The
// returned error joins the update's own error with any window evaluation
// that failed.
func (in *Ingestor) Apply(u Update) error {
	if u.At > in.now {
		in.now = u.At
	}
	err := in.apply(u)
	if err != nil {
		in.stats.Errors++
	}
	for _, c := range in.conts {
		err = errors.Join(err, c.advance(in.now))
	}
	return err
}

func (in *Ingestor) apply(u Update) error {
	switch u.Kind {
	case Append, Upsert:
		m, err := in.targetSeries(u)
		if err != nil {
			return err
		}
		if m.Arity() != 1 {
			return fmt.Errorf("stream: element carries a %d-variate series; scalar updates need arity 1", m.Arity())
		}
		if u.Kind == Append {
			if err := m.Append(u.At, u.Value); err != nil {
				return err
			}
			in.stats.Appended++
		} else {
			if err := m.Upsert(u.At, u.Value); err != nil {
				return err
			}
			in.stats.Upserted++
		}
		// Series mutation bypasses the instance API; stamp it stale so
		// cached query views refresh.
		in.H.InvalidateViews()
		return nil
	case AddEdge:
		if _, err := in.H.AddEdge(u.From, u.To, u.Label, tpg.From(u.At)); err != nil {
			return err
		}
		in.stats.EdgesAdded++
		return nil
	case EndEdge:
		e := in.H.Edge(u.Edge)
		if e == nil {
			return core.ErrNoEdge
		}
		if u.At < e.Valid.Start {
			return fmt.Errorf("stream: EndEdge at %v before start %v", u.At, e.Valid.Start)
		}
		if u.At < e.Valid.End {
			e.Valid.End = u.At
		}
		in.H.InvalidateViews()
		in.stats.EdgesEnded++
		return nil
	}
	return fmt.Errorf("stream: unknown update kind %d", u.Kind)
}

// targetSeries resolves the target element's mutable series. Mutating the
// stored series in place is the whole point: no copies, no rebuilds (R3).
func (in *Ingestor) targetSeries(u Update) (*ts.MultiSeries, error) {
	var m *ts.MultiSeries
	if u.OnEdge {
		e := in.H.Edge(u.Edge)
		if e == nil {
			return nil, core.ErrNoEdge
		}
		m = e.Series
	} else {
		v := in.H.Vertex(u.Vertex)
		if v == nil {
			return nil, core.ErrNoVertex
		}
		m = v.Series
	}
	if m == nil {
		return nil, errNoSeries
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Continuous queries.

// Continuous re-evaluates a HyQL query every Slide of event time, as of the
// window end — a tumbling/hopping window in the RSP sense, but over the full
// hybrid model rather than triple streams.
type Continuous struct {
	Query string
	Slide ts.Time
	// Emit receives each evaluation: the window-end instant and the result.
	Emit func(at ts.Time, res *hyql.Result)

	parsed  *hyql.Query
	engine  *hyql.Engine
	nextDue ts.Time
	fires   int
}

// Register attaches a continuous query; the first evaluation fires once
// event time reaches start+Slide.
func (in *Ingestor) Register(c *Continuous, start ts.Time) error {
	if c.Slide <= 0 {
		return fmt.Errorf("stream: slide must be positive")
	}
	q, err := hyql.Parse(c.Query)
	if err != nil {
		return err
	}
	c.parsed = q
	c.engine = hyql.NewEngine(in.H)
	c.nextDue = start + c.Slide
	in.conts = append(in.conts, c)
	return nil
}

// Fires returns how many window evaluations succeeded.
func (c *Continuous) Fires() int { return c.fires }

// advance evaluates every window that closed before now. A failed
// evaluation is neither emitted nor counted as a fire; its error is
// returned and later windows still run.
func (c *Continuous) advance(now ts.Time) error {
	// Watermark semantics: a window [p, at) closes when event time moves
	// strictly past `at`, so events stamped exactly at the boundary have all
	// been applied. Evaluation happens at the last instant inside the
	// window (at-1): TS elements are valid only through their newest
	// observation, so a snapshot exactly at the boundary would exclude
	// every series whose latest point predates it.
	var errs []error
	for c.nextDue < now {
		at := c.nextDue
		c.nextDue += c.Slide
		res, err := c.engine.Exec(c.parsed, at-1)
		if err != nil {
			errs = append(errs, fmt.Errorf("stream: window %v: %w", at, err))
			continue
		}
		c.fires++
		if c.Emit != nil {
			c.Emit(at, res)
		}
	}
	return errors.Join(errs...)
}
