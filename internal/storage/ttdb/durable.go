package ttdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/ts"
)

// Fault points consulted by the durable polyglot layer (see internal/faults).
const (
	// FaultIngestGraph fires before the graph-store side of an ingest.
	FaultIngestGraph = "ttdb.ingest.graph"
	// FaultIngestTS fires before the time-series side of an ingest — i.e.
	// between the two stores' writes, the classic half-committed crash.
	FaultIngestTS = "ttdb.ingest.ts"
	// FaultQueryTS fires when a query touches the time-series store,
	// simulating the TS backend being unreachable.
	FaultQueryTS = "ttdb.query.ts"
)

// ErrDegraded marks a query answered without the time-series store. Callers
// get the graph-derivable part of the result and errors.Is(err, ErrDegraded)
// reports true.
var ErrDegraded = errors.New("ttdb: time-series store unavailable")

// DegradedError carries which query degraded and why. It unwraps to both
// ErrDegraded and the underlying cause.
type DegradedError struct {
	Query string
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("ttdb: %s degraded (ts store unavailable): %v", e.Query, e.Cause)
}

// Unwrap lets errors.Is match ErrDegraded and the cause alike.
func (e *DegradedError) Unwrap() []error { return []error{ErrDegraded, e.Cause} }

// RetryPolicy bounds how the durable layer retries transient storage errors
// (faults.IsTransient). Exponential backoff: BaseDelay, 2x, 4x, ...
type RetryPolicy struct {
	MaxAttempts int           // total attempts; <= 1 means no retry
	BaseDelay   time.Duration // sleep before the first retry; 0 skips sleeping
}

// DefaultRetry is tuned for tests: a few fast attempts.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}

// run invokes op, retrying transient failures per the policy. Permanent
// errors and exhausted retries return the last error.
func (r RetryPolicy) run(op func() error) error {
	attempts := r.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	delay := r.BaseDelay
	for i := 0; ; i++ {
		err := op()
		if err == nil || !faults.IsTransient(err) || i+1 >= attempts {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
			delay *= 2
		}
	}
}

// DurablePolyglot wraps a Polyglot engine with a write-ahead log on each
// store. A station ingest writes the graph side and flushes it, then writes
// the series as one atomic batch record: that series write is the commit.
// A delete removes the node first and the series second. So a crash between
// the two stores' writes leaves a Station node without a series or a series
// without a Station node, and RecoverPolyglot removes either: after a crash
// at any point every station has both its node and its series or neither.
type DurablePolyglot struct {
	eng *Polyglot
	gw  *graphstore.WAL
	tw  *tsstore.WAL

	// Retry bounds transient-error retries on every storage operation.
	Retry RetryPolicy

	tsErr errBox // last permanent TS-side failure; non-nil degrades queries

	obs durObs // metric handles; zero value = instrumentation off
}

// errBox is a mutex-guarded error slot, the concurrency-safe form of the
// degraded-mode latch: ingest clients store into it while query clients read.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.err = err
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// NewDurable returns an empty durable engine logging to the two writers
// (graph WAL, time-series WAL).
func NewDurable(chunkWidth ts.Time, graphLog, tsLog io.Writer) *DurablePolyglot {
	return ResumeDurable(NewPolyglot(chunkWidth), graphLog, tsLog)
}

// ResumeDurable wraps an existing engine (typically the result of
// RecoverPolyglot) with logs that continue the ones it was recovered from.
func ResumeDurable(eng *Polyglot, graphLog, tsLog io.Writer) *DurablePolyglot {
	return &DurablePolyglot{
		eng:   eng,
		gw:    graphstore.NewWAL(eng.G, graphLog),
		tw:    tsstore.NewWAL(eng.T, tsLog),
		Retry: DefaultRetry,
	}
}

// Engine exposes the wrapped engine for direct (non-durable) reads.
func (d *DurablePolyglot) Engine() *Polyglot { return d.eng }

// SetWorkers sets the Q4–Q8 fan-out width of the wrapped engine. Since the
// move to explicit id reservation (AllocNodeID) and group-committed logs,
// ingest is concurrency-safe too: any number of IngestStation/AppendPoint
// clients may run alongside queries — see docs/PARALLELISM.md.
func (d *DurablePolyglot) SetWorkers(n int) { d.eng.SetWorkers(n) }

// graphSide writes the station node and its properties, then flushes. The
// closure is safe to retry: CreateNodeAt is guarded by NodeExists on the
// reserved id and property sets are upserts, so a transient failure at any
// point re-runs without duplicating state.
func (d *DurablePolyglot) graphSide(node StationID, name, district string) error {
	return d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if !d.eng.G.NodeExists(node) {
			if err := d.gw.CreateNodeAt(node, "Station"); err != nil {
				return err
			}
		}
		if err := d.gw.SetNodeProp(node, "name", graphstore.StrVal(name)); err != nil {
			return err
		}
		if err := d.gw.SetNodeProp(node, "district", graphstore.StrVal(district)); err != nil {
			return err
		}
		return d.gw.Flush()
	})
}

// tsSide writes the station's series, then flushes. InsertSeries upserts on
// duplicate timestamps, so retrying after a transient flush failure is
// idempotent in the recovered state.
func (d *DurablePolyglot) tsSide(node StationID, s *ts.Series) error {
	return d.Retry.run(func() error {
		if err := faults.Check(FaultIngestTS); err != nil {
			return err
		}
		if err := d.tw.InsertSeries(key(node), s); err != nil {
			return err
		}
		return d.tw.Flush()
	})
}

// IngestStation atomically adds a station and its series across both
// stores: the graph side is durable before the series is written, and the
// series write is the commit. A crash before it leaves a Station node with
// no series, which RecoverPolyglot removes. An empty series is rejected
// before anything is written, since it would leave exactly that node. On a
// permanent error the in-memory state may be half-applied — exactly the
// state a crash leaves on disk — and RecoverPolyglot over the written logs
// restores consistency; this mirrors how a real engine treats an
// unrecoverable storage fault as fail-stop.
func (d *DurablePolyglot) IngestStation(name, district string, s *ts.Series) (StationID, error) {
	if s == nil || s.Empty() {
		return 0, fmt.Errorf("ttdb: station %q has an empty series", name)
	}
	node := d.eng.G.AllocNodeID()
	if err := d.graphSide(node, name, district); err != nil {
		return 0, fmt.Errorf("ttdb: ingest of node %d: graph write: %w", node, err)
	}
	if err := d.tsSide(node, s); err != nil {
		d.tsErr.set(err)
		return 0, fmt.Errorf("ttdb: ingest of node %d: ts write: %w", node, err)
	}
	d.tsErr.set(nil)
	d.obs.ingests.Inc()
	return node, nil
}

// AddTrip durably records a trip edge. Trips touch only the graph store, so
// the graph WAL alone makes them atomic.
func (d *DurablePolyglot) AddTrip(a, b StationID, count int) error {
	var rel graphstore.RelID
	created := false
	return d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if !created {
			r, err := d.gw.CreateRel(a, b, "TRIP")
			if err != nil {
				return err
			}
			rel, created = r, true
		}
		if err := d.gw.SetRelProp(rel, "count", graphstore.IntVal(int64(count))); err != nil {
			return err
		}
		return d.gw.Flush()
	})
}

// DeleteStation removes a station from both stores: the graph node first,
// then the series. A crash between the two leaves a series with no Station
// node, which RecoverPolyglot removes, so a delete whose graph write reached
// disk completes on recovery and one whose graph write did not leaves the
// station whole. Incident relationships go with the node; deleting an
// absent station is a durable no-op.
func (d *DurablePolyglot) DeleteStation(st StationID) error {
	err := d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if d.eng.G.NodeExists(st) {
			if err := d.gw.DeleteNode(st); err != nil {
				return err
			}
		}
		return d.gw.Flush()
	})
	if err != nil {
		return fmt.Errorf("ttdb: delete of node %d: graph write: %w", st, err)
	}
	err = d.Retry.run(func() error {
		if err := faults.Check(FaultIngestTS); err != nil {
			return err
		}
		if err := d.tw.DeleteSeries(key(st)); err != nil {
			return err
		}
		return d.tw.Flush()
	})
	if err != nil {
		d.tsErr.set(err)
		return fmt.Errorf("ttdb: delete of node %d: ts write: %w", st, err)
	}
	d.tsErr.set(nil)
	return nil
}

// AddBoundary durably creates a boundary vertex: a graph-only replica of a
// station owned by another partition, labeled "Boundary" so the Station-keyed
// invariants (CheckConsistency, Q4–Q6 enumeration, recovery's repair) never
// see it. The global id it mirrors is recorded as the "gid" property so a
// partition is self-describing on reopen. Boundary vertices have no series,
// so the graph WAL alone makes the write durable, and a crash between node
// and property leaves an orphan the reconstruction path skips.
func (d *DurablePolyglot) AddBoundary(gid uint64) (StationID, error) {
	node := d.eng.G.AllocNodeID()
	err := d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if !d.eng.G.NodeExists(node) {
			if err := d.gw.CreateNodeAt(node, "Boundary"); err != nil {
				return err
			}
		}
		if err := d.gw.SetNodeProp(node, "gid", graphstore.IntVal(int64(gid))); err != nil {
			return err
		}
		return d.gw.Flush()
	})
	if err != nil {
		return 0, fmt.Errorf("ttdb: add boundary: %w", err)
	}
	return node, nil
}

// DeleteBoundary durably removes a boundary vertex and its incident edges.
// Graph-only, idempotent.
func (d *DurablePolyglot) DeleteBoundary(st StationID) error {
	return d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if d.eng.G.NodeExists(st) {
			if err := d.gw.DeleteNode(st); err != nil {
				return err
			}
		}
		return d.gw.Flush()
	})
}

// TagStation durably records a station's coordinator-global id as the "gid"
// node property, making a partition self-describing for reconstruction
// (coord.Attach reads it back on reopen).
func (d *DurablePolyglot) TagStation(st StationID, gid uint64) error {
	return d.Retry.run(func() error {
		if err := faults.Check(FaultIngestGraph); err != nil {
			return err
		}
		if err := d.gw.SetNodeProp(st, "gid", graphstore.IntVal(int64(gid))); err != nil {
			return err
		}
		return d.gw.Flush()
	})
}

// AppendPoint durably appends one observation to an existing station's
// series — the streaming-ingest op of the mixed read/write workload. It
// touches only the time-series store (the station's node and series already
// exist, so the cross-store invariant holds throughout), which makes the
// TS WAL alone sufficient, and concurrent appends coalesce into shared
// group-commit flushes.
func (d *DurablePolyglot) AppendPoint(st StationID, t ts.Time, v float64) error {
	err := d.Retry.run(func() error {
		if err := faults.Check(FaultIngestTS); err != nil {
			return err
		}
		if err := d.tw.Insert(key(st), t, v); err != nil {
			return err
		}
		// Commit, not Flush: concurrent appenders ride each other's flushes
		// instead of each forcing a physical one.
		return d.tw.Commit()
	})
	if err != nil {
		d.tsErr.set(err)
		return fmt.Errorf("ttdb: append point: %w", err)
	}
	return nil
}

// tsCheck reports whether the time-series store is usable for query q,
// returning a DegradedError otherwise.
func (d *DurablePolyglot) tsCheck(q string) error {
	err := faults.Check(FaultQueryTS)
	if err == nil {
		err = d.tsErr.get()
	}
	if err == nil {
		return nil
	}
	d.obs.degraded.Inc()
	return &DegradedError{Query: q, Cause: err}
}

// Exec is the wrapped engine's Exec under the degraded-mode contract. A done
// context wins over everything (the caller's budget is spent, so not even a
// partial is computed). With the time-series store unavailable the answer is
// the part the graph store alone can derive, beside an error matching
// ErrDegraded: Q4 still enumerates the stations, Q5 the districts and Q8 the
// neighbors, all with zero aggregates; the other operations need the series
// and answer nothing.
func (d *DurablePolyglot) Exec(ctx context.Context, q Query) (Result, error) {
	if err := begin(ctx, q); err != nil {
		return Result{}, err
	}
	derr := d.tsCheck(q.Op.String())
	if derr == nil {
		return d.eng.run(ctx, q)
	}
	res := Result{Op: q.Op}
	switch q.Op {
	case OpQ4:
		res.ByStation = zeroMeans(d.eng.G.NodesByLabel("Station"))
	case OpQ5:
		res.ByDistrict = map[string]float64{}
		for _, st := range d.eng.G.NodesByLabel("Station") {
			// The partition walks every station under the graph lock; a
			// cancelled caller should not keep paying for it.
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			res.ByDistrict[d.eng.district(st)] += 0
		}
	case OpQ8:
		res.ByStation = zeroMeans(d.eng.G.Neighbors(q.Station, "TRIP"))
	}
	return res, derr
}

// zeroMeans is the degraded shape of a per-station answer: the entity set
// survives, the aggregates do not.
func zeroMeans(stations []StationID) map[StationID]float64 {
	out := make(map[StationID]float64, len(stations))
	for _, st := range stations {
		out[st] = 0
	}
	return out
}

// EntitySummariesCtx returns the per-entity summaries of the metric over
// [start, end) in hypertable insertion order — the partition-local fragment a
// scatter-gather coordinator (internal/coord) merges for Q4–Q6. Entities are
// LOCAL station ids; the caller owns the mapping back to its global id space.
// Same contract as Exec: a done context wins, a degraded TS store returns an
// error satisfying errors.Is(err, ErrDegraded).
func (d *DurablePolyglot) EntitySummariesCtx(ctx context.Context, start, end ts.Time) ([]tsstore.EntitySummary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.tsCheck("EntitySummaries"); err != nil {
		return nil, err
	}
	return d.eng.shardSummaries(ctx, start, end)
}

// SyncAll forces every buffered record on both logs to durable storage —
// the drain step of a graceful server shutdown: after SyncAll returns nil,
// every acknowledged write is recoverable even though streaming appends only
// Commit (ride shared flushes) on the hot path. The first failing log aborts
// the sync; its error names the log so operators know which artifact is
// suspect.
func (d *DurablePolyglot) SyncAll() error {
	if err := d.gw.Flush(); err != nil {
		return fmt.Errorf("ttdb: sync graph wal: %w", err)
	}
	if err := d.tw.Flush(); err != nil {
		return fmt.Errorf("ttdb: sync ts wal: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Recovery

// PolyglotRecovery summarizes a RecoverPolyglot run.
type PolyglotRecovery struct {
	Graph graphstore.RecoverySummary
	TS    tsstore.RecoverySummary

	OrphanNodes  int // Station nodes without a series removed: torn ingests
	OrphanSeries int // series without a Station node removed: torn deletes
}

// String renders the summary for the recover CLI.
func (r PolyglotRecovery) String() string {
	return fmt.Sprintf(
		"graph: %d ops (%s)\nts:    %d ops, %d points (%s)\nrepair: %d orphan station nodes, %d orphan series removed",
		r.Graph.Applied, r.Graph.Summary.String(),
		r.TS.Applied, r.TS.Points, r.TS.Summary.String(),
		r.OrphanNodes, r.OrphanSeries,
	)
}

// RecoverPolyglot rebuilds a polyglot engine after a crash from the four
// durable artifacts: an optional snapshot and a WAL per store. Any reader may
// be nil. After both stores replay, it removes every Station node that has no
// series and every availability series that has no Station node — what an
// ingest or a delete torn between the two stores' writes leaves behind. The
// removal is applied to the recovered in-memory state only; CompactDir makes
// it durable. With a registry, each phase (graph replay, ts replay, repair)
// is recorded as a child span of a "ttdb.recover" root and the totals land in
// "ttdb.recover.*" counters; a nil registry records nothing.
func RecoverPolyglot(graphSnap, graphLog, tsSnap, tsLog io.Reader, chunkWidth ts.Time, reg *obs.Registry) (*Polyglot, PolyglotRecovery, error) {
	root := reg.Tracer().Start("ttdb.recover")
	defer root.End()

	var rec PolyglotRecovery
	gspan := root.Child("ttdb.recover.graph")
	g, gsum, err := graphstore.Recover(graphSnap, graphLog)
	gspan.End()
	rec.Graph = gsum
	reg.Counter("ttdb.recover.graph_ops").Add(int64(gsum.Applied))
	if err != nil {
		return nil, rec, fmt.Errorf("ttdb: graph recovery: %w", err)
	}
	tspan := root.Child("ttdb.recover.ts")
	t, tsum, err := tsstore.Recover(tsSnap, tsLog, chunkWidth)
	tspan.End()
	rec.TS = tsum
	reg.Counter("ttdb.recover.ts_ops").Add(int64(tsum.Applied))
	reg.Counter("ttdb.recover.ts_points").Add(int64(tsum.Points))
	if err != nil {
		return nil, rec, fmt.Errorf("ttdb: ts recovery: %w", err)
	}
	eng := &Polyglot{G: g, T: t}

	rspan := root.Child("ttdb.recover.repair")
	rec.OrphanNodes, rec.OrphanSeries, err = repair(eng)
	rspan.End()
	reg.Counter("ttdb.recover.orphan_nodes").Add(int64(rec.OrphanNodes))
	reg.Counter("ttdb.recover.orphan_series").Add(int64(rec.OrphanSeries))
	if err != nil {
		return nil, rec, err
	}
	return eng, rec, nil
}

// repair removes the Station nodes that have no series and the availability
// series that have no Station node, reporting how many of each it removed.
// Afterwards CheckConsistency holds, and a second repair removes nothing.
func repair(eng *Polyglot) (nodes, series int, err error) {
	stations := map[StationID]bool{}
	for _, st := range eng.G.NodesByLabel("Station") {
		if eng.T.HasSeries(key(st)) {
			stations[st] = true
			continue
		}
		if !eng.G.NodeExists(st) {
			continue // listed twice: a node carrying the label twice
		}
		if err := eng.G.DeleteNode(st); err != nil {
			return nodes, series, fmt.Errorf("ttdb: removing orphan station %d: %w", st, err)
		}
		nodes++
	}
	for _, k := range eng.T.Keys() {
		if k.Metric == Metric && !stations[StationID(k.Entity)] {
			eng.T.DeleteSeries(k)
			series++
		}
	}
	return nodes, series, nil
}

// CheckConsistency verifies the cross-store invariant the ingest protocol
// maintains: every Station node has its series and every series belongs to a
// live Station node. It returns nil when consistent.
func CheckConsistency(eng *Polyglot) error {
	stations := map[StationID]bool{}
	for _, st := range eng.G.NodesByLabel("Station") {
		if !eng.T.HasSeries(key(st)) {
			return fmt.Errorf("ttdb: station %d has no series (orphan node)", st)
		}
		stations[st] = true
	}
	for _, k := range eng.T.Keys() {
		if k.Metric == Metric && !stations[StationID(k.Entity)] {
			return fmt.Errorf("ttdb: series %v has no station (orphan series)", k)
		}
	}
	return nil
}
