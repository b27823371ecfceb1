package ttdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/walrec"
	"hygraph/internal/ts"
)

// Fault points consulted by the durable polyglot layer (see internal/faults).
const (
	// FaultJournalAppend fires before an intent-journal record is written.
	FaultJournalAppend = "ttdb.journal.append"
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

// Intent-journal opcodes. One station ingest is one transaction:
//
//	BEGIN(txn, node)    — node id reserved via graphstore.AllocNodeID
//	  ... graph writes flushed ...
//	PREPARED(txn, node) — graph side durable
//	  ... time-series writes flushed ...
//	COMMIT(txn, node)   — both sides durable
//
// Recovery (RecoverPolyglot) replays both stores' WALs and then decides each
// transaction's fate from its last journal record: COMMIT keeps it; PREPARED
// rolls forward when the series made it to disk and rolls back otherwise;
// BEGIN always rolls back. Rollback deletes the graph node and the series,
// both idempotent, so recovering twice is safe.
//
// DELETE(txn, node) is the inverse intent: DeleteStation journals it before
// touching either store, so a crash at any point after the record is durable
// rolls the removal FORWARD — recovery re-deletes the node and the series,
// both idempotent no-ops when the crash happened after the store writes.
const (
	jBegin byte = iota + 1
	jPrepared
	jCommit
	jDelete
)

// DurablePolyglot wraps a Polyglot engine with write-ahead logs on both
// stores plus a cross-store intent journal, making station ingest atomic
// across the graph and time-series sides: after a crash at any point,
// RecoverPolyglot restores a state where every station either has both its
// node and its series or neither.
type DurablePolyglot struct {
	eng *Polyglot
	gw  *graphstore.WAL
	tw  *tsstore.WAL
	jw  *walrec.GroupWriter

	// Retry bounds transient-error retries on every storage operation.
	Retry RetryPolicy

	txn   atomic.Uint64
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

// NewDurable returns an empty durable engine logging to the three writers
// (graph WAL, time-series WAL, intent journal).
func NewDurable(chunkWidth ts.Time, graphLog, tsLog, journal io.Writer) *DurablePolyglot {
	return ResumeDurable(NewPolyglot(chunkWidth), graphLog, tsLog, journal, 0)
}

// ResumeDurable wraps an existing engine (typically the result of
// RecoverPolyglot) with fresh logs. nextTxn must exceed every transaction id
// in any journal the new journal continues (PolyglotRecovery.NextTxn).
func ResumeDurable(eng *Polyglot, graphLog, tsLog, journal io.Writer, nextTxn uint64) *DurablePolyglot {
	d := &DurablePolyglot{
		eng:   eng,
		gw:    graphstore.NewWAL(eng.G, graphLog),
		tw:    tsstore.NewWAL(eng.T, tsLog),
		jw:    walrec.NewGroup(walrec.NewWriter(journal)),
		Retry: DefaultRetry,
	}
	d.txn.Store(nextTxn)
	return d
}

// SetGroupCommit sets the maximum records coalesced into one physical flush
// on all three logs (graph WAL, time-series WAL, intent journal). n <= 1
// restores per-record flushing — the pre-group-commit baseline the mixed
// throughput benchmark compares against.
func (d *DurablePolyglot) SetGroupCommit(n int) {
	d.gw.SetMaxBatch(n)
	d.tw.SetMaxBatch(n)
	d.jw.SetMaxBatch(n)
}

// Engine exposes the wrapped engine for direct (non-durable) reads.
func (d *DurablePolyglot) Engine() *Polyglot { return d.eng }

// SetWorkers sets the Q4–Q8 fan-out width of the wrapped engine. Since the
// move to explicit id reservation (AllocNodeID) and group-committed logs,
// ingest is concurrency-safe too: any number of IngestStation/AppendPoint
// clients may run alongside queries — see docs/PARALLELISM.md.
func (d *DurablePolyglot) SetWorkers(n int) { d.eng.SetWorkers(n) }

// journal appends one intent record and commits it through the journal's
// group writer — each protocol step must be durable before the next store
// write starts, but concurrent transactions' steps coalesce into shared
// flushes. A retried closure may re-enqueue a record whose first copy was
// already buffered; duplicates are harmless because recovery keys on the
// LAST record per transaction and the states are idempotent.
func (d *DurablePolyglot) journal(op byte, txn uint64, node StationID) error {
	err := d.Retry.run(func() error {
		if err := faults.Check(FaultJournalAppend); err != nil {
			return err
		}
		buf := make([]byte, 0, 2*binary.MaxVarintLen64+1)
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, txn)
		buf = binary.AppendUvarint(buf, uint64(node))
		seq, err := d.jw.Append(buf)
		if err != nil {
			return err
		}
		return d.jw.Commit(seq)
	})
	if err != nil {
		return err
	}
	switch op {
	case jBegin:
		d.obs.journalBegin.Inc()
	case jPrepared:
		d.obs.journalPrepared.Inc()
	case jCommit:
		d.obs.journalCommit.Inc()
	case jDelete:
		d.obs.journalDelete.Inc()
	}
	return nil
}

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

// IngestStation atomically adds a station and its series across both stores
// using the intent-journal protocol. On a permanent error the in-memory state
// may be half-applied — exactly the state a crash leaves on disk — and
// RecoverPolyglot over the written logs restores consistency; this mirrors
// how a real engine treats an unrecoverable storage fault as fail-stop.
func (d *DurablePolyglot) IngestStation(name, district string, s *ts.Series) (StationID, error) {
	txn := d.txn.Add(1) - 1
	node := d.eng.G.AllocNodeID()
	if err := d.journal(jBegin, txn, node); err != nil {
		return 0, fmt.Errorf("ttdb: txn %d begin: %w", txn, err)
	}
	if err := d.graphSide(node, name, district); err != nil {
		return 0, fmt.Errorf("ttdb: txn %d graph write: %w", txn, err)
	}
	if err := d.journal(jPrepared, txn, node); err != nil {
		return 0, fmt.Errorf("ttdb: txn %d prepared: %w", txn, err)
	}
	if err := d.tsSide(node, s); err != nil {
		d.tsErr.set(err)
		return 0, fmt.Errorf("ttdb: txn %d ts write: %w", txn, err)
	}
	d.tsErr.set(nil)
	if err := d.journal(jCommit, txn, node); err != nil {
		// Both sides are durable; recovery rolls the PREPARED record forward
		// because the series is present. The station is usable.
		return node, fmt.Errorf("ttdb: txn %d commit record: %w", txn, err)
	}
	d.obs.ingests.Inc()
	return node, nil
}

// AddTrip durably records a trip edge. Trips touch only the graph store, so
// no intent journal is needed — the graph WAL alone makes them atomic.
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

// LoadSeries durably attaches (or replaces points of) the metric series of an
// existing station — the Engine-interface loading path. It touches only the
// time-series store, so the TS WAL alone is sufficient; a permanent failure
// latches the degraded-mode error exactly like the ingest path.
func (d *DurablePolyglot) LoadSeries(st StationID, s *ts.Series) error {
	if err := d.tsSide(st, s); err != nil {
		d.tsErr.set(err)
		return fmt.Errorf("ttdb: load series: %w", err)
	}
	d.tsErr.set(nil)
	return nil
}

// DeleteStation atomically removes a station from both stores using the
// intent journal's DELETE record: the intent is durable before either store
// is touched, so a crash at any later point rolls the removal forward during
// recovery (both deletes are idempotent). Incident relationships go with the
// node; deleting an absent station is a durable no-op.
func (d *DurablePolyglot) DeleteStation(st StationID) error {
	txn := d.txn.Add(1) - 1
	if err := d.journal(jDelete, txn, st); err != nil {
		return fmt.Errorf("ttdb: txn %d delete intent: %w", txn, err)
	}
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
		return fmt.Errorf("ttdb: txn %d graph delete: %w", txn, err)
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
		return fmt.Errorf("ttdb: txn %d ts delete: %w", txn, err)
	}
	d.tsErr.set(nil)
	return nil
}

// AddBoundary durably creates a boundary vertex: a graph-only replica of a
// station owned by another partition, labeled "Boundary" so the Station-keyed
// invariants (CheckConsistency, Q4–Q6 enumeration) never see it. The global
// id it mirrors is recorded as the "gid" property so a partition is
// self-describing on reopen. Boundary vertices have no series, so no intent
// journal is needed — the graph WAL alone makes the write durable, and a
// crash between node and property leaves an orphan the reconstruction path
// skips.
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
// TS WAL alone sufficient: no intent journal round trips, and concurrent
// appends coalesce into shared group-commit flushes.
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

// SyncAll forces every buffered record on all three logs (graph WAL,
// time-series WAL, intent journal) to durable storage — the drain step of a
// graceful server shutdown: after SyncAll returns nil, every acknowledged
// write is recoverable even though streaming appends only Commit (ride
// shared flushes) on the hot path. The first failing log aborts the sync;
// its error names the log so operators know which artifact is suspect.
func (d *DurablePolyglot) SyncAll() error {
	if err := d.gw.Flush(); err != nil {
		return fmt.Errorf("ttdb: sync graph wal: %w", err)
	}
	if err := d.tw.Flush(); err != nil {
		return fmt.Errorf("ttdb: sync ts wal: %w", err)
	}
	if err := d.jw.Sync(); err != nil {
		return fmt.Errorf("ttdb: sync intent journal: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Recovery

// TxnFate records what recovery decided for one journaled transaction.
type TxnFate struct {
	Txn   uint64
	Node  StationID
	State string // "begin", "prepared", "commit", "delete"
	Fate  string // "committed", "rolled-forward", "rolled-back", "deleted"
}

// PolyglotRecovery summarizes a RecoverPolyglot run.
type PolyglotRecovery struct {
	Graph   graphstore.RecoverySummary
	TS      tsstore.RecoverySummary
	Journal walrec.Summary

	Txns          int
	Committed     int
	RolledForward int // prepared, series present: kept
	RolledBack    int // half-applied: node and series removed
	Deleted       int // delete intents rolled forward: node and series removed
	NextTxn       uint64
	Fates         []TxnFate
}

// String renders the summary for the recover CLI.
func (r PolyglotRecovery) String() string {
	return fmt.Sprintf(
		"graph: %d ops (%s)\nts:    %d ops, %d points (%s)\njournal: %d txns (%s) — %d committed, %d rolled forward, %d rolled back, %d deleted",
		r.Graph.Applied, r.Graph.Summary.String(),
		r.TS.Applied, r.TS.Points, r.TS.Summary.String(),
		r.Txns, r.Journal.String(), r.Committed, r.RolledForward, r.RolledBack, r.Deleted,
	)
}

func stateName(op byte) string {
	switch op {
	case jBegin:
		return "begin"
	case jPrepared:
		return "prepared"
	case jCommit:
		return "commit"
	case jDelete:
		return "delete"
	}
	return fmt.Sprintf("op%d", op)
}

// RecoverPolyglot rebuilds a polyglot engine after a crash from the five
// durable artifacts: optional snapshots and WALs for both stores, plus the
// intent journal. Any reader may be nil. After both stores replay, each
// journaled transaction's last record decides its fate (see the opcode docs);
// rollbacks are applied to the recovered in-memory state only — callers that
// want them durable re-snapshot via Compact-style flows (cmd/hygraph
// recover -compact).
func RecoverPolyglot(graphSnap, graphLog, tsSnap, tsLog, journal io.Reader, chunkWidth ts.Time) (*Polyglot, PolyglotRecovery, error) {
	return RecoverPolyglotObserved(graphSnap, graphLog, tsSnap, tsLog, journal, chunkWidth, nil)
}

// RecoverPolyglotObserved is RecoverPolyglot with instrumentation: each
// recovery phase (graph replay, ts replay, journal scan, fate resolution) is
// recorded as a child span of a "ttdb.recover" root in the registry's tracer,
// and op/point/txn totals land in "ttdb.recover.*" counters. A nil registry
// records nothing and behaves exactly like RecoverPolyglot.
func RecoverPolyglotObserved(graphSnap, graphLog, tsSnap, tsLog, journal io.Reader, chunkWidth ts.Time, reg *obs.Registry) (*Polyglot, PolyglotRecovery, error) {
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

	type txnState struct {
		node  StationID
		state byte
	}
	states := map[uint64]*txnState{}
	var order []uint64
	if journal != nil {
		jspan := root.Child("ttdb.recover.journal")
		sc := walrec.NewScanner(journal)
		for {
			payload, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rec.Journal = sc.Summary()
				jspan.End()
				return nil, rec, fmt.Errorf("ttdb: intent journal: %w", err)
			}
			op, txn, node, err := parseJournalRecord(payload)
			if err != nil {
				rec.Journal = sc.Summary()
				jspan.End()
				return nil, rec, err
			}
			if st, ok := states[txn]; ok {
				st.state, st.node = op, node
			} else {
				states[txn] = &txnState{node: node, state: op}
				order = append(order, txn)
			}
			if txn >= rec.NextTxn {
				rec.NextTxn = txn + 1
			}
		}
		rec.Journal = sc.Summary()
		jspan.End()
	}

	// A node id can appear in more than one transaction across journal
	// generations: a txn whose CreateNode never reached disk leaves the id
	// free for the next session to allocate again. The node's fate belongs to
	// the LAST txn referencing it — an earlier rolled-back txn must not
	// delete a later txn's node or series.
	lastTxnForNode := map[StationID]uint64{}
	for _, txn := range order {
		if st := states[txn]; txn >= lastTxnForNode[st.node] {
			lastTxnForNode[st.node] = txn
		}
	}

	fspan := root.Child("ttdb.recover.fates")
	defer func() {
		fspan.End()
		reg.Counter("ttdb.recover.txns").Add(int64(rec.Txns))
		reg.Counter("ttdb.recover.committed").Add(int64(rec.Committed))
		reg.Counter("ttdb.recover.rolled_forward").Add(int64(rec.RolledForward))
		reg.Counter("ttdb.recover.rolled_back").Add(int64(rec.RolledBack))
		reg.Counter("ttdb.recover.deleted").Add(int64(rec.Deleted))
	}()
	for _, txn := range order {
		st := states[txn]
		fate := TxnFate{Txn: txn, Node: st.node, State: stateName(st.state)}
		rec.Txns++
		switch {
		case st.state == jCommit:
			rec.Committed++
			fate.Fate = "committed"
		case st.state == jDelete:
			// A journaled delete intent always rolls forward: re-delete both
			// sides (idempotent no-ops when the crash happened after the store
			// writes), unless a later txn re-created the node id.
			if lastTxnForNode[st.node] == txn {
				if g.NodeExists(st.node) {
					if err := g.DeleteNode(st.node); err != nil {
						return nil, rec, fmt.Errorf("ttdb: delete txn %d: %w", txn, err)
					}
				}
				t.DeleteSeries(key(st.node))
			}
			rec.Deleted++
			fate.Fate = "deleted"
		case st.state == jPrepared && t.HasSeries(key(st.node)):
			// Graph and series both made it to disk; only the commit record
			// is missing. Keep the station.
			rec.RolledForward++
			fate.Fate = "rolled-forward"
		default:
			// Half-applied (BEGIN only, or PREPARED with no series): remove
			// whichever side exists. Both deletes are idempotent, and skipped
			// when a later txn owns the node id.
			if lastTxnForNode[st.node] == txn {
				if g.NodeExists(st.node) {
					if err := g.DeleteNode(st.node); err != nil {
						return nil, rec, fmt.Errorf("ttdb: rollback txn %d: %w", txn, err)
					}
				}
				t.DeleteSeries(key(st.node))
			}
			rec.RolledBack++
			fate.Fate = "rolled-back"
		}
		rec.Fates = append(rec.Fates, fate)
	}
	return eng, rec, nil
}

func parseJournalRecord(payload []byte) (op byte, txn uint64, node StationID, err error) {
	if len(payload) < 1 {
		return 0, 0, 0, fmt.Errorf("ttdb: empty journal record")
	}
	op = payload[0]
	if op < jBegin || op > jDelete {
		return 0, 0, 0, fmt.Errorf("ttdb: corrupt journal opcode %d", op)
	}
	rest := payload[1:]
	txn, n := binary.Uvarint(rest)
	if n <= 0 || txn == math.MaxUint64 {
		// No writer reaches the largest id, and NextTxn could not exceed it.
		return 0, 0, 0, fmt.Errorf("ttdb: corrupt journal txn id")
	}
	nodeU, n2 := binary.Uvarint(rest[n:])
	if n2 <= 0 {
		return 0, 0, 0, fmt.Errorf("ttdb: corrupt journal node id")
	}
	return op, txn, StationID(nodeU), nil
}

// CheckConsistency verifies the cross-store invariant the ingest protocol
// maintains: every Station node has its series and every series belongs to a
// live Station node. It returns nil when consistent.
func CheckConsistency(eng *Polyglot) error {
	for _, st := range eng.G.NodesByLabel("Station") {
		if !eng.T.HasSeries(key(st)) {
			return fmt.Errorf("ttdb: station %d has no series (orphan node)", st)
		}
	}
	for _, k := range eng.T.Keys() {
		if k.Metric != Metric {
			continue
		}
		if !eng.G.NodeExists(StationID(k.Entity)) {
			return fmt.Errorf("ttdb: series %v has no station (orphan series)", k)
		}
	}
	return nil
}
