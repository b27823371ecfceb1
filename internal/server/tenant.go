package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hygraph/internal/faults"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// idemCap bounds the per-tenant idempotency table; at the cap an arbitrary
// completed entry is evicted, so memory stays bounded under key churn while
// recent keys (the ones a retrying client actually resends) stay resolvable.
const idemCap = 4096

// idemEntry is one idempotency-key slot. done closes when the owning
// request finishes; a successful owner leaves the committed station id
// behind, a failed owner removes the entry so a retry re-executes.
type idemEntry struct {
	done    chan struct{}
	station ttdb.StationID
	ok      bool
}

// tenant is one namespace: a durable engine plus the per-tenant admission
// state (concurrency slots, token bucket), the idempotency table, and the
// HyQL engine with the structure it matches against.
type tenant struct {
	name   string
	db     Conn
	closer interface{ Close() error }
	sem    chan struct{}
	bucket *bucket
	lat    *obs.Histogram // per-tenant end-to-end latency

	version atomic.Uint64 // bumped on every committed write; reported by stats

	mu   sync.Mutex // guards idem, nothing else
	idem map[string]*idemEntry

	// HyQL runs over the stores, not over a copy: hyql asks the tenant (a
	// hyql.Source) for the graph of each query, and the tenant answers from
	// a memo of db.Structure() — stations, trips and one handle per series,
	// no samples. structure counts station and trip writes; the memo is
	// rebuilt when it has moved and at no other time, so an appended point
	// costs the next query nothing. viewMu guards the memo only — queries
	// execute outside it, concurrently.
	hyql        *hyql.Engine
	structure   atomic.Uint64
	rebuilds    *obs.Counter
	viewMu      sync.Mutex
	view        *hyql.View
	viewVersion uint64
}

func newTenant(name string, db Conn, closer interface{ Close() error }, l Limits, reg *obs.Registry) *tenant {
	t := &tenant{
		name:     name,
		db:       db,
		closer:   closer,
		sem:      make(chan struct{}, l.TenantConcurrent),
		bucket:   newBucket(l.TenantRate, l.TenantBurst),
		lat:      reg.Histogram("server.tenant." + name + ".latency"),
		idem:     map[string]*idemEntry{},
		rebuilds: reg.Counter("hyql.view.structural_rebuilds"),
	}
	t.hyql = hyql.NewEngineOver(t)
	t.hyql.Instrument(reg)
	return t
}

// wroteStructure records that a station or trip write has finished, whether
// or not it succeeded (a failed ingest may still have left a station
// behind). It is called after the write and before the acknowledgement, so a
// query that follows the ack rebuilds the structure from state that holds
// the write.
func (t *tenant) wroteStructure() { t.structure.Add(1) }

// ingestStation runs one idempotency-keyed station ingest. With an empty
// key it executes unconditionally (the caller accepted at-most-once ⇒ maybe
// duplicated semantics). With a key, exactly one in-flight request executes
// per key; concurrent and later holders of the same key wait for it and
// share its committed id, and a failed execution clears the key so a retry
// re-executes.
func (t *tenant) ingestStation(key, name, district string, s *ts.Series) (ttdb.StationID, error) {
	if key == "" {
		id, err := t.db.IngestStation(name, district, s)
		t.wroteStructure()
		if err == nil {
			t.version.Add(1)
		}
		return id, err
	}
	for {
		t.mu.Lock()
		if e, ok := t.idem[key]; ok {
			t.mu.Unlock()
			<-e.done
			if e.ok {
				return e.station, nil
			}
			// The owning attempt failed and removed the entry; race for
			// ownership of the retry.
			continue
		}
		e := &idemEntry{done: make(chan struct{})}
		if len(t.idem) >= idemCap {
			t.evictIdemLocked()
		}
		t.idem[key] = e
		t.mu.Unlock()

		id, err := t.db.IngestStation(name, district, s)
		t.wroteStructure()
		t.mu.Lock()
		if err != nil {
			delete(t.idem, key)
		} else {
			e.station, e.ok = id, true
		}
		t.mu.Unlock()
		close(e.done)
		if err == nil {
			t.version.Add(1)
		}
		return id, err
	}
}

// evictIdemLocked drops one completed entry (never an in-flight one, whose
// waiters would dangle). Called with t.mu held.
func (t *tenant) evictIdemLocked() {
	for k, e := range t.idem {
		select {
		case <-e.done:
			delete(t.idem, k)
			return
		default:
		}
	}
}

// hyqlQuery executes a HyQL query over the tenant's stores. Consistency is
// read-committed per series: each ts.* call reads its series as of the moment
// it runs, so every append acknowledged before the query is visible to it,
// and so is every station and trip.
//
// The query itself is not cancellable: the budget is checked, and latency
// injected at FaultHyQL waited out, once before it starts. An error from
// that step is marked errHyQLNotRun; any other error is the query's own.
func (t *tenant) hyqlQuery(ctx context.Context, src string, at ts.Time) (*hyql.Result, error) {
	if err := faults.CheckCtx(ctx, FaultHyQL); err != nil {
		return nil, fmt.Errorf("%w: %w", errHyQLNotRun, err)
	}
	return t.hyql.Query(src, at)
}

var errHyQLNotRun = errors.New("hyql query not run")

// SnapshotAt implements hyql.Source from the memoised structure. Validity of
// a series vertex at the instant is decided inside, per call (hyql.View).
func (t *tenant) SnapshotAt(at ts.Time) *lpg.Graph {
	t.viewMu.Lock()
	// Read the counter before building: a write that lands mid-build bumps
	// it past what is recorded here, and the next query builds again.
	v := t.structure.Load()
	if t.view == nil || t.viewVersion != v {
		t.view = hyql.NewView(t.db.Structure())
		t.viewVersion = v
		t.rebuilds.Inc()
	}
	view := t.view
	t.viewMu.Unlock()
	return view.SnapshotAt(at)
}

// String identifies the tenant in errors.
func (t *tenant) String() string { return fmt.Sprintf("tenant(%s)", t.name) }
