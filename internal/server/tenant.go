package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hygraph/internal/coord"
	"hygraph/internal/faults"
	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/tpg"
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

// tenant is one namespace: its coordinator plus the per-tenant admission
// state (concurrency slots, token bucket), the idempotency table, and the
// HyQL engine with the structure it matches against.
type tenant struct {
	name   string
	db     *coord.Coordinator
	closer io.Closer
	sem    chan struct{}
	bucket *bucket
	lat    *obs.Histogram // per-tenant end-to-end latency

	version atomic.Uint64 // bumped on every committed write; reported by stats

	mu   sync.Mutex // guards idem, nothing else
	idem map[string]*idemEntry

	// HyQL runs over the stores, not over a copy: the tenant is the engine's
	// hyql.Source, whose structure is db.Structure() — stations, trips and
	// one handle per series, no samples — and whose version, structure,
	// counts station and trip writes, so an appended point costs the next
	// query no rebuild.
	hyql      *hyql.Engine
	structure atomic.Uint64
}

func newTenant(name string, db *coord.Coordinator, closer io.Closer, l Limits, reg *obs.Registry) *tenant {
	t := &tenant{
		name:   name,
		db:     db,
		closer: closer,
		sem:    make(chan struct{}, l.TenantConcurrent),
		bucket: newBucket(l.TenantRate, l.TenantBurst),
		lat:    reg.Histogram("server.tenant." + name + ".latency"),
		idem:   map[string]*idemEntry{},
	}
	t.hyql = hyql.NewEngine(t)
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

// Version implements hyql.Source: the count of station and trip writes.
func (t *tenant) Version() uint64 { return t.structure.Load() }

// Structure implements hyql.Source. The served structure has no ρ: a
// station is valid always, its series vertex over the series' span.
func (t *tenant) Structure() (*lpg.Graph, []tpg.Interval, []tpg.Interval) {
	return t.db.Structure(), nil, nil
}

// String identifies the tenant in errors.
func (t *tenant) String() string { return fmt.Sprintf("tenant(%s)", t.name) }
