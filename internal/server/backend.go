package server

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"regexp"

	"hygraph/internal/coord"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// Conn is what the server needs from a tenant's storage: durable writes,
// the one deadline-threaded query method, the structure HyQL matches against,
// and shutdown flushing. Both a single DurablePolyglot (engineConn) and the
// scatter-gather coordinator over N partitions (coord.Coordinator) satisfy
// it, so the serving layer is partition-agnostic.
type Conn interface {
	IngestStation(name, district string, s *ts.Series) (ttdb.StationID, error)
	AppendPoint(st ttdb.StationID, t ts.Time, v float64) error
	AddTrip(from, to ttdb.StationID, count int) error

	// Exec answers Q1–Q8 and downsample under the request deadline.
	Exec(ctx context.Context, q ttdb.Query) (ttdb.Result, error)

	// Structure lays current stations and trips out as the graph HyQL
	// matches against (ttdb.BuildView). It holds a handle per series and no
	// samples, so it is stale only after a station or trip write.
	Structure() *lpg.Graph
	// NumStations reports the logical station count (never boundary replicas).
	NumStations() int
	Instrument(reg *obs.Registry)
	SetWorkers(n int)
	SyncAll() error
}

// Backend opens the durable connection for a tenant namespace on first use.
// The returned closer (which may be nil) releases whatever the open acquired
// — file handles for DirBackend — and is called during Shutdown after the
// final WAL flush.
type Backend interface {
	Open(name string) (Conn, io.Closer, error)
}

// EngineBackend is the single-engine contract DirBackend (and the tests'
// in-memory backend) implement; PartitionedBackend composes over it to open
// one engine per partition.
type EngineBackend interface {
	OpenEngine(name string) (*ttdb.DurablePolyglot, io.Closer, error)
}

// engineConn adapts one DurablePolyglot to the Conn surface.
type engineConn struct {
	*ttdb.DurablePolyglot
}

func (c engineConn) Structure() *lpg.Graph { return c.Engine().Structure() }

func (c engineConn) NumStations() int {
	return len(c.Engine().G.NodesByLabel("Station"))
}

// tenantName validates tenant path segments: the namespace doubles as a
// directory name under DirBackend, so it must not smuggle separators or
// dot-segments.
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

func validTenant(name string) bool {
	return tenantName.MatchString(name) && name != "." && name != ".."
}

// ---------------------------------------------------------------------------
// DirBackend

// DirBackend stores each tenant as a directory Root/<tenant>/ in ttdb's
// durable-directory layout (ttdb.OpenDir). Opening a tenant recovers from
// whatever the directory holds, then appends.
type DirBackend struct {
	Root string
}

// multiCloser closes all parts, keeping the first error.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Open adapts OpenEngine to the Backend contract.
func (b *DirBackend) Open(name string) (Conn, io.Closer, error) {
	d, c, err := b.OpenEngine(name)
	if err != nil {
		return nil, nil, err
	}
	return engineConn{d}, c, nil
}

// OpenEngine recovers the tenant from its directory (created if absent) and
// opens the three logs for append. The returned closer only closes the log
// files; it does not sync them (Shutdown runs SyncAll first).
func (b *DirBackend) OpenEngine(name string) (*ttdb.DurablePolyglot, io.Closer, error) {
	if !validTenant(name) {
		return nil, nil, fmt.Errorf("dirbackend: invalid tenant name %q", name)
	}
	d, _, closer, err := ttdb.OpenDir(filepath.Join(b.Root, name))
	if err != nil {
		return nil, nil, fmt.Errorf("dirbackend: recovering %s: %w", name, err)
	}
	return d, closer, nil
}

// ---------------------------------------------------------------------------
// PartitionedBackend

// PartitionedBackend opens each tenant as Parts independent engines behind a
// scatter-gather coordinator: tenant "name" becomes sub-tenants "name.p0" …
// "name.p{N-1}" of the inner backend (one WAL set each — the unit a future
// multi-process deployment would move to its own process), reattached
// through the gid tags the coordinator persists in every partition's graph.
type PartitionedBackend struct {
	Inner EngineBackend
	Parts int // partition count; < 1 selects 1
}

// Open opens every partition sub-tenant and reconstructs the coordinator
// from their self-describing state. Reopening a tenant therefore recovers
// all partitions AND the placement map in one step.
func (b *PartitionedBackend) Open(name string) (Conn, io.Closer, error) {
	if !validTenant(name) {
		return nil, nil, fmt.Errorf("partitionedbackend: invalid tenant name %q", name)
	}
	n := b.Parts
	if n < 1 {
		n = 1
	}
	var closers []io.Closer
	fail := func(err error) (Conn, io.Closer, error) {
		multiCloser(closers).Close()
		return nil, nil, err
	}
	parts := make([]*ttdb.DurablePolyglot, n)
	for i := 0; i < n; i++ {
		d, c, err := b.Inner.OpenEngine(fmt.Sprintf("%s.p%d", name, i))
		if err != nil {
			return fail(fmt.Errorf("partitionedbackend: partition %d of %s: %w", i, name, err))
		}
		if c != nil {
			closers = append(closers, c)
		}
		parts[i] = d
	}
	co, err := coord.Attach(parts, nil)
	if err != nil {
		return fail(fmt.Errorf("partitionedbackend: attaching %s: %w", name, err))
	}
	return co, multiCloser(closers), nil
}
