package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
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
	SetGroupCommit(n int)
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

// DirBackend stores each tenant as a directory Root/<tenant>/ holding the
// standard five store files (graph.snap, graph.wal, ts.snap, ts.wal,
// ingest.journal — the cmd/hygraph layout). Opening a tenant recovers from
// whatever the directory holds, then appends.
type DirBackend struct {
	Root       string
	ChunkWidth ts.Time // 0 selects ts.Week
}

// storeFiles is the on-disk layout shared with cmd/hygraph.
var storeFiles = struct {
	graphSnap, graphLog, tsSnap, tsLog, journal string
}{"graph.snap", "graph.wal", "ts.snap", "ts.wal", "ingest.journal"}

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

func openMaybe(dir, name string, closers *[]io.Closer) (io.Reader, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	*closers = append(*closers, f)
	return f, nil
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
// opens the three logs for append. The returned closer syncs and closes the
// log files.
func (b *DirBackend) OpenEngine(name string) (*ttdb.DurablePolyglot, io.Closer, error) {
	if !validTenant(name) {
		return nil, nil, fmt.Errorf("dirbackend: invalid tenant name %q", name)
	}
	dir := filepath.Join(b.Root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	width := b.ChunkWidth
	if width <= 0 {
		width = ts.Week
	}

	var readers []io.Closer
	fail := func(err error) (*ttdb.DurablePolyglot, io.Closer, error) {
		multiCloser(readers).Close()
		return nil, nil, err
	}
	var srcs [5]io.Reader
	for i, fname := range []string{storeFiles.graphSnap, storeFiles.graphLog,
		storeFiles.tsSnap, storeFiles.tsLog, storeFiles.journal} {
		r, err := openMaybe(dir, fname, &readers)
		if err != nil {
			return fail(err)
		}
		srcs[i] = r
	}
	eng, rec, err := ttdb.RecoverPolyglot(srcs[0], srcs[1], srcs[2], srcs[3], srcs[4], width)
	multiCloser(readers).Close()
	if err != nil {
		return nil, nil, fmt.Errorf("dirbackend: recovering %s: %w", name, err)
	}

	var logs []io.Closer
	openAppend := func(fname string) (*os.File, error) {
		f, err := os.OpenFile(filepath.Join(dir, fname), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			multiCloser(logs).Close()
			return nil, err
		}
		logs = append(logs, f)
		return f, nil
	}
	gf, err := openAppend(storeFiles.graphLog)
	if err != nil {
		return nil, nil, err
	}
	tf, err := openAppend(storeFiles.tsLog)
	if err != nil {
		return nil, nil, err
	}
	jf, err := openAppend(storeFiles.journal)
	if err != nil {
		return nil, nil, err
	}
	d := ttdb.ResumeDurable(eng, gf, tf, jf, rec.NextTxn)
	return d, multiCloser(logs), nil
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
