package server

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// memLogs is one tenant's retained log bytes. The chaos harness reads them
// back to prove no acknowledged write was lost.
type memLogs struct {
	mu         sync.Mutex
	graph, tsl bytes.Buffer
}

// lockedBuf serializes writes to one buffer; the WAL group writers flush
// from whichever rider becomes leader, so the sink must be self-synchronized.
type lockedBuf struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// MemBackend keeps every tenant's WAL bytes in memory: the retained logs
// make "kill the server, recover from its logs, compare" possible without a
// filesystem.
type MemBackend struct {
	ChunkWidth ts.Time // series chunk width; 0 selects ts.Week

	mu   sync.Mutex
	logs map[string]*memLogs
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{logs: map[string]*memLogs{}} }

func (b *MemBackend) width() ts.Time {
	if b.ChunkWidth > 0 {
		return b.ChunkWidth
	}
	return ts.Week
}

// Open adapts OpenEngine to the Backend contract.
func (b *MemBackend) Open(name string) (Conn, io.Closer, error) {
	d, c, err := b.OpenEngine(name)
	if err != nil {
		return nil, nil, err
	}
	return engineConn{d}, c, nil
}

// OpenEngine creates the tenant on first open; reopening an existing tenant
// recovers from its retained logs and appends to them — the same resume
// contract a file-backed deployment has.
func (b *MemBackend) OpenEngine(name string) (*ttdb.DurablePolyglot, io.Closer, error) {
	b.mu.Lock()
	l, ok := b.logs[name]
	if !ok {
		l = &memLogs{}
		b.logs[name] = l
	}
	b.mu.Unlock()

	l.mu.Lock()
	graph := append([]byte(nil), l.graph.Bytes()...)
	tsl := append([]byte(nil), l.tsl.Bytes()...)
	l.mu.Unlock()

	eng, _, err := ttdb.RecoverPolyglot(nil, bytes.NewReader(graph), nil,
		bytes.NewReader(tsl), b.width(), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("membackend: recovering %s: %w", name, err)
	}
	return ttdb.ResumeDurable(eng, lockedBuf{&l.mu, &l.graph}, lockedBuf{&l.mu, &l.tsl}), nil, nil
}

// Recover rebuilds a tenant's engine from the retained logs without going
// through a server — the post-crash/post-shutdown verification step of the
// chaos harness. The logs are snapshotted under the tenant lock, so calling
// it against a live server observes some consistent prefix.
func (b *MemBackend) Recover(name string) (*ttdb.Polyglot, ttdb.PolyglotRecovery, error) {
	b.mu.Lock()
	l, ok := b.logs[name]
	b.mu.Unlock()
	if !ok {
		return nil, ttdb.PolyglotRecovery{}, fmt.Errorf("membackend: unknown tenant %s", name)
	}
	l.mu.Lock()
	graph := append([]byte(nil), l.graph.Bytes()...)
	tsl := append([]byte(nil), l.tsl.Bytes()...)
	l.mu.Unlock()
	return ttdb.RecoverPolyglot(nil, bytes.NewReader(graph), nil,
		bytes.NewReader(tsl), b.width(), nil)
}
