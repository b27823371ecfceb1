package server

import (
	"fmt"
	"io"
	"path/filepath"
	"regexp"

	"hygraph/internal/coord"
	"hygraph/internal/storage/ttdb"
)

// Backend opens the durable engine of one partition of a tenant, named as
// openTenant names it. The returned closer (which may be nil) releases
// whatever the open acquired — file handles for DirBackend — and is called
// during Shutdown after the final WAL flush.
type Backend interface {
	OpenEngine(name string) (*ttdb.DurablePolyglot, io.Closer, error)
}

// tenantName validates tenant path segments: the namespace doubles as a
// directory name under DirBackend, so it must not smuggle separators or
// dot-segments.
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

func validTenant(name string) bool {
	return tenantName.MatchString(name) && name != "." && name != ".."
}

// partitionName matches the engine name openTenant gives partition i of a
// tenant served over more than one partition, "<tenant>.p<i>".
var partitionName = regexp.MustCompile(`^(.+)\.p[0-9]+$`)

// PartitionOf reports whether name is a partition's engine name under
// openTenant's layout, and returns the tenant. Such a directory holds one
// partition's share of the tenant's station ids, so a tool that writes
// stations must not treat it as a tenant of its own.
func PartitionOf(name string) (tenant string, ok bool) {
	m := partitionName.FindStringSubmatch(name)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// openTenant opens every partition of a tenant through the backend and
// attaches the scatter-gather coordinator over them, rebuilding its
// placement map from the gids the partitions' graphs hold. Reopening a
// tenant therefore recovers all partitions and the placement map in one
// step. At one partition the engine keeps the tenant's own name, the
// directory a single-engine server wrote, so that directory is served
// unchanged; over n > 1 partition i is "<tenant>.p<i>".
func openTenant(b Backend, name string, n int) (*coord.Coordinator, io.Closer, error) {
	var closers multiCloser
	parts := make([]*ttdb.DurablePolyglot, n)
	for i := range parts {
		part := name
		if n > 1 {
			part = fmt.Sprintf("%s.p%d", name, i)
		}
		d, c, err := b.OpenEngine(part)
		if err != nil {
			closers.Close()
			return nil, nil, fmt.Errorf("partition %d of %s: %w", i, name, err)
		}
		if c != nil {
			closers = append(closers, c)
		}
		parts[i] = d
	}
	co, err := coord.Attach(parts, nil)
	if err != nil {
		closers.Close()
		return nil, nil, fmt.Errorf("attaching %s: %w", name, err)
	}
	return co, closers, nil
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

// DirBackend stores each partition as a directory Root/<name>/ in ttdb's
// durable-directory layout (ttdb.OpenDir). Opening a partition recovers
// from whatever the directory holds, then appends.
type DirBackend struct {
	Root string
}

// OpenEngine recovers the partition from its directory (created if absent)
// and opens its two logs for append. The returned closer only closes the
// log files; it does not sync them (Shutdown runs SyncAll first).
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
