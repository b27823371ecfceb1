package ttdb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"hygraph/internal/faults"
	"hygraph/internal/ts"
)

// The durable directory. One directory holds one DurablePolyglot as four
// files, any of which may be absent: a snapshot and a write-ahead log per
// store. OpenDir and CompactDir are the only code that knows these names. The
// intent journal an older layout kept beside them is neither read nor
// removed.
const (
	graphSnapFile = "graph.snap"
	graphLogFile  = "graph.wal"
	tsSnapFile    = "ts.snap"
	tsLogFile     = "ts.wal"
	// compactFile exists only while a committed compaction may still have
	// snapshots to rename and logs to truncate; OpenDir finishes it first.
	compactFile = "compact.commit"
	tmpSuffix   = ".tmp"
)

// FaultCompact is visited before each step of a compaction that changes a
// file: writing each temp snapshot, the commit, renaming each snapshot,
// truncating each log and removing the commit marker.
const FaultCompact = "ttdb.compact"

// logFiles closes the directory's open logs.
type logFiles []*os.File

func (l logFiles) Close() error {
	var errs []error
	for _, f := range l {
		errs = append(errs, f.Close())
	}
	return errors.Join(errs...)
}

// OpenDir recovers the engine stored in dir (created if absent) and resumes
// it on the directory's two logs, opened for append. The returned closer
// only closes the logs; it does not sync them, so call SyncAll first.
func OpenDir(dir string) (*DurablePolyglot, PolyglotRecovery, io.Closer, error) {
	var rec PolyglotRecovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, nil, err
	}
	if err := finishCompaction(dir); err != nil {
		return nil, rec, nil, fmt.Errorf("ttdb: finishing compaction of %s: %w", dir, err)
	}
	var srcs [4]io.Reader
	for i, name := range [...]string{graphSnapFile, graphLogFile, tsSnapFile, tsLogFile} {
		f, err := os.Open(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, rec, nil, err
		}
		defer f.Close()
		srcs[i] = f
	}
	eng, rec, err := RecoverPolyglot(srcs[0], srcs[1], srcs[2], srcs[3], ts.Week, nil)
	if err != nil {
		return nil, rec, nil, err
	}
	var logs logFiles
	for _, name := range [...]string{graphLogFile, tsLogFile} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logs.Close()
			return nil, rec, nil, err
		}
		logs = append(logs, f)
	}
	return ResumeDurable(eng, logs[0], logs[1]), rec, logs, nil
}

// CompactDir makes eng the whole of dir's state: it snapshots both stores
// and empties both logs, so the repair recovery applied in memory becomes
// durable and the next OpenDir replays nothing. eng must hold all
// that dir's files hold (what OpenDir recovered, plus any write made since
// through its logs), and nothing may write to dir while CompactDir runs.
//
// Each snapshot goes to a temp file that is synced, name and contents,
// before anything depends on it. Creating the commit marker is the one
// commit point: a crash before it leaves the old files, which recover to
// eng (a stray temp snapshot is overwritten by the next compaction); a
// crash after it leaves a compaction that OpenDir finishes (renames, then
// truncations, then the marker's removal, each idempotent) before it reads
// anything. A new snapshot is therefore never replayed together with the
// old log it already contains: graph replay is not idempotent.
func CompactDir(dir string, eng *Polyglot) error {
	if err := writeSynced(filepath.Join(dir, graphSnapFile+tmpSuffix), eng.G.Save); err != nil {
		return err
	}
	if err := writeSynced(filepath.Join(dir, tsSnapFile+tmpSuffix), eng.T.Save); err != nil {
		return err
	}
	// The temp files' names are durable before the marker that makes OpenDir
	// rename them, and the marker before any step it stands for.
	if err := syncDir(dir); err != nil {
		return err
	}
	if err := writeSynced(filepath.Join(dir, compactFile), nil); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return finishCompaction(dir)
}

// finishCompaction completes a committed compaction, if dir holds one.
func finishCompaction(dir string) error {
	marker := filepath.Join(dir, compactFile)
	if _, err := os.Stat(marker); errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	for _, name := range [...]string{graphSnapFile, tsSnapFile} {
		if err := faults.Check(FaultCompact); err != nil {
			return err
		}
		// A temp snapshot already gone was renamed before a crash.
		path := filepath.Join(dir, name)
		if err := os.Rename(path+tmpSuffix, path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	// The snapshots' names are durable before a log they supersede goes.
	if err := syncDir(dir); err != nil {
		return err
	}
	for _, name := range [...]string{graphLogFile, tsLogFile} {
		if err := writeSynced(filepath.Join(dir, name), nil); err != nil {
			return err
		}
	}
	if err := faults.Check(FaultCompact); err != nil {
		return err
	}
	if err := os.Remove(marker); err != nil {
		return err
	}
	return syncDir(dir)
}

// writeSynced is one compaction step: past the FaultCompact point it
// creates or truncates path, writes it with write (nil leaves it empty) and
// syncs it to the device.
func writeSynced(path string, write func(io.Writer) error) error {
	if err := faults.Check(FaultCompact); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if write != nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// syncDir makes dir's entries (creations, renames, removals) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
