package tsstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"hygraph/internal/faults"
	"hygraph/internal/storage/walrec"
	"hygraph/internal/ts"
)

// Fault points consulted by the time-series WAL (see internal/faults).
const (
	// FaultWALAppend fires before a record is applied or buffered, so
	// transient injections leave both store and log untouched and are
	// safely retryable.
	FaultWALAppend = "tsstore.wal.append"
	// FaultWALFlush fires before buffered records reach the underlying
	// writer.
	FaultWALFlush = "tsstore.wal.flush"
)

// WAL is a write-ahead-logged view of the time-series store. The paper's
// polyglot architecture delegates series storage to a TimescaleDB-style
// store, which in production is durable; the reproduction previously had no
// log at all, so any crash silently lost every point. Records are framed
// with length + CRC32C (internal/storage/walrec): replay truncates torn
// tails and detects corruption, mirroring the graph-store WAL.
//
// Appends run through a group-commit writer: each mutation enqueues its
// framed record (no I/O, safe from many goroutines) and Flush coalesces
// everything pending into one buffered write + flush. A single writer sees
// exactly the old per-commit behaviour; concurrent writers share flushes.
type WAL struct {
	db *DB
	gw *walrec.GroupWriter

	obs walObs // metric handles; zero value = instrumentation off
}

// Log record opcodes.
const (
	opInsert byte = iota + 1
	opInsertBatch
	opDeleteSeries
)

// NewWAL wraps a store with a log appended to w. The store should be empty
// or match the snapshot the log continues from.
func NewWAL(db *DB, w io.Writer) *WAL {
	l := &WAL{db: db, gw: walrec.NewGroup(walrec.NewWriter(w))}
	// The flush fault point and flush counter move into the group writer's
	// hooks so they fire once per physical flush — exactly once per Flush
	// call for a single writer, once per coalesced batch under load.
	l.gw.SetHooks(
		func() error { return faults.Check(FaultWALFlush) },
		func(int) { l.obs.flushes.Inc() },
	)
	return l
}

// Err returns the WAL's latched write error, if any.
func (l *WAL) Err() error { return l.gw.Err() }

// Flush makes every record enqueued so far durable: the caller either leads
// one coalesced write+flush of the batch window or rides a flush already in
// flight.
func (l *WAL) Flush() error { return l.gw.Sync() }

// Commit makes every record enqueued so far durable without forcing a
// physical flush of its own: a committer whose records another leader
// already covered returns immediately. The streaming-ingest path uses this
// instead of Flush so concurrent writers coalesce into shared flushes.
func (l *WAL) Commit() error { return l.gw.Commit(l.gw.Enqueued()) }

func appendKey(buf []byte, op byte, key SeriesKey) []byte {
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(key.Entity))
	buf = binary.AppendUvarint(buf, uint64(len(key.Metric)))
	buf = append(buf, key.Metric...)
	return buf
}

func (l *WAL) commit(payload []byte) error {
	if err := faults.Check(FaultWALAppend); err != nil {
		return err
	}
	if _, err := l.gw.Append(payload); err != nil {
		return err
	}
	l.obs.appends.Inc()
	l.obs.bytes.Add(int64(len(payload)))
	return nil
}

// Insert logs and applies one point. Upserts on duplicate timestamps, so
// replaying or retrying the same insert is idempotent.
func (l *WAL) Insert(key SeriesKey, t ts.Time, v float64) error {
	buf := appendKey(nil, opInsert, key)
	buf = binary.AppendVarint(buf, int64(t))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	if err := l.commit(buf); err != nil {
		return err
	}
	l.db.Insert(key, t, v)
	return nil
}

// InsertSeries logs and applies a whole series as one batch record:
// delta-encoded timestamps followed by raw float64 bits. One record per
// series keeps the ingest atomic at the record level — a torn tail drops
// the whole batch, never half of it.
func (l *WAL) InsertSeries(key SeriesKey, src *ts.Series) error {
	n := src.Len()
	size := 1 + 3*binary.MaxVarintLen64 + len(key.Metric) + 8*n
	prev := ts.Time(0)
	for i := 0; i < n; i++ {
		t := src.TimeAt(i)
		size += varintLen(int64(t - prev))
		prev = t
	}
	buf := appendKey(make([]byte, 0, size), opInsertBatch, key)
	buf = binary.AppendUvarint(buf, uint64(n))
	prev = 0
	for i := 0; i < n; i++ {
		t := src.TimeAt(i)
		buf = binary.AppendVarint(buf, int64(t-prev))
		prev = t
	}
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(src.ValueAt(i)))
	}
	if err := l.commit(buf); err != nil {
		return err
	}
	l.db.InsertSeries(key, src)
	return nil
}

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return (bits.Len64(ux|1) + 6) / 7
}

// DeleteSeries logs and applies removal of a whole series (the rollback
// primitive of the cross-store ingest protocol).
func (l *WAL) DeleteSeries(key SeriesKey) error {
	if err := l.commit(appendKey(nil, opDeleteSeries, key)); err != nil {
		return err
	}
	l.db.DeleteSeries(key)
	return nil
}

// RecoverySummary reports what a replay recovered.
type RecoverySummary struct {
	walrec.Summary
	Applied int // operations applied
	Points  int // points inserted
}

// ReplayWithSummary applies a log produced by WAL onto db and reports what
// it recovered. It truncates a torn or checksum-corrupt tail (losing at most
// the final record) and errors on mid-log corruption.
func ReplayWithSummary(db *DB, r io.Reader) (RecoverySummary, error) {
	sc := walrec.NewScanner(r)
	var sum RecoverySummary
	for {
		payload, err := sc.Next()
		if err == io.EOF {
			sum.Summary = sc.Summary()
			return sum, nil
		}
		if err != nil {
			sum.Summary = sc.Summary()
			return sum, err
		}
		pts, err := applyTSRecord(db, payload)
		if err != nil {
			sum.Summary = sc.Summary()
			return sum, err
		}
		sum.Applied++
		sum.Points += pts
	}
}

// errCorruptBatch reports a batch record whose payload ends before the
// points its count claims.
var errCorruptBatch = fmt.Errorf("tsstore: corrupt WAL batch: %w", io.ErrUnexpectedEOF)

func applyTSRecord(db *DB, payload []byte) (int, error) {
	br := bytes.NewReader(payload)
	op, err := br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("tsstore: empty WAL record")
	}
	entity, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	mlen, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if mlen > uint64(br.Len()) {
		return 0, fmt.Errorf("tsstore: corrupt WAL metric length %d", mlen)
	}
	mbuf := make([]byte, mlen)
	if _, err := io.ReadFull(br, mbuf); err != nil {
		return 0, err
	}
	key := SeriesKey{Entity: uint32(entity), Metric: string(mbuf)}
	switch op {
	case opInsert:
		t, err := binary.ReadVarint(br)
		if err != nil {
			return 0, err
		}
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		db.Insert(key, ts.Time(t), math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		return 1, nil
	case opInsertBatch:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		// Each point needs >= 9 payload bytes (1+ delta byte, 8 value).
		if n > uint64(br.Len()/9) {
			return 0, fmt.Errorf("tsstore: corrupt WAL batch count %d: %w", n, io.ErrUnexpectedEOF)
		}
		// Decode the whole batch before applying any of it, so a short
		// record is rejected without leaving half its points behind.
		times := make([]ts.Time, n)
		prev := int64(0)
		for i := range times {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return 0, errCorruptBatch
			}
			prev += d
			times[i] = ts.Time(prev)
		}
		vals := make([]float64, n)
		var buf [8]byte
		for i := range vals {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return 0, errCorruptBatch
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
		for i := range times {
			db.Insert(key, times[i], vals[i])
		}
		return int(n), nil
	case opDeleteSeries:
		db.DeleteSeries(key)
		return 0, nil
	}
	return 0, fmt.Errorf("tsstore: corrupt WAL opcode %d", op)
}

// Recover rebuilds a store from an optional snapshot plus an optional WAL.
// Either reader may be nil. chunkWidth is used only when there is no
// snapshot (a snapshot carries its own width).
func Recover(snapshot, log io.Reader, chunkWidth ts.Time) (*DB, RecoverySummary, error) {
	db := New(chunkWidth)
	if snapshot != nil {
		var err error
		if db, err = Load(snapshot); err != nil {
			return nil, RecoverySummary{}, fmt.Errorf("tsstore: snapshot: %w", err)
		}
	}
	var sum RecoverySummary
	if log != nil {
		var err error
		if sum, err = ReplayWithSummary(db, log); err != nil {
			return db, sum, fmt.Errorf("tsstore: log: %w", err)
		}
	}
	return db, sum, nil
}
