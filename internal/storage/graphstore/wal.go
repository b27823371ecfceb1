package graphstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hygraph/internal/faults"
	"hygraph/internal/storage/walrec"
)

// Fault points consulted by the graph-store WAL (see internal/faults).
const (
	// FaultWALAppend fires before a record is applied or buffered; an
	// injected error leaves both the store and the log untouched, so
	// transient injections are safely retryable.
	FaultWALAppend = "graphstore.wal.append"
	// FaultWALFlush fires before buffered records reach the underlying
	// writer — the classic "crash at commit" moment.
	FaultWALFlush = "graphstore.wal.flush"
)

// WAL is a write-ahead-logged view of a DB: every mutation is appended to
// the log before being applied, so a crashed process can rebuild the store
// by replaying the log (ReplayWithSummary). Records are framed with a
// length prefix and a CRC32C checksum (internal/storage/walrec), so replay
// detects torn tails and flipped bits instead of resurrecting garbage.
// Combined with periodic Save snapshots this gives the usual snapshot+log
// durability scheme of production stores.
//
// Appends run through a group-commit writer: each mutation enqueues its
// framed record (no I/O, safe from many goroutines) and Flush coalesces
// everything pending into one buffered write + flush. Creations log explicit
// ids (reserved from the store's atomic allocators before logging), so the
// interleaving of concurrent writers' records in the log is harmless —
// replay recreates every element under its recorded id.
type WAL struct {
	db *DB
	gw *walrec.GroupWriter

	obs walObs // metric handles; zero value = instrumentation off
}

// Log record opcodes. The explicit-id variants are what the WAL writes
// today; the id-less originals remain decodable for logs written before
// group commit, and opRemoveNodeProp for logs of builds that removed
// properties.
const (
	opCreateNode byte = iota + 1
	opCreateRel
	opSetNodeProp
	opSetRelProp
	opRemoveNodeProp
	opDeleteNode
	opCreateNodeAt
	opCreateRelAt
)

// NewWAL wraps a store with a log appended to w. The store should be empty
// or match the snapshot the log continues from.
func NewWAL(db *DB, w io.Writer) *WAL {
	l := &WAL{db: db, gw: walrec.NewGroup(walrec.NewWriter(w))}
	// The flush fault point and flush counter live in the group writer's
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
// flight. Callers flush at commit points.
func (l *WAL) Flush() error { return l.gw.Sync() }

// Payload builders: a record is fully materialized in a local buffer before
// any byte reaches the framed writer, so a failed record is never
// half-buffered, a latched error can never flush a partial record, and
// concurrent writers can build records without sharing state.

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func putValue(buf []byte, v PropValue) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case PropInt:
		buf = binary.AppendUvarint(buf, uint64(v.I))
	case PropFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case PropString:
		buf = putString(buf, v.S)
	case PropBool:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// commit enqueues the fully built record for the next group-commit window.
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

// CreateNodeAt logs and applies a node creation under a pre-reserved id
// (DB.AllocNodeID). A reserved id whose record never reaches the log is
// forgotten by recovery and reused after restart.
func (l *WAL) CreateNodeAt(id NodeID, labels ...string) error {
	buf := []byte{opCreateNodeAt}
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, lb := range labels {
		buf = putString(buf, lb)
	}
	if err := l.commit(buf); err != nil {
		return err
	}
	l.db.CreateNodeAt(id, labels...)
	return nil
}

// CreateRel reserves an id, logs and applies a relationship creation.
func (l *WAL) CreateRel(from, to NodeID, typ string) (RelID, error) {
	if !l.db.NodeExists(from) || !l.db.NodeExists(to) {
		return 0, fmt.Errorf("graphstore: endpoints %d->%d missing", from, to)
	}
	id := l.db.AllocRelID()
	buf := []byte{opCreateRelAt}
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(to))
	buf = putString(buf, typ)
	if err := l.commit(buf); err != nil {
		return 0, err
	}
	if err := l.db.CreateRelAt(id, from, to, typ); err != nil {
		return 0, err
	}
	return id, nil
}

// SetNodeProp logs and applies a node property write.
func (l *WAL) SetNodeProp(id NodeID, key string, val PropValue) error {
	buf := []byte{opSetNodeProp}
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = putString(buf, key)
	buf = putValue(buf, val)
	if err := l.commit(buf); err != nil {
		return err
	}
	return l.db.SetNodeProp(id, key, val)
}

// SetRelProp logs and applies a relationship property write.
func (l *WAL) SetRelProp(id RelID, key string, val PropValue) error {
	buf := []byte{opSetRelProp}
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = putString(buf, key)
	buf = putValue(buf, val)
	if err := l.commit(buf); err != nil {
		return err
	}
	return l.db.SetRelProp(id, key, val)
}

// DeleteNode logs and applies a node deletion (the durable station and
// boundary deletes).
func (l *WAL) DeleteNode(id NodeID) error {
	buf := []byte{opDeleteNode}
	buf = binary.AppendUvarint(buf, uint64(id))
	if err := l.commit(buf); err != nil {
		return err
	}
	return l.db.DeleteNode(id)
}

// RecoverySummary reports what a replay recovered.
type RecoverySummary struct {
	walrec.Summary
	Applied int // operations applied to the store
}

// ReplayWithSummary applies a log produced by WAL onto db (typically a fresh
// store or one restored from the matching snapshot). It stops cleanly at
// EOF, truncates a torn or checksum-corrupt tail (losing at most the final
// record), and errors on mid-log corruption. Every opcode any build ever
// wrote is applied, including those no WAL verb writes today.
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
		if err := applyRecord(db, payload); err != nil {
			sum.Summary = sc.Summary()
			return sum, err
		}
		sum.Applied++
	}
}

// applyRecord decodes and applies one checksummed record payload.
func applyRecord(db *DB, payload []byte) error {
	br := bytes.NewReader(payload)
	op, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("graphstore: empty WAL record")
	}
	switch op {
	case opCreateNode:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if n > uint64(br.Len()) {
			return fmt.Errorf("graphstore: corrupt WAL label count %d", n)
		}
		labels := make([]string, n)
		for i := range labels {
			if labels[i], err = readString(br); err != nil {
				return err
			}
		}
		db.CreateNode(labels...)
	case opCreateRel:
		from, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		to, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		typ, err := readString(br)
		if err != nil {
			return err
		}
		if _, err := db.CreateRel(NodeID(from), NodeID(to), typ); err != nil {
			return err
		}
	case opCreateNodeAt:
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if n > uint64(br.Len()) {
			return fmt.Errorf("graphstore: corrupt WAL label count %d", n)
		}
		labels := make([]string, n)
		for i := range labels {
			if labels[i], err = readString(br); err != nil {
				return err
			}
		}
		if db.NodeExists(NodeID(id)) {
			return fmt.Errorf("graphstore: WAL re-creates live node %d", id)
		}
		db.CreateNodeAt(NodeID(id), labels...)
	case opCreateRelAt:
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		from, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		to, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		typ, err := readString(br)
		if err != nil {
			return err
		}
		if db.relExists(RelID(id)) {
			return fmt.Errorf("graphstore: WAL re-creates live relationship %d", id)
		}
		if err := db.CreateRelAt(RelID(id), NodeID(from), NodeID(to), typ); err != nil {
			return err
		}
	case opSetNodeProp:
		id, key, val, err := readPropRecord(br)
		if err != nil {
			return err
		}
		if err := db.SetNodeProp(NodeID(id), key, val); err != nil {
			return err
		}
	case opSetRelProp:
		id, key, val, err := readPropRecord(br)
		if err != nil {
			return err
		}
		if err := db.SetRelProp(RelID(id), key, val); err != nil {
			return err
		}
	case opRemoveNodeProp:
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		key, err := readString(br)
		if err != nil {
			return err
		}
		db.RemoveNodeProp(NodeID(id), key)
	case opDeleteNode:
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if err := db.DeleteNode(NodeID(id)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("graphstore: corrupt WAL opcode %d", op)
	}
	return nil
}

func readString(br *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(br.Len()) {
		return "", fmt.Errorf("graphstore: corrupt WAL string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readPropRecord(br *bytes.Reader) (uint64, string, PropValue, error) {
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, "", PropValue{}, err
	}
	key, err := readString(br)
	if err != nil {
		return 0, "", PropValue{}, err
	}
	val, err := readValue(br)
	return id, key, val, err
}

func readValue(br *bytes.Reader) (PropValue, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return PropValue{}, err
	}
	switch PropKind(kind) {
	case PropInt:
		v, err := binary.ReadUvarint(br)
		return IntVal(int64(v)), err
	case PropFloat:
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return PropValue{}, err
		}
		return FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case PropString:
		s, err := readString(br)
		return StrVal(s), err
	case PropBool:
		b, err := br.ReadByte()
		if err != nil {
			return PropValue{}, err
		}
		return BoolVal(b != 0), nil
	}
	return PropValue{}, fmt.Errorf("graphstore: corrupt WAL value kind %d", kind)
}
