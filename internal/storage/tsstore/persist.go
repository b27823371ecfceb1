package tsstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hygraph/internal/ts"
)

// Binary snapshot format mirroring graphstore's: magic, version, chunk
// width, then per-series key and chunk payloads. Version 2 adds a form byte
// per chunk so sealed chunks are persisted as their compressed blocks
// (summary included — Load must not pay a decode per chunk); open chunks
// keep the v1 raw layout (delta-encoded timestamps, raw float64 bits).
// Version 1 snapshots still load (docs/STORAGE.md).

const (
	snapshotMagic   = "HYTS"
	snapshotVersion = 2

	chunkFormRaw        = 0 // uvarint nPts, delta times, raw float64 bits
	chunkFormCompressed = 1 // uvarint n, sum/min/max bits, uvarint len, block
)

// Sanity caps for decoded length fields: a snapshot claiming more is
// corrupt, not big. They bound single allocations so a flipped length byte
// cannot turn one ReadUvarint into an exabyte-sized make before any record
// data is read.
const (
	maxSnapMetricLen = 1 << 16 // bytes in one metric name
	maxSnapChunkPts  = 1 << 24 // points in one raw chunk
	maxSnapBlockLen  = 1 << 26 // bytes in one compressed block
)

// snapPrealloc bounds what a length field may allocate before its data is
// read (points of a raw chunk, bytes of a block); past it, buffers grow as
// data arrives. Real chunks fit: a week of hourly points is 168.
const snapPrealloc = 1 << 12

// Save writes a binary snapshot of the store. Keys are emitted in merged
// first-insertion order (one short read lock per shard while walking each
// key's series), so the on-disk layout is byte-identical regardless of the
// shard count and Load reproduces the same iteration order.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	writeUvarint(bw, snapshotVersion)
	writeUvarint(bw, uint64(db.chunkWidth))
	ordered := db.orderedKeys()
	writeUvarint(bw, uint64(len(ordered)))
	for _, sk := range ordered {
		key := sk.key
		writeUvarint(bw, uint64(key.Entity))
		writeUvarint(bw, uint64(len(key.Metric)))
		bw.WriteString(key.Metric) //hyvet:allow walerrlatch bufio.Writer latches its first error; the checked Flush at the end reports it
		db.saveSeries(bw, key)
	}
	return bw.Flush()
}

// saveSeries writes one series' chunk payloads under its shard's read lock.
// bufio write errors latch and come out of Save's Flush.
func (db *DB) saveSeries(bw *bufio.Writer, key SeriesKey) {
	sh := db.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.data[key]
	if s == nil {
		// Deleted since the key snapshot: persist as an empty series. Load
		// skips zero-chunk keys, so the delete survives the round trip.
		writeUvarint(bw, 0)
		return
	}
	writeUvarint(bw, uint64(len(s.chunks)))
	for _, c := range s.chunks {
		writeVarint(bw, c.slot)
		if c.sealed() {
			bw.WriteByte(chunkFormCompressed) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
			writeUvarint(bw, uint64(c.n))
			writeFloatBits(bw, c.sum)
			writeFloatBits(bw, c.minV)
			writeFloatBits(bw, c.maxV)
			writeUvarint(bw, uint64(len(c.enc)))
			bw.Write(c.enc) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
			continue
		}
		bw.WriteByte(chunkFormRaw) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
		writeUvarint(bw, uint64(len(c.times)))
		prev := ts.Time(0)
		for i, t := range c.times {
			if i == 0 {
				writeVarint(bw, int64(t))
			} else {
				writeVarint(bw, int64(t-prev))
			}
			prev = t
		}
		for _, v := range c.vals {
			writeFloatBits(bw, v)
		}
	}
}

// Load reads a snapshot written by Save (version 1 or 2). Raw-chunk
// summaries are recomputed on load; compressed chunks carry theirs in the
// file. Keys persisted with zero chunks are series deleted mid-Save — they
// are skipped, not materialized, so HasSeries agrees with the pre-crash
// store (crash recovery keys its roll-forward decision on it).
func Load(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("tsstore: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("tsstore: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != 1 && version != snapshotVersion {
		return nil, fmt.Errorf("tsstore: unsupported snapshot version %d", version)
	}
	width, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	db := New(ts.Time(width))
	nKeys, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < nKeys; k++ {
		entity, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		mlen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if mlen > maxSnapMetricLen {
			return nil, fmt.Errorf("tsstore: corrupt snapshot: metric name of %d bytes exceeds cap %d", mlen, maxSnapMetricLen)
		}
		mbuf := make([]byte, mlen)
		if _, err := io.ReadFull(br, mbuf); err != nil {
			return nil, err
		}
		key := SeriesKey{Entity: uint32(entity), Metric: string(mbuf)}
		nChunks, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nChunks == 0 {
			continue // deleted mid-Save; do not resurrect
		}
		s := &series{}
		for ci := uint64(0); ci < nChunks; ci++ {
			c, err := loadChunk(br, version)
			if err != nil {
				return nil, err
			}
			s.chunks = append(s.chunks, c)
		}
		// Load runs before the store is shared; keys get ascending sequence
		// numbers in file order, reproducing the saved iteration order.
		sh := db.shard(key)
		sh.data[key] = s
		sh.keys = append(sh.keys, key)
		sh.seqs = append(sh.seqs, db.seq.Add(1))
	}
	return db, nil
}

// loadChunk reads one chunk payload. Version 1 has no form byte — every
// chunk is raw.
func loadChunk(br *bufio.Reader, version uint64) (*chunk, error) {
	slot, err := binary.ReadVarint(br)
	if err != nil {
		return nil, err
	}
	form := byte(chunkFormRaw)
	if version >= 2 {
		form, err = br.ReadByte()
		if err != nil {
			return nil, err
		}
	}
	switch form {
	case chunkFormRaw:
		nPts, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nPts > maxSnapChunkPts {
			return nil, fmt.Errorf("tsstore: corrupt snapshot: %d points in one chunk exceeds cap %d", nPts, maxSnapChunkPts)
		}
		// Grow from the points actually read: a corrupt count then fails at
		// the end of the input, not after a cap-sized allocation.
		prealloc := min(nPts, snapPrealloc)
		c := &chunk{slot: slot, times: make([]ts.Time, 0, prealloc), vals: make([]float64, 0, prealloc)}
		prev := int64(0)
		for i := uint64(0); i < nPts; i++ {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				prev = d
			} else {
				prev += d
			}
			c.times = append(c.times, ts.Time(prev))
		}
		for i := uint64(0); i < nPts; i++ {
			v, err := readFloatBits(br)
			if err != nil {
				return nil, err
			}
			c.vals = append(c.vals, v)
		}
		c.recomputeSummary()
		return c, nil
	case chunkFormCompressed:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		c := &chunk{slot: slot, n: int(n)}
		if c.sum, err = readFloatBits(br); err != nil {
			return nil, err
		}
		if c.minV, err = readFloatBits(br); err != nil {
			return nil, err
		}
		if c.maxV, err = readFloatBits(br); err != nil {
			return nil, err
		}
		blen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if blen > maxSnapBlockLen {
			return nil, fmt.Errorf("tsstore: corrupt snapshot: compressed block of %d bytes exceeds cap %d", blen, maxSnapBlockLen)
		}
		if c.enc, err = readBytes(br, blen); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("tsstore: unknown chunk form %d", form)
	}
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n]) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
}

func writeFloatBits(w *bufio.Writer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	w.Write(buf[:]) //hyvet:allow walerrlatch bufio.Writer latches its first error; Save's checked Flush reports it
}

// readBytes reads exactly n bytes, allocating at most snapPrealloc ahead of
// the data read.
func readBytes(br *bufio.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, snapPrealloc))
	for uint64(len(buf)) < n {
		step := int(min(n-uint64(len(buf)), snapPrealloc))
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(br, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readFloatBits(br *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
