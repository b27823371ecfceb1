// Package graphstore implements a Neo4j-style record-oriented graph store:
// node and relationship records with per-node adjacency, and properties
// stored as *linked chains of property records* holding typed payloads and
// interned keys.
//
// The design deliberately mirrors the storage layout that makes the paper's
// Table 1 happen: when a time series is stored "all in graph" — every
// (timestamp, value) pair as a separate property, as the paper's Neo4j
// baseline does — each access walks an O(n) property chain and decodes
// every record it passes. Range scans and aggregations over the series
// therefore degrade linearly with series length per entity, which is exactly
// the bottleneck the paper measures (Q4–Q8 at tens of seconds vs
// milliseconds in the polyglot layout).
package graphstore

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node record.
type NodeID uint32

// RelID identifies a relationship record.
type RelID uint32

// nilRef is the null pointer of record chains.
const nilRef = ^uint32(0)

// PropKind is the type tag of a property record.
type PropKind uint8

// Property kinds.
const (
	PropInt PropKind = iota
	PropFloat
	PropString
	PropBool
)

// PropValue is a decoded property value.
type PropValue struct {
	Kind PropKind
	I    int64
	F    float64
	S    string
	B    bool
}

// IntVal wraps an int64.
func IntVal(i int64) PropValue { return PropValue{Kind: PropInt, I: i} }

// FloatVal wraps a float64.
func FloatVal(f float64) PropValue { return PropValue{Kind: PropFloat, F: f} }

// StrVal wraps a string.
func StrVal(s string) PropValue { return PropValue{Kind: PropString, S: s} }

// BoolVal wraps a bool.
func BoolVal(b bool) PropValue { return PropValue{Kind: PropBool, B: b} }

// AsFloat widens numeric values to float64.
func (v PropValue) AsFloat() (float64, bool) {
	switch v.Kind {
	case PropFloat:
		return v.F, true
	case PropInt:
		return float64(v.I), true
	}
	return 0, false
}

// String renders the value.
func (v PropValue) String() string {
	switch v.Kind {
	case PropInt:
		return fmt.Sprintf("%d", v.I)
	case PropFloat:
		return fmt.Sprintf("%g", v.F)
	case PropString:
		return v.S
	case PropBool:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// nodeRec is a node record: label refs, incident relationship ids (append
// order, so newest-last; iteration reverses to keep Neo4j's newest-first
// chain order), and the head of its property chain.
type nodeRec struct {
	inUse     bool
	labels    []uint32
	adj       []uint32 // incident rel ids; self-loops appear once
	firstProp uint32
}

// relRec is a relationship record.
type relRec struct {
	inUse     bool
	from, to  NodeID
	typ       uint32
	firstProp uint32
}

// propRec is one property record in a chain. num carries int64 bits, float64
// bits, or bool; str references the interned string table.
type propRec struct {
	inUse bool
	key   uint32
	kind  PropKind
	num   uint64
	str   uint32
	next  uint32
}

// propStore holds one shard's property records and free list. It has no lock
// of its own: the owning shard's mutex guards it, and every method assumes
// that lock is held.
type propStore struct {
	recs []propRec
	free []uint32 // recycled property records
}

// alloc takes a record from the free list or grows the store.
func (ps *propStore) alloc() uint32 {
	if n := len(ps.free); n > 0 {
		ref := ps.free[n-1]
		ps.free = ps.free[:n-1]
		return ref
	}
	ps.recs = append(ps.recs, propRec{})
	return uint32(len(ps.recs) - 1)
}

// freeChain recycles every record of a property chain.
func (ps *propStore) freeChain(head uint32) {
	for ref := head; ref != nilRef; {
		next := ps.recs[ref].next
		ps.recs[ref] = propRec{}
		ps.free = append(ps.free, ref)
		ref = next
	}
}

// set walks the chain rooted at *head; if rec's key exists, the record is
// updated in place, otherwise a new record is prepended (Neo4j prepends new
// properties, so recently written properties are found fastest). rec must be
// fully encoded except its next pointer.
func (ps *propStore) set(head *uint32, rec propRec) {
	for ref := *head; ref != nilRef; ref = ps.recs[ref].next {
		if ps.recs[ref].key == rec.key {
			rec.next = ps.recs[ref].next
			ps.recs[ref] = rec
			return
		}
	}
	ref := ps.alloc()
	rec.next = *head
	ps.recs[ref] = rec
	*head = ref
}

// get walks a chain for the interned key.
func (ps *propStore) get(head uint32, kid uint32) (propRec, bool) {
	for ref := head; ref != nilRef; ref = ps.recs[ref].next {
		if ps.recs[ref].key == kid {
			return ps.recs[ref], true
		}
	}
	return propRec{}, false
}

// remove unlinks a key's record from a chain and recycles it.
func (ps *propStore) remove(head *uint32, kid uint32) bool {
	prev := nilRef
	for ref := *head; ref != nilRef; ref = ps.recs[ref].next {
		if ps.recs[ref].key == kid {
			if prev == nilRef {
				*head = ps.recs[ref].next
			} else {
				ps.recs[prev].next = ps.recs[ref].next
			}
			ps.recs[ref] = propRec{}
			ps.free = append(ps.free, ref)
			return true
		}
		prev = ref
	}
	return false
}

// strTable is the interned string table, shared by all shards. Interning
// takes its lock; id → string decoding is lock-free against an atomically
// published snapshot, so readers holding shard locks never touch this mutex
// (the table is innermost in the lock order and only writers reach it — see
// docs/PARALLELISM.md).
type strTable struct {
	mu    sync.RWMutex
	index map[string]uint32
	names []string
	snap  atomic.Value // []string; republished after every append
}

// intern returns the id of s, adding it if new. Never call with a shard
// mutex held: string interning happens before shard locks are taken.
func (t *strTable) intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index[s]; ok {
		return id
	}
	id = uint32(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = id
	t.snap.Store(t.names)
	return id
}

// lookup resolves an existing string without interning.
func (t *strTable) lookup(s string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.index[s]
	return id, ok
}

// name decodes an id from the published snapshot, without locking. Any id
// read from a record under a shard lock is covered: the string was interned
// (and the snapshot republished) before the record became visible.
func (t *strTable) name(id uint32) string {
	names, _ := t.snap.Load().([]string)
	return names[id]
}

// nodeShard is one lock stripe of the node records: nodes whose id ≡ shard
// index (mod shard count), their property records, and this stripe's slice
// of the label index. mu guards every field; *Locked methods assume it held.
type nodeShard struct {
	mu         sync.RWMutex
	nodes      []nodeRec
	props      propStore
	labelIndex map[uint32][]NodeID
}

// okLocked reports whether the local slot holds a live node.
func (sh *nodeShard) okLocked(local uint32) bool {
	return local < uint32(len(sh.nodes)) && sh.nodes[local].inUse
}

// growLocked extends the record array through the local slot; gap records
// (ids reserved by other writers, not yet created) stay dead until their
// creator fills them.
func (sh *nodeShard) growLocked(local uint32) {
	for uint32(len(sh.nodes)) <= local {
		sh.nodes = append(sh.nodes, nodeRec{firstProp: nilRef})
	}
}

// relShard is one lock stripe of the relationship records plus their
// property records.
type relShard struct {
	mu    sync.RWMutex
	rels  []relRec
	props propStore
}

func (rs *relShard) okLocked(local uint32) bool {
	return local < uint32(len(rs.rels)) && rs.rels[local].inUse
}

func (rs *relShard) growLocked(local uint32) {
	for uint32(len(rs.rels)) <= local {
		rs.rels = append(rs.rels, relRec{firstProp: nilRef})
	}
}

// DB is an in-memory record store. All exported methods are safe for
// concurrent use. Records are striped across a power-of-two array of
// independently locked shards by element id (shard = id & mask, local slot =
// id >> shift), so sequential ids round-robin across stripes and concurrent
// writers on different elements almost never share a lock. Ids come from
// atomic allocators and are never reused while the process lives.
//
// DeleteNode spans shards non-atomically; it exists for the single-writer
// crash-recovery path and must not race with other mutators (see
// docs/PARALLELISM.md).
type DB struct {
	mask  uint32
	shift uint

	nodeShards []nodeShard
	relShards  []relShard

	nextNode atomic.Uint64
	nextRel  atomic.Uint64

	str strTable

	obs storeObs // metric handles; zero value = instrumentation off
}

// DefaultShards is the lock-stripe count used by New.
const DefaultShards = 16

// New returns an empty store with DefaultShards lock stripes.
func New() *DB { return NewSharded(DefaultShards) }

// NewSharded is New with an explicit stripe count, rounded up to a power of
// two (<= 0 selects one stripe — the single-lock layout, used as the
// mixed-throughput baseline).
func NewSharded(shards int) *DB {
	n := 1
	for n < shards {
		n <<= 1
	}
	db := &DB{
		mask:       uint32(n - 1),
		shift:      uint(bits.TrailingZeros32(uint32(n))),
		nodeShards: make([]nodeShard, n),
		relShards:  make([]relShard, n),
	}
	for i := range db.nodeShards {
		db.nodeShards[i].labelIndex = map[uint32][]NodeID{}
	}
	db.str.index = map[string]uint32{}
	db.str.snap.Store([]string{})
	return db
}

func (db *DB) nodeShardOf(id NodeID) (*nodeShard, uint32) {
	return &db.nodeShards[uint32(id)&db.mask], uint32(id) >> db.shift
}

func (db *DB) relShardOf(id RelID) (*relShard, uint32) {
	return &db.relShards[uint32(id)&db.mask], uint32(id) >> db.shift
}

// NumNodes returns the number of live nodes.
func (db *DB) NumNodes() int {
	n := 0
	for i := range db.nodeShards {
		sh := &db.nodeShards[i]
		sh.mu.RLock()
		for j := range sh.nodes {
			if sh.nodes[j].inUse {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// AllocNodeID reserves the next node id without creating the node. Reserving
// first lets concurrent writers name their nodes in WAL records in any
// order; a reservation that never reaches a create record is simply
// forgotten by recovery (replay rebuilds the counter from create records
// only), so the id of an ingest that crashed before its node reached disk
// is reused by the next session.
func (db *DB) AllocNodeID() NodeID {
	return NodeID(db.nextNode.Add(1) - 1)
}

// AllocRelID reserves the next relationship id without creating the record.
func (db *DB) AllocRelID() RelID {
	return RelID(db.nextRel.Add(1) - 1)
}

// bumpNode raises the node allocator above id (explicit-id creates during
// replay move it forward).
func (db *DB) bumpNode(id NodeID) {
	for {
		cur := db.nextNode.Load()
		if cur > uint64(id) {
			return
		}
		if db.nextNode.CompareAndSwap(cur, uint64(id)+1) {
			return
		}
	}
}

func (db *DB) bumpRel(id RelID) {
	for {
		cur := db.nextRel.Load()
		if cur > uint64(id) {
			return
		}
		if db.nextRel.CompareAndSwap(cur, uint64(id)+1) {
			return
		}
	}
}

// NodeExists reports whether id names a live node (false for deleted or
// merely reserved ids).
func (db *DB) NodeExists(id NodeID) bool {
	sh, local := db.nodeShardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.okLocked(local)
}

func (db *DB) relExists(id RelID) bool {
	rs, local := db.relShardOf(id)
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.okLocked(local)
}

// CreateNode allocates a node with the given labels.
func (db *DB) CreateNode(labels ...string) NodeID {
	id := db.AllocNodeID()
	db.createNodeAt(id, labels)
	return id
}

// CreateNodeAt creates a node under an explicit id (WAL replay and the
// durable ingest layer, which reserves ids up front so concurrent writers'
// log records stay order-independent). The allocator is bumped past id.
func (db *DB) CreateNodeAt(id NodeID, labels ...string) {
	db.bumpNode(id)
	db.createNodeAt(id, labels)
}

func (db *DB) createNodeAt(id NodeID, labels []string) {
	db.obs.writes.Inc()
	lids := make([]uint32, len(labels))
	for i, l := range labels {
		lids[i] = db.str.intern(l)
	}
	sh, local := db.nodeShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.growLocked(local)
	rec := &sh.nodes[local]
	rec.inUse = true
	rec.labels = lids
	rec.adj = nil
	rec.firstProp = nilRef
	for _, lid := range lids {
		sh.labelIndex[lid] = append(sh.labelIndex[lid], id)
	}
}

// CreateRel allocates a relationship from -> to of the given type and
// threads it into both endpoints' adjacency.
func (db *DB) CreateRel(from, to NodeID, typ string) (RelID, error) {
	db.obs.writes.Inc()
	if !db.NodeExists(from) || !db.NodeExists(to) {
		return 0, fmt.Errorf("graphstore: endpoints %d->%d missing", from, to)
	}
	id := db.AllocRelID()
	db.createRelAt(id, from, to, typ)
	return id, nil
}

// CreateRelAt is CreateRel under an explicit, pre-reserved id (WAL replay).
func (db *DB) CreateRelAt(id RelID, from, to NodeID, typ string) error {
	db.obs.writes.Inc()
	if !db.NodeExists(from) || !db.NodeExists(to) {
		return fmt.Errorf("graphstore: endpoints %d->%d missing", from, to)
	}
	db.bumpRel(id)
	db.createRelAt(id, from, to, typ)
	return nil
}

func (db *DB) createRelAt(id RelID, from, to NodeID, typ string) {
	tid := db.str.intern(typ)
	rs, local := db.relShardOf(id)
	rs.mu.Lock()
	rs.growLocked(local)
	rs.rels[local] = relRec{inUse: true, from: from, to: to, typ: tid, firstProp: nilRef}
	rs.mu.Unlock()
	// Thread into the endpoints' adjacency only after the record is visible,
	// so a reader that finds the id in an adjacency list always finds a live
	// record behind it. Self-loops are threaded once.
	db.appendAdj(from, uint32(id))
	if to != from {
		db.appendAdj(to, uint32(id))
	}
}

func (db *DB) appendAdj(n NodeID, rid uint32) {
	sh, local := db.nodeShardOf(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.okLocked(local) {
		sh.nodes[local].adj = append(sh.nodes[local].adj, rid)
	}
}

func (db *DB) removeAdj(n NodeID, rid uint32) {
	sh, local := db.nodeShardOf(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if local >= uint32(len(sh.nodes)) {
		return
	}
	adj := sh.nodes[local].adj
	for i, r := range adj {
		if r == rid {
			sh.nodes[local].adj = append(adj[:i], adj[i+1:]...)
			return
		}
	}
}

// deleteRel removes a relationship: recycles its properties, marks the
// record dead and unlinks it from both endpoints' adjacency. Record ids are
// never reused.
func (db *DB) deleteRel(id RelID) error {
	rs, local := db.relShardOf(id)
	rs.mu.Lock()
	if !rs.okLocked(local) {
		rs.mu.Unlock()
		return fmt.Errorf("graphstore: no rel %d", id)
	}
	r := rs.rels[local]
	rs.props.freeChain(r.firstProp)
	rs.rels[local] = relRec{firstProp: nilRef}
	rs.mu.Unlock()
	db.removeAdj(r.from, uint32(id))
	if r.to != r.from {
		db.removeAdj(r.to, uint32(id))
	}
	return nil
}

// DeleteNode removes a node along with its incident relationships and
// properties, and drops it from the label index. The crash-recovery layer
// uses this to roll back a half-ingested entity; node ids are never reused
// while the process lives, so later WAL records stay valid. Part of the
// single-writer recovery path.
func (db *DB) DeleteNode(id NodeID) error {
	db.obs.writes.Inc()
	sh, local := db.nodeShardOf(id)
	sh.mu.Lock()
	if !sh.okLocked(local) {
		sh.mu.Unlock()
		return fmt.Errorf("graphstore: no node %d", id)
	}
	incident := append([]uint32(nil), sh.nodes[local].adj...)
	sh.mu.Unlock()
	for _, rid := range incident {
		// Ignore records already reclaimed while we weren't holding the lock.
		_ = db.deleteRel(RelID(rid))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.okLocked(local) {
		return fmt.Errorf("graphstore: no node %d", id)
	}
	sh.props.freeChain(sh.nodes[local].firstProp)
	for _, lid := range sh.nodes[local].labels {
		ids := sh.labelIndex[lid]
		for i, nid := range ids {
			if nid == id {
				sh.labelIndex[lid] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	sh.nodes[local] = nodeRec{firstProp: nilRef}
	return nil
}

// NodesByLabel returns the nodes carrying the label in creation order
// (ascending id; ids are allocated in creation order).
func (db *DB) NodesByLabel(label string) []NodeID {
	db.obs.reads.Inc()
	lid, ok := db.str.lookup(label)
	if !ok {
		return nil
	}
	var out []NodeID
	for i := range db.nodeShards {
		sh := &db.nodeShards[i]
		sh.mu.RLock()
		for _, id := range sh.labelIndex[lid] {
			if sh.okLocked(uint32(id) >> db.shift) {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeRec interns the key (and a string payload) and packs the value into
// a property record. Interning happens here, before any shard lock is taken.
func (db *DB) encodeRec(key string, val PropValue) propRec {
	p := propRec{inUse: true, key: db.str.intern(key), kind: val.Kind}
	switch val.Kind {
	case PropInt:
		p.num = uint64(val.I)
	case PropFloat:
		p.num = math.Float64bits(val.F)
	case PropBool:
		if val.B {
			p.num = 1
		}
	case PropString:
		p.str = db.str.intern(val.S)
	}
	return p
}

func (db *DB) decodeProp(p propRec) PropValue {
	switch p.kind {
	case PropInt:
		return IntVal(int64(p.num))
	case PropFloat:
		return FloatVal(math.Float64frombits(p.num))
	case PropBool:
		return BoolVal(p.num != 0)
	case PropString:
		return StrVal(db.str.name(p.str))
	}
	return PropValue{}
}

// SetNodeProp sets a property on a node.
func (db *DB) SetNodeProp(id NodeID, key string, val PropValue) error {
	db.obs.writes.Inc()
	rec := db.encodeRec(key, val)
	sh, local := db.nodeShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.okLocked(local) {
		return fmt.Errorf("graphstore: no node %d", id)
	}
	sh.props.set(&sh.nodes[local].firstProp, rec)
	return nil
}

// NodeProp reads a property from a node, walking its chain.
func (db *DB) NodeProp(id NodeID, key string) (PropValue, bool) {
	db.obs.reads.Inc()
	kid, ok := db.str.lookup(key)
	if !ok {
		return PropValue{}, false
	}
	sh, local := db.nodeShardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !sh.okLocked(local) {
		return PropValue{}, false
	}
	p, ok := sh.props.get(sh.nodes[local].firstProp, kid)
	if !ok {
		return PropValue{}, false
	}
	return db.decodeProp(p), true
}

// RemoveNodeProp deletes a node property.
func (db *DB) RemoveNodeProp(id NodeID, key string) bool {
	db.obs.writes.Inc()
	kid, ok := db.str.lookup(key)
	if !ok {
		return false
	}
	sh, local := db.nodeShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.okLocked(local) {
		return false
	}
	return sh.props.remove(&sh.nodes[local].firstProp, kid)
}

// SetRelProp sets a property on a relationship.
func (db *DB) SetRelProp(id RelID, key string, val PropValue) error {
	db.obs.writes.Inc()
	rec := db.encodeRec(key, val)
	rs, local := db.relShardOf(id)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.okLocked(local) {
		return fmt.Errorf("graphstore: no rel %d", id)
	}
	rs.props.set(&rs.rels[local].firstProp, rec)
	return nil
}

// RelProp reads a relationship property.
func (db *DB) RelProp(id RelID, key string) (PropValue, bool) {
	db.obs.reads.Inc()
	kid, ok := db.str.lookup(key)
	if !ok {
		return PropValue{}, false
	}
	rs, local := db.relShardOf(id)
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if !rs.okLocked(local) {
		return PropValue{}, false
	}
	p, ok := rs.props.get(rs.rels[local].firstProp, kid)
	if !ok {
		return PropValue{}, false
	}
	return db.decodeProp(p), true
}

// NodeProps walks a node's full property chain, calling fn with every
// key/value. This is the scan primitive that all-in-graph time-series
// queries are forced through. fn runs under the node's shard read lock and
// must not mutate the store.
func (db *DB) NodeProps(id NodeID, fn func(key string, val PropValue) bool) {
	db.obs.reads.Inc()
	sh, local := db.nodeShardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.propsLocked(db, local, fn)
}

// propsLocked walks the chain under the held shard lock. Records visited are
// accumulated locally and published with one atomic add, so instrumented
// chain scans don't pay a per-record atomic.
func (sh *nodeShard) propsLocked(db *DB, local uint32, fn func(string, PropValue) bool) {
	if !sh.okLocked(local) {
		return
	}
	visited := int64(0)
	for ref := sh.nodes[local].firstProp; ref != nilRef; ref = sh.props.recs[ref].next {
		visited++
		p := sh.props.recs[ref]
		if !fn(db.str.name(p.key), db.decodeProp(p)) {
			break
		}
	}
	db.obs.propScanned.Add(visited)
}

// Rel describes a relationship during iteration.
type Rel struct {
	ID   RelID
	From NodeID
	To   NodeID
	Type string
}

// Rels walks the relationships of a node (both directions interleaved, most
// recent first), calling fn for each. The adjacency is snapshotted under the
// node's shard lock and each record is resolved under its own rel-shard
// lock, so fn itself runs with no lock held and may issue reads against the
// same store.
func (db *DB) Rels(id NodeID, fn func(Rel) bool) {
	db.obs.reads.Inc()
	for _, r := range db.relsOf(id) {
		if !fn(r) {
			return
		}
	}
}

func (db *DB) relsOf(id NodeID) []Rel {
	sh, local := db.nodeShardOf(id)
	sh.mu.RLock()
	var adj []uint32
	if sh.okLocked(local) {
		adj = append(adj, sh.nodes[local].adj...)
	}
	sh.mu.RUnlock()
	out := make([]Rel, 0, len(adj))
	for i := len(adj) - 1; i >= 0; i-- { // newest first
		rid := RelID(adj[i])
		rs, rlocal := db.relShardOf(rid)
		rs.mu.RLock()
		if rs.okLocked(rlocal) {
			r := rs.rels[rlocal]
			out = append(out, Rel{ID: rid, From: r.from, To: r.to, Type: db.str.name(r.typ)})
		}
		rs.mu.RUnlock()
	}
	return out
}

// Neighbors returns distinct adjacent nodes over any relationship direction.
func (db *DB) Neighbors(id NodeID, typ string) []NodeID {
	db.obs.reads.Inc()
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, r := range db.relsOf(id) {
		if typ != "" && r.Type != typ {
			continue
		}
		other := r.To
		if r.To == id {
			other = r.From
		}
		if other != id && !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	return out
}
