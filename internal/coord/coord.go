// Package coord horizontally partitions the polyglot engine: stations (and
// their series plus incident trip edges) are hash-partitioned across N
// independent durable engines (ttdb.DurablePolyglot) behind a placement map,
// and a scatter-gather coordinator plans Q1–Q8 as partition-local fragments
// executed in parallel and merged deterministically; HyQL matches against the
// coordinator's structure and reads each series on the partition that owns it.
//
// Determinism discipline (the same insertion-sequence rule the striped stores
// use): the coordinator allocates monotonically increasing global station ids
// (gids) at ingest, and every multi-partition merge orders fragment rows by
// gid before folding. Since gid order IS single-engine ingest order, the
// merged fold visits rows in exactly the order the unpartitioned oracle's
// hypertable-insertion-order fold does — partitioned answers are element-wise
// identical to the single-engine answers at any partition count.
//
// Cross-partition trip edges are handled by boundary-vertex replication: when
// a trip joins stations owned by different partitions, each side's partition
// gets a graph-only replica of the remote endpoint (labeled "Boundary", never
// "Station", so partition-local invariants and Q4–Q6 enumeration don't see
// it) and a local copy of the edge. Adjacency queries (Q8) therefore resolve
// entirely inside the home partition, and only the per-neighbor aggregates
// fan back out to the neighbors' owners.
//
// Failure semantics follow the durable layer's degraded-mode contract: a
// faulted or degraded partition contributes a typed partial (PartialError,
// satisfying errors.Is(err, ttdb.ErrDegraded)) with exact accounting of which
// partitions answered, and a done context always wins over a partial answer.
package coord

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// seriesKey is the hypertable key of a partition-LOCAL station id, the same
// (entity, metric) convention the single-process engine uses.
func seriesKey(local ttdb.StationID) tsstore.SeriesKey {
	return tsstore.SeriesKey{Entity: uint32(local), Metric: ttdb.Metric}
}

// Factory builds the durable engine backing one partition. The coordinator
// calls it at construction and again on Repartition; part is the partition
// index the engine will serve.
type Factory func(part int) (*ttdb.DurablePolyglot, error)

// stationMeta is the coordinator's placement record for one station.
type stationMeta struct {
	gid      ttdb.StationID // coordinator-global id (monotone in ingest order)
	name     string
	district string
	part     int            // owning partition
	local    ttdb.StationID // node id inside the owner
	// replicas maps partition index -> boundary-vertex node id for every
	// partition holding a graph-only copy of this station.
	replicas map[int]ttdb.StationID
}

// tripRec remembers one logical trip edge in coordinator id space, so
// Repartition can replay topology and Structure can lay out the HyQL graph.
type tripRec struct {
	a, b  ttdb.StationID // gids
	count int
}

// Coordinator is the partitioned engine. It implements ttdb.Engine — loading
// plus Exec, with typed partial results — so it drops into every harness the
// single-process engines run under.
type Coordinator struct {
	mu      sync.RWMutex
	factory Factory
	parts   []*ttdb.DurablePolyglot
	nextGid uint64
	order   []ttdb.StationID                    // gids in ingest order (ascending)
	meta    map[ttdb.StationID]*stationMeta     // by gid
	local2g []map[ttdb.StationID]ttdb.StationID // per-partition: local station id -> gid
	bnd2g   []map[ttdb.StationID]ttdb.StationID // per-partition: boundary node id -> gid
	trips   []tripRec
	obs     coordObs
}

// New builds a coordinator over n partitions created by the factory.
func New(n int, factory Factory) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("coord: need at least one partition, got %d", n)
	}
	c := &Coordinator{
		factory: factory,
		nextGid: 1,
		meta:    map[ttdb.StationID]*stationMeta{},
	}
	for i := 0; i < n; i++ {
		p, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("coord: partition %d: %w", i, err)
		}
		c.parts = append(c.parts, p)
		c.local2g = append(c.local2g, map[ttdb.StationID]ttdb.StationID{})
		c.bnd2g = append(c.bnd2g, map[ttdb.StationID]ttdb.StationID{})
	}
	return c, nil
}

// NewMem builds a coordinator over n in-memory partitions (logs discarded) —
// the configuration benches and tests use.
func NewMem(n int, chunkWidth ts.Time) (*Coordinator, error) {
	return New(n, func(int) (*ttdb.DurablePolyglot, error) {
		return ttdb.NewDurable(chunkWidth, io.Discard, io.Discard, io.Discard), nil
	})
}

// owner is the placement map: FNV-1a over the station name modulo the
// partition count. Pure function of (name, partition count), so a reopened
// coordinator places new stations consistently with an attached one.
func ownerOf(name string, nparts int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(nparts))
}

// NumPartitions reports the partition count.
func (c *Coordinator) NumPartitions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.parts)
}

// Parts exposes the backing partitions (for sync, recovery and tests). The
// slice is a copy; the engines are shared.
func (c *Coordinator) Parts() []*ttdb.DurablePolyglot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*ttdb.DurablePolyglot, len(c.parts))
	copy(out, c.parts)
	return out
}

// NumStations reports the number of live stations across all partitions.
func (c *Coordinator) NumStations() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.order)
}

// Name implements ttdb.Engine.
func (c *Coordinator) Name() string { return "coord" }

// SetWorkers implements ttdb.Engine: the width applies inside each
// partition's own Q4–Q8 fan-out; the coordinator's scatter always runs one
// goroutine per partition.
func (c *Coordinator) SetWorkers(n int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.parts {
		p.SetWorkers(n)
	}
}

// SetGroupCommit forwards the WAL batching width to every partition's group
// writers.
func (c *Coordinator) SetGroupCommit(n int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.parts {
		p.SetGroupCommit(n)
	}
}

// IngestStation places and durably ingests a station with its series,
// returning its coordinator-global id.
func (c *Coordinator) IngestStation(name, district string, s *ts.Series) (ttdb.StationID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	part := ownerOf(name, len(c.parts))
	local, err := c.parts[part].IngestStation(name, district, s)
	if err != nil {
		return 0, fmt.Errorf("coord: partition %d: %w", part, err)
	}
	gid := ttdb.StationID(c.nextGid)
	c.nextGid++
	if err := c.parts[part].TagStation(local, uint64(gid)); err != nil {
		return 0, fmt.Errorf("coord: partition %d: %w", part, err)
	}
	c.meta[gid] = &stationMeta{
		gid: gid, name: name, district: district,
		part: part, local: local,
		replicas: map[int]ttdb.StationID{},
	}
	c.order = append(c.order, gid)
	c.local2g[part][local] = gid
	c.obs.ingests.Inc()
	return gid, nil
}

// AddStation implements ttdb.Engine: an ingest with an empty series (the
// series arrives later via LoadSeries, like the Table 1 loading path).
func (c *Coordinator) AddStation(name, district string) (ttdb.StationID, error) {
	return c.IngestStation(name, district, ts.New(ttdb.Metric))
}

// LoadSeries implements ttdb.Engine: the points go to the owning partition.
func (c *Coordinator) LoadSeries(st ttdb.StationID, s *ts.Series) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meta[st]
	if !ok {
		return fmt.Errorf("coord: load series: unknown station %d", st)
	}
	return c.parts[m.part].LoadSeries(m.local, s)
}

// AppendPoint streams one observation to the owning partition.
func (c *Coordinator) AppendPoint(st ttdb.StationID, t ts.Time, v float64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meta[st]
	if !ok {
		return fmt.Errorf("coord: append point: unknown station %d", st)
	}
	return c.parts[m.part].AppendPoint(m.local, t, v)
}

// ensureReplicaLocked materializes (or reuses) the boundary vertex of m
// inside partition part. Caller holds the write lock.
func (c *Coordinator) ensureReplicaLocked(m *stationMeta, part int) (ttdb.StationID, error) {
	if r, ok := m.replicas[part]; ok {
		return r, nil
	}
	id, err := c.parts[part].AddBoundary(uint64(m.gid))
	if err != nil {
		return 0, err
	}
	m.replicas[part] = id
	c.bnd2g[part][id] = m.gid
	c.obs.replicas.Inc()
	return id, nil
}

// AddTrip implements ttdb.Engine. A same-partition trip is one local edge; a
// cross-partition trip is mirrored into both partitions via boundary-vertex
// replication (each side gets a local edge to a graph-only replica of the
// remote endpoint, direction preserved), so adjacency resolves locally
// everywhere.
func (c *Coordinator) AddTrip(a, b ttdb.StationID, count int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ma, ok := c.meta[a]
	if !ok {
		return fmt.Errorf("coord: add trip: unknown station %d", a)
	}
	mb, ok := c.meta[b]
	if !ok {
		return fmt.Errorf("coord: add trip: unknown station %d", b)
	}
	if err := c.addTripLocked(ma, mb, count); err != nil {
		return err
	}
	c.trips = append(c.trips, tripRec{a: a, b: b, count: count})
	return nil
}

func (c *Coordinator) addTripLocked(ma, mb *stationMeta, count int) error {
	if ma.part == mb.part {
		if err := c.parts[ma.part].AddTrip(ma.local, mb.local, count); err != nil {
			return fmt.Errorf("coord: partition %d: %w", ma.part, err)
		}
		return nil
	}
	rb, err := c.ensureReplicaLocked(mb, ma.part)
	if err != nil {
		return fmt.Errorf("coord: partition %d: %w", ma.part, err)
	}
	if err := c.parts[ma.part].AddTrip(ma.local, rb, count); err != nil {
		return fmt.Errorf("coord: partition %d: %w", ma.part, err)
	}
	ra, err := c.ensureReplicaLocked(ma, mb.part)
	if err != nil {
		return fmt.Errorf("coord: partition %d: %w", mb.part, err)
	}
	if err := c.parts[mb.part].AddTrip(ra, mb.local, count); err != nil {
		return fmt.Errorf("coord: partition %d: %w", mb.part, err)
	}
	c.obs.crossEdges.Inc()
	return nil
}

// DeleteStation durably removes a station everywhere: its node and series
// from the owner (incident edges go with the node), and every boundary
// replica (with its mirrored edges) from the other partitions. Unknown ids
// are a no-op, matching the durable layer's idempotent deletes. Boundary
// replicas of OTHER stations that existed only for trips with the deleted
// one are left behind edgeless; they are invisible to every query (Boundary
// label, no series) and reconstruction tolerates them.
func (c *Coordinator) DeleteStation(st ttdb.StationID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.meta[st]
	if !ok {
		return nil
	}
	if err := c.parts[m.part].DeleteStation(m.local); err != nil {
		return fmt.Errorf("coord: partition %d: %w", m.part, err)
	}
	for part := 0; part < len(c.parts); part++ {
		rid, ok := m.replicas[part]
		if !ok {
			continue
		}
		if err := c.parts[part].DeleteBoundary(rid); err != nil {
			return fmt.Errorf("coord: partition %d: %w", part, err)
		}
		delete(c.bnd2g[part], rid)
	}
	delete(c.local2g[m.part], m.local)
	delete(c.meta, st)
	for i, gid := range c.order {
		if gid == st {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	kept := c.trips[:0]
	for _, tr := range c.trips {
		if tr.a != st && tr.b != st {
			kept = append(kept, tr)
		}
	}
	c.trips = kept
	return nil
}

// Repartition rebuilds the coordinator over n fresh partitions from the
// factory, re-placing every station (series extracted from its old owner)
// and replaying every trip. Global ids are preserved, so answers are
// invariant under repartitioning — the property the invariance battery
// proves. The old partitions are abandoned; callers owning external
// resources close them via the handles they kept.
func (c *Coordinator) Repartition(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		return fmt.Errorf("coord: need at least one partition, got %d", n)
	}
	oldMeta, oldParts := c.meta, c.parts
	parts := make([]*ttdb.DurablePolyglot, 0, n)
	local2g := make([]map[ttdb.StationID]ttdb.StationID, 0, n)
	bnd2g := make([]map[ttdb.StationID]ttdb.StationID, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.factory(i)
		if err != nil {
			return fmt.Errorf("coord: repartition: partition %d: %w", i, err)
		}
		parts = append(parts, p)
		local2g = append(local2g, map[ttdb.StationID]ttdb.StationID{})
		bnd2g = append(bnd2g, map[ttdb.StationID]ttdb.StationID{})
	}
	meta := make(map[ttdb.StationID]*stationMeta, len(oldMeta))
	c.parts, c.local2g, c.bnd2g, c.meta = parts, local2g, bnd2g, meta
	for _, gid := range c.order {
		om := oldMeta[gid]
		series := oldParts[om.part].Engine().T.RangeSeries(seriesKey(om.local), math.MinInt64, ts.MaxTime)
		if series == nil {
			series = ts.New(ttdb.Metric)
		} else {
			series.SetName(ttdb.Metric)
		}
		part := ownerOf(om.name, n)
		local, err := parts[part].IngestStation(om.name, om.district, series)
		if err != nil {
			return fmt.Errorf("coord: repartition: partition %d: %w", part, err)
		}
		if err := parts[part].TagStation(local, uint64(gid)); err != nil {
			return fmt.Errorf("coord: repartition: partition %d: %w", part, err)
		}
		meta[gid] = &stationMeta{
			gid: gid, name: om.name, district: om.district,
			part: part, local: local,
			replicas: map[int]ttdb.StationID{},
		}
		local2g[part][local] = gid
	}
	for _, tr := range c.trips {
		if err := c.addTripLocked(meta[tr.a], meta[tr.b], tr.count); err != nil {
			return fmt.Errorf("coord: repartition: %w", err)
		}
	}
	c.obs.repartitions.Inc()
	return nil
}

// SyncAll drains every partition's logs; the first failure names the
// partition.
func (c *Coordinator) SyncAll() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, p := range c.parts {
		if err := p.SyncAll(); err != nil {
			return fmt.Errorf("coord: partition %d: %w", i, err)
		}
	}
	return nil
}
