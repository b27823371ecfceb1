package coord

import (
	"fmt"
	"sort"

	"hygraph/internal/storage/graphstore"
	"hygraph/internal/storage/ttdb"
)

// Attach reconstructs a coordinator over already-recovered partitions — the
// reopen path: each partition's graph is self-describing (stations and
// boundary replicas carry their global id as the "gid" property), so the
// placement map, replica sets and trip topology all rebuild from partition
// state alone, no separate coordinator manifest to keep consistent.
//
// A Station node without a gid was written by a single-engine server, which
// gave its clients the node id as the station id; Attach adopts it under
// that id. If a tagged station already holds the id (only a crash leftover
// from before ingests wrote their gid, which no server acknowledged, can be
// in that state), or an untagged station of an earlier partition took it,
// the node is skipped. A boundary replica whose gid no longer resolves (its
// station was deleted) is skipped too. Trips are recovered in canonical
// partition-major order, which may differ from original ingest order; every
// query answer is invariant under trip order, so reattached answers match
// the original coordinator's.
//
// The factory is retained for Repartition; it is not called during Attach.
func Attach(parts []*ttdb.DurablePolyglot, factory Factory) (*Coordinator, error) {
	if len(parts) < 1 {
		return nil, fmt.Errorf("coord: attach needs at least one partition")
	}
	c := &Coordinator{factory: factory, nextGid: 1}
	c.take(append([]*ttdb.DurablePolyglot(nil), parts...))
	// Pass 1: stations. Tagged ones first, so an untagged node never takes
	// an id a tagged station holds.
	type untagged struct {
		part  int
		local ttdb.StationID
	}
	var adopt []untagged
	for p, eng := range parts {
		g := eng.Engine().G
		for _, local := range g.NodesByLabel("Station") {
			gv, ok := g.NodeProp(local, "gid")
			if !ok {
				adopt = append(adopt, untagged{p, local})
				continue
			}
			gid := ttdb.StationID(gv.I)
			if prev, dup := c.meta[gid]; dup {
				return nil, fmt.Errorf("coord: attach: gid %d in partitions %d and %d", gid, prev.part, p)
			}
			c.place(p, local, gid)
		}
	}
	for _, u := range adopt {
		if _, taken := c.meta[u.local]; !taken {
			c.place(u.part, u.local, u.local)
		}
	}
	c.order = make([]ttdb.StationID, 0, len(c.meta))
	for gid := range c.meta {
		c.order = append(c.order, gid)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	// Pass 2: boundary replicas, linked back to their stations by gid.
	for p, eng := range parts {
		g := eng.Engine().G
		for _, local := range g.NodesByLabel("Boundary") {
			gv, ok := g.NodeProp(local, "gid")
			if !ok {
				continue
			}
			gid := ttdb.StationID(gv.I)
			m, ok := c.meta[gid]
			if !ok {
				continue // replica of a deleted station: edgeless leftover
			}
			m.replicas[p] = local
			c.bnd2g[p][local] = gid
		}
	}
	// Pass 3: trips. Every logical trip has exactly one copy whose From
	// endpoint is a Station node (the mirrored cross-partition copy hangs off
	// a Boundary node), so iterating outgoing rels of stations only visits
	// each trip once across all partitions.
	for p, eng := range parts {
		g := eng.Engine().G
		seen := map[graphstore.RelID]bool{}
		for _, local := range g.NodesByLabel("Station") {
			from, ok := c.local2g[p][local]
			if !ok {
				continue
			}
			g.Rels(local, func(r graphstore.Rel) bool {
				if r.Type != "TRIP" || r.From != local || seen[r.ID] {
					return true
				}
				seen[r.ID] = true
				to, ok := c.local2g[p][r.To]
				if !ok {
					if to, ok = c.bnd2g[p][r.To]; !ok {
						return true
					}
				}
				count := 0
				if cv, ok := g.RelProp(r.ID, "count"); ok {
					count = int(cv.I)
				}
				c.trips = append(c.trips, tripRec{a: from, b: to, count: count})
				return true
			})
		}
	}
	return c, nil
}

// place records the station stored as node local of partition p under gid,
// reading its name and district from the partition's graph. Attach calls it
// before the coordinator is shared.
func (c *Coordinator) place(p int, local, gid ttdb.StationID) {
	g := c.parts[p].Engine().G
	name, district := "", "?"
	if v, ok := g.NodeProp(local, "name"); ok {
		name = v.S
	}
	if v, ok := g.NodeProp(local, "district"); ok {
		district = v.S
	}
	c.meta[gid] = &stationMeta{
		gid: gid, name: name, district: district,
		part: p, local: local,
		replicas: map[int]ttdb.StationID{},
	}
	c.local2g[p][local] = gid
	if uint64(gid) >= c.nextGid {
		c.nextGid = uint64(gid) + 1
	}
}
