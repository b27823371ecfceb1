package coord

import (
	"cmp"
	"context"
	"math"
	"slices"

	"hygraph/internal/faults"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// Exec plans one query over the partitions (docs/PARTITIONING.md has the
// routing table): the single-station operations and a co-located Q7 are
// rewritten from coordinator ids to the owner's local ids and routed there;
// Q4–Q6 scatter one summary fragment to every partition and merge by gid; a
// cross-partition Q7 fetches both point sets; Q8 resolves adjacency at home
// and scatters per-neighbor means to the neighbors' owners. A lost partition
// turns the answer into a typed partial beside a *PartialError; a done
// context wins over any answer. Unknown stations answer like a single
// engine probing an absent series.
func (c *Coordinator) Exec(ctx context.Context, q ttdb.Query) (ttdb.Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return ttdb.Result{}, err
	}
	if err := q.Validate(); err != nil {
		return ttdb.Result{}, err
	}
	res := ttdb.Result{Op: q.Op}
	var perr *PartialError
	switch q.Op {
	case ttdb.OpQ4, ttdb.OpQ5, ttdb.OpQ6:
		res, perr = c.summariesLocked(ctx, q)
	case ttdb.OpQ7:
		res, perr = c.correlationLocked(ctx, q)
	case ttdb.OpQ8:
		res, perr = c.neighborMeansLocked(ctx, q)
	default:
		if m, ok := c.meta[q.Station]; ok {
			q.Station = m.local
			res, perr = c.routeLocked(ctx, m.part, q)
		}
	}
	if err := ctx.Err(); err != nil {
		return ttdb.Result{}, err
	}
	if perr != nil {
		return res, perr
	}
	return res, nil
}

// routeLocked sends a query already rewritten to partition-local ids to its
// single owner, with the fault-point and accounting discipline of a
// one-element scatter, on the calling goroutine and without allocating. A
// failed owner leaves nothing to answer with. Caller holds at least the read
// lock.
func (c *Coordinator) routeLocked(ctx context.Context, part int, local ttdb.Query) (ttdb.Result, *PartialError) {
	span := c.startScatterLocked(local.Op, 1)
	defer span.End()
	err := faults.CheckCtx(ctx, c.faults[part])
	if err == nil {
		var res ttdb.Result
		if res, err = c.parts[part].Exec(ctx, local); err == nil {
			return res, nil
		}
	}
	return ttdb.Result{Op: local.Op}, c.partialLocked(local.Op, []int{part}, []error{err})
}

// summariesLocked answers Q4–Q6. It scatters the fragment (per-entity
// summaries over the window) to every partition and lifts each partition's
// rows into gid space. Entities without a coordinator mapping (none in a
// consistent deployment) are dropped. A fragment comes in its partition's
// insertion order, which is gid order for every station the coordinator
// ingested or Repartition replayed, so each partition's rows are lifted as
// one ascending run. A run that does not ascend — Attach adopting an
// untagged station under a node id below the gid of a station written
// before it — is sorted first.
//
// The rows handed to ttdb.FromSummaries are then c.order's stations, which
// ascend too, each taken from the head of its run with no merged copy made:
// a station of a failed partition gets a zero summary, so the partial
// degrades in place — zero means in Q4, zero contribution to its district
// in Q5, absent from the Q6 ranking. Gid order is single-engine ingest
// order, so Q5's fold matches the oracle's hypertable-insertion-order fold
// exactly; its districts come from the placement map, which agrees with the
// partitions' graph properties by construction. Caller holds at least the
// read lock.
func (c *Coordinator) summariesLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	frags := make([][]tsstore.EntitySummary, len(c.parts))
	perr := c.scatterLocked(ctx, q.Op, c.allPartsLocked(), func(p int) error {
		s, err := c.parts[p].EntitySummariesCtx(ctx, q.Start, q.End)
		if err != nil {
			return err
		}
		frags[p] = s
		return nil
	})
	for p, frag := range frags {
		lifted, ascending := frag[:0], true
		for _, e := range frag {
			if gid, ok := c.local2g[p][ttdb.StationID(e.Entity)]; ok {
				ascending = ascending && (len(lifted) == 0 || lifted[len(lifted)-1].Entity < uint32(gid))
				e.Entity = uint32(gid)
				lifted = append(lifted, e)
			}
		}
		if !ascending {
			slices.SortFunc(lifted, func(a, b tsstore.EntitySummary) int { return cmp.Compare(a.Entity, b.Entity) })
		}
		frags[p] = lifted
	}
	rows := make([]tsstore.EntitySummary, 0, len(c.order))
	var districts []string
	if q.Op == ttdb.OpQ5 {
		districts = make([]string, 0, len(c.order))
	}
	for _, gid := range c.order {
		p := 0
		for p < len(frags) && (len(frags[p]) == 0 || frags[p][0].Entity != uint32(gid)) {
			p++
		}
		switch {
		case p < len(frags):
			rows = append(rows, frags[p][0])
			frags[p] = frags[p][1:]
		case perr != nil && perr.Failed[c.meta[gid].part] != nil:
			rows = append(rows, tsstore.EntitySummary{Entity: uint32(gid)})
		default:
			continue
		}
		if districts != nil {
			districts = append(districts, c.meta[gid].district)
		}
	}
	return ttdb.FromSummaries(q, rows, districts), perr
}

// correlationLocked answers Q7. Co-located pairs push the whole computation
// down to the owning partition (bit-identical to the single engine);
// cross-partition pairs fetch both point sets in parallel and correlate at
// the coordinator — bucketed via the shared resample grid (ts.Correlation),
// within the battery's tolerance of the pushdown, and raw via the store's own
// merge-join fold (tsstore.PearsonJoined), bit-identical to it. Losing either
// side leaves nothing to correlate.
func (c *Coordinator) correlationLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	res := ttdb.Result{Op: q.Op}
	mx, okX := c.meta[q.Station]
	my, okY := c.meta[q.Other]
	if !okX || !okY {
		res.Scalar = math.NaN()
		return res, nil
	}
	if mx.part == my.part {
		q.Station, q.Other = mx.local, my.local
		return c.routeLocked(ctx, mx.part, q)
	}
	var px, py []ts.Point
	perr := c.scatterLocked(ctx, q.Op, []int{mx.part, my.part}, func(p int) error {
		side, dst := mx, &px
		if p == my.part {
			side, dst = my, &py
		}
		r, err := c.parts[p].Exec(ctx, ttdb.Q1(side.local, q.Start, q.End))
		*dst = r.Points
		return err
	})
	if perr != nil {
		return res, perr
	}
	if q.Bucket > 0 {
		res.Scalar = ts.Correlation(ts.FromPoints("x", px), ts.FromPoints("y", py), q.Bucket)
	} else {
		res.Scalar = tsstore.PearsonJoined(px, py)
	}
	return res, nil
}

// neighborMeansLocked answers Q8: adjacency from the station's home
// partition (boundary replication makes every neighbor visible there), then
// the neighbours' means, one batch to each owner partition, each batch's
// means taken back in the order its owner was asked. The answer lists the
// neighbours in the home partition's adjacency order, which is the single
// engine's. A failed home partition degrades to the coordinator-topology
// neighbor set with zero means; failed neighbor owners degrade their
// neighbors' means to zero. Both partials are accounted in the returned
// PartialError.
func (c *Coordinator) neighborMeansLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	res := ttdb.Result{Op: q.Op, IDs: []ttdb.StationID{}, Vals: []float64{}}
	m, ok := c.meta[q.Station]
	if !ok {
		return res, nil
	}
	if err := faults.CheckCtx(ctx, c.faults[m.part]); err != nil {
		// Home partition down: the neighbor set is still derivable from the
		// coordinator's topology record, with zero means — the "graph part
		// survives" shape of every degraded answer.
		for _, tr := range c.trips {
			n := tr.b
			if tr.b == q.Station {
				n = tr.a
			} else if tr.a != q.Station {
				continue
			}
			if n != q.Station && !slices.Contains(res.IDs, n) {
				res.IDs = append(res.IDs, n)
			}
		}
		res.Vals = make([]float64, len(res.IDs))
		return res, &PartialError{Query: q.Op.String(), Failed: map[int]error{m.part: err}}
	}
	// Each neighbour's gid and owner, and each owner's neighbours by its
	// local id.
	ns := c.parts[m.part].Engine().G.Neighbors(m.local, "TRIP")
	res.IDs = make([]ttdb.StationID, 0, len(ns))
	owners := make([]int, 0, len(ns))
	locals := make([][]ttdb.StationID, len(c.parts))
	for _, n := range ns {
		gid, ok := c.local2g[m.part][n]
		if !ok {
			gid, ok = c.bnd2g[m.part][n]
		}
		if ok {
			owner := c.meta[gid]
			res.IDs = append(res.IDs, gid)
			owners = append(owners, owner.part)
			locals[owner.part] = append(locals[owner.part], owner.local)
		}
	}
	var parts []int
	for p := range locals {
		if len(locals[p]) > 0 {
			parts = append(parts, p)
		}
	}
	frags := make([][]float64, len(c.parts))
	perr := c.scatterLocked(ctx, q.Op, parts, func(p int) error {
		means, err := c.parts[p].StationMeansCtx(ctx, locals[p], q.Start, q.End)
		frags[p] = means
		return err
	})
	res.Vals = make([]float64, len(res.IDs))
	for i, p := range owners {
		if len(frags[p]) > 0 { // a failed owner's neighbours keep mean 0
			res.Vals[i], frags[p] = frags[p][0], frags[p][1:]
		}
	}
	return res, perr
}
