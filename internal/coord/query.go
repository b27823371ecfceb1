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
		res, perr = c.mergeSummariesLocked(ctx, q)
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

// gidRow is one merged aggregate row: a fragment's per-entity summary lifted
// into the coordinator's global id space.
type gidRow struct {
	gid ttdb.StationID
	sum tsstore.Summary
}

// summariesLocked scatters the Q4–Q6 fragment (per-entity summaries over the
// window) to every partition and merges the rows by ascending gid, one
// order at every partition count. Entities without a
// coordinator mapping (none in a consistent deployment) are dropped. A
// fragment comes in its partition's insertion order, which is gid order for
// every station the coordinator ingested or Repartition replayed, so each
// partition's rows are lifted as one run and the runs are merged. A run
// that does not ascend — Attach adopting an untagged station under a node id
// below the gid of a station written before it — is sorted first.
// Caller holds at least the read lock.
func (c *Coordinator) summariesLocked(ctx context.Context, q ttdb.Query) ([]gidRow, *PartialError) {
	frags := make([][]tsstore.EntitySummary, len(c.parts))
	perr := c.scatterLocked(ctx, q.Op, c.allPartsLocked(), func(p int) error {
		s, err := c.parts[p].EntitySummariesCtx(ctx, q.Start, q.End)
		if err != nil {
			return err
		}
		frags[p] = s
		return nil
	})
	n := 0
	for _, frag := range frags {
		n += len(frag)
	}
	rows := make([]gidRow, 0, n)
	runs := make([][]gidRow, len(frags))
	for p, frag := range frags {
		from, ascending := len(rows), true
		for _, e := range frag {
			if gid, ok := c.local2g[p][ttdb.StationID(e.Entity)]; ok {
				ascending = ascending && (len(rows) == from || rows[len(rows)-1].gid < gid)
				rows = append(rows, gidRow{gid: gid, sum: e.Summary})
			}
		}
		runs[p] = rows[from:]
		if !ascending {
			slices.SortFunc(runs[p], func(a, b gidRow) int { return cmp.Compare(a.gid, b.gid) })
		}
	}
	return tsstore.MergeRuns(runs, func(r gidRow) uint64 { return uint64(r.gid) }), perr
}

// mergeSummariesLocked answers Q4–Q6 from the merged summary rows. The
// entity set comes from the placement map, which the coordinator always has,
// so a failed partition's stations degrade in place: zero means in Q4, zero
// contribution to their districts in Q5, absent from the Q6 ranking.
func (c *Coordinator) mergeSummariesLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	rows, perr := c.summariesLocked(ctx, q)
	failed := func(gid ttdb.StationID) bool {
		if perr == nil {
			return false
		}
		_, lost := perr.Failed[c.meta[gid].part]
		return lost
	}
	res := ttdb.Result{Op: q.Op}
	switch q.Op {
	case ttdb.OpQ4:
		res.ByStation = make(map[ttdb.StationID]float64, len(c.order))
		for _, r := range rows {
			res.ByStation[r.gid] = 0
			if r.sum.Count > 0 {
				res.ByStation[r.gid] = r.sum.Mean()
			}
		}
		for _, gid := range c.order {
			if failed(gid) {
				res.ByStation[gid] = 0
			}
		}
	case ttdb.OpQ5:
		// Districts fold in ascending gid order — single-engine ingest
		// order, so the float accumulation order matches the oracle's
		// hypertable-insertion-order fold exactly. They come from the
		// placement map, which agrees with the partitions' graph properties
		// by construction.
		sums := make(map[ttdb.StationID]float64, len(rows))
		for _, r := range rows {
			sums[r.gid] = r.sum.Sum
		}
		res.ByDistrict = map[string]float64{}
		for _, gid := range c.order {
			if s, ok := sums[gid]; ok || failed(gid) {
				res.ByDistrict[c.meta[gid].district] += s
			}
		}
	case ttdb.OpQ6:
		// The engine's ranking rule (ties by ascending id) in coordinator
		// id space.
		means := make(map[ttdb.StationID]float64, len(rows))
		for _, r := range rows {
			if r.sum.Count > 0 {
				means[r.gid] = r.sum.Mean()
			}
		}
		res.Stations = ttdb.TopK(means, q.K)
	}
	return res, perr
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
// the neighbours' means, one batch to each owner partition.
// A failed home partition degrades to the coordinator-topology neighbor set
// with zero means; failed neighbor owners degrade their neighbors' means to
// zero. Both partials are accounted in the returned PartialError.
func (c *Coordinator) neighborMeansLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	res := ttdb.Result{Op: q.Op, ByStation: map[ttdb.StationID]float64{}}
	m, ok := c.meta[q.Station]
	if !ok {
		return res, nil
	}
	if err := faults.CheckCtx(ctx, c.faults[m.part]); err != nil {
		// Home partition down: the neighbor set is still derivable from the
		// coordinator's topology record, with zero means — the "graph part
		// survives" shape of every degraded answer.
		for _, tr := range c.trips {
			switch {
			case tr.a == q.Station && tr.b != q.Station:
				res.ByStation[tr.b] = 0
			case tr.b == q.Station && tr.a != q.Station:
				res.ByStation[tr.a] = 0
			}
		}
		return res, &PartialError{Query: q.Op.String(), Failed: map[int]error{m.part: err}}
	}
	// Each owner's neighbours, by gid and by the owner's local id.
	ns := c.parts[m.part].Engine().G.Neighbors(m.local, "TRIP")
	res.ByStation = make(map[ttdb.StationID]float64, len(ns))
	gids := make([][]ttdb.StationID, len(c.parts))
	locals := make([][]ttdb.StationID, len(c.parts))
	for _, n := range ns {
		gid, ok := c.local2g[m.part][n]
		if !ok {
			gid, ok = c.bnd2g[m.part][n]
		}
		if ok {
			res.ByStation[gid] = 0
			owner := c.meta[gid]
			if gids[owner.part] == nil {
				gids[owner.part] = make([]ttdb.StationID, 0, len(ns))
				locals[owner.part] = make([]ttdb.StationID, 0, len(ns))
			}
			gids[owner.part] = append(gids[owner.part], gid)
			locals[owner.part] = append(locals[owner.part], owner.local)
		}
	}
	var parts []int
	for p := range gids {
		if len(gids[p]) > 0 {
			parts = append(parts, p)
		}
	}
	frags := make([][]float64, len(c.parts))
	perr := c.scatterLocked(ctx, q.Op, parts, func(p int) error {
		means, err := c.parts[p].StationMeansCtx(ctx, locals[p], q.Start, q.End)
		frags[p] = means
		return err
	})
	for p, means := range frags {
		for i, v := range means {
			res.ByStation[gids[p][i]] = v
		}
	}
	return res, perr
}
