package coord

import (
	"context"
	"math"
	"sort"

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
// one-element scatter. A failed owner leaves nothing to answer with. Caller
// holds at least the read lock.
func (c *Coordinator) routeLocked(ctx context.Context, part int, local ttdb.Query) (ttdb.Result, *PartialError) {
	res := ttdb.Result{Op: local.Op}
	perr := c.scatterLocked(ctx, local.Op, []int{part}, func(int) error {
		r, err := c.parts[part].Exec(ctx, local)
		if err == nil {
			res = r
		}
		return err
	})
	return res, perr
}

// gidRow is one merged aggregate row: a fragment's per-entity summary lifted
// into the coordinator's global id space.
type gidRow struct {
	gid ttdb.StationID
	sum tsstore.Summary
}

// summariesLocked scatters the Q4–Q6 fragment (per-entity summaries over the
// window) to every partition and merges the rows by ascending gid — the
// deterministic order every downstream fold relies on. Entities without a
// coordinator mapping (none in a consistent deployment) are dropped. Caller
// holds at least the read lock.
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
	var rows []gidRow
	for p, frag := range frags {
		for _, e := range frag {
			if gid, ok := c.local2g[p][ttdb.StationID(e.Entity)]; ok {
				rows = append(rows, gidRow{gid: gid, sum: e.Summary})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].gid < rows[j].gid })
	return rows, perr
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
// raw via an exact-timestamp merge join, both within the battery's tolerance
// of the pushdown. Losing either side leaves nothing to correlate.
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
		res.Scalar = pearsonJoined(px, py)
	}
	return res, nil
}

// pearsonJoined is the raw-timestamp correlation fold of the time-series
// store (tsstore.Correlate), applied to already-fetched point sets: an exact
// merge join on timestamps, NaN under two shared points or a constant side.
// Accumulation order equals the store's, so the result is bit-identical.
func pearsonJoined(pa, pb []ts.Point) float64 {
	var n float64
	var sx, sy, sxx, syy, sxy float64
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i].T < pb[j].T:
			i++
		case pa[i].T > pb[j].T:
			j++
		default:
			x, y := pa[i].V, pb[j].V
			n++
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
			i++
			j++
		}
	}
	if n < 2 {
		return math.NaN()
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// neighborMeansLocked answers Q8: adjacency from the station's home
// partition (boundary replication makes every neighbor visible there), then
// the per-neighbor means scattered to the neighbors' owners as Q3 fragments.
// A failed home partition degrades to the coordinator-topology neighbor set
// with zero means; failed neighbor owners degrade their neighbors' means to
// zero. Both partials are accounted in the returned PartialError.
func (c *Coordinator) neighborMeansLocked(ctx context.Context, q ttdb.Query) (ttdb.Result, *PartialError) {
	res := ttdb.Result{Op: q.Op, ByStation: map[ttdb.StationID]float64{}}
	m, ok := c.meta[q.Station]
	if !ok {
		return res, nil
	}
	if err := faults.CheckCtx(ctx, FaultPartition(m.part)); err != nil {
		// Home partition down: the neighbor set is still derivable from the
		// coordinator's topology record, with zero means — the same "graph
		// part survives" shape the durable layer degrades to.
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
	byPart := map[int][]ttdb.StationID{}
	for _, n := range c.parts[m.part].Engine().G.Neighbors(m.local, "TRIP") {
		gid, ok := c.local2g[m.part][n]
		if !ok {
			gid, ok = c.bnd2g[m.part][n]
		}
		if ok {
			res.ByStation[gid] = 0
			p := c.meta[gid].part
			byPart[p] = append(byPart[p], gid)
		}
	}
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	frags := make([][]float64, len(c.parts))
	perr := c.scatterLocked(ctx, q.Op, parts, func(p int) error {
		means := make([]float64, len(byPart[p]))
		for i, gid := range byPart[p] {
			r, err := c.parts[p].Exec(ctx, ttdb.Q3(c.meta[gid].local, q.Start, q.End))
			if err != nil {
				return err
			}
			means[i] = r.Scalar
		}
		frags[p] = means
		return nil
	})
	for p, means := range frags {
		for i, v := range means {
			res.ByStation[byPart[p][i]] = v
		}
	}
	return res, perr
}
