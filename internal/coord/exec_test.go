package coord_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The cases of internal/storage/ttdb's Exec table, against a 3-partition
// coordinator: same descriptor, same contract, one layer up.

// execQueries is one descriptor per operation over chaosWorld's stations;
// station 0 gets a star of trips so Q8 crosses partitions.
func execQueries(ids []ttdb.StationID) []ttdb.Query {
	start, end := propSpan/4, 3*propSpan/4
	return []ttdb.Query{
		ttdb.Q1(ids[1], start, end),
		ttdb.Q2(ids[1], start, end, 12),
		ttdb.Q3(ids[2], start, end),
		ttdb.Q4(start, end),
		ttdb.Q5(start, end),
		ttdb.Q6(start, end, 5),
		ttdb.Q7(ids[0], ids[5], start, end, ts.Hour),
		ttdb.Q8(ids[0], start, end),
		ttdb.Downsample(ids[3], start, end, 6*ts.Hour, ts.AggMax),
	}
}

func execWorld(t *testing.T) (*coord.Coordinator, []ttdb.StationID, *obs.Registry) {
	t.Helper()
	return execWorldOver(t, chaosParts)
}

// execWorldOver is execWorld over n partitions.
func execWorldOver(t *testing.T, n int) (*coord.Coordinator, []ttdb.StationID, *obs.Registry) {
	t.Helper()
	c, gids := worldOver(t, n)
	for i := 2; i <= 9; i++ {
		if err := c.AddTrip(gids[0], gids[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.New()
	c.Instrument(reg)
	return c, gids, reg
}

// An uncancelled Exec answers every operation like one unpartitioned engine
// holding the same stations and trips.
func TestExecMatchesSingleEngine(t *testing.T) {
	c, gids, _ := execWorld(t)
	ora := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	oids := make([]ttdb.StationID, len(gids))
	toOracle := map[ttdb.StationID]ttdb.StationID{}
	for i := range gids {
		id, err := ora.IngestStation(uint64(i)+1, fmt.Sprintf("st-%03d", i), fmt.Sprintf("d-%d", i%3), propSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		oids[i], toOracle[gids[i]] = id, id
	}
	for i := range oids {
		if err := ora.AddTrip(oids[i], oids[(i+1)%len(oids)], 2+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i <= 9; i++ {
		if err := ora.AddTrip(oids[0], oids[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	oraQs := execQueries(oids)
	for i, q := range execQueries(gids) {
		got, want := exec(t, c, q), exec(t, ora, oraQs[i])
		// Lift the coordinator's answer into the oracle's id space; the
		// columns then agree row for row.
		for j, gid := range got.IDs {
			got.IDs[j] = toOracle[gid]
		}
		if len(got.Points) != len(want.Points) || !reflect.DeepEqual(got.IDs, want.IDs) ||
			!reflect.DeepEqual(got.Names, want.Names) || len(got.Vals) != len(want.Vals) ||
			!propEq(got.Scalar, want.Scalar) {
			t.Fatalf("%s: %+v vs single engine %+v", q.Op, got, want)
		}
		for j, p := range want.Points {
			if got.Points[j].T != p.T || !propEq(got.Points[j].V, p.V) {
				t.Fatalf("%s point %d: %v vs %v", q.Op, j, got.Points[j], p)
			}
		}
		for j, v := range want.Vals {
			if !propEq(got.Vals[j], v) {
				t.Fatalf("%s row %d: %v vs %v", q.Op, j, got.Vals[j], v)
			}
		}
	}
}

// Q6 ranks a NaN mean after every number, ties by ascending id, so both
// engines and the coordinator at one and two partitions give the one
// ranking on every call: stations with means 5, NaN, 3, 7 and 1 rank 3, 0,
// 2, 4, 1.
func TestQ6RanksNaNLast(t *testing.T) {
	means := []float64{5, math.NaN(), 3, 7, 1}
	want := []int{3, 0, 2, 4, 1}
	engines := map[string]ttdb.Engine{"polyglot": ttdb.NewPolyglot(ts.Week), "all-in-graph": ttdb.NewAllInGraph()}
	for _, n := range []int{1, 2} {
		c, err := coord.NewMem(n, ts.Week)
		if err != nil {
			t.Fatal(err)
		}
		engines[fmt.Sprintf("coord@%d", n)] = c
	}
	for name, e := range engines {
		e.SetWorkers(4)
		var ids []ttdb.StationID
		for i, m := range means {
			s := ts.New(ttdb.Metric)
			for h := ts.Time(0); h < 4; h++ {
				s.MustAppend(h*ts.Hour, m)
			}
			id, err := e.IngestStation(fmt.Sprintf("st-%d", i), "d", s)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, k := range []int{3, len(means)} {
			for call := 0; call < 200; call++ {
				var got []int
				for _, id := range exec(t, e, ttdb.Q6(0, 4*ts.Hour, k)).IDs {
					got = append(got, slices.Index(ids, id))
				}
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("%s Q6(k=%d) call %d ranks %v, want %v", name, k, call, got, want[:k])
				}
			}
		}
	}
}

// A context that is already done wins over everything — a lost partition
// included — and comes back with its error and the zero Result.
func TestExecCancelledBeforeStart(t *testing.T) {
	defer faults.Reset()
	c, gids, _ := execWorld(t)
	faults.Enable(coord.FaultPartition(0), faults.Spec{Err: errors.New("partition down")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range execQueries(gids) {
		res, err := c.Exec(ctx, q)
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, ttdb.Result{}) {
			t.Errorf("%s with cancelled ctx: %+v, %v", q.Op, res, err)
		}
	}
}

// flipCtx reports itself cancelled from the n-th Err call on.
type flipCtx struct {
	context.Context
	left atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A context cancelled while the fragments of Q4–Q6 and Q8 are in flight
// stops them within one item per worker: the cancellation comes back with
// the zero Result, after a fraction of an uncancelled run's store reads.
func TestExecCancelsMidFanout(t *testing.T) {
	c, gids, reg := execWorld(t)
	c.SetWorkers(2)
	reads := func() int64 {
		cs := reg.Snapshot().Counters
		return cs["tsstore.reads"] + cs["graphstore.reads"]
	}
	for _, q := range execQueries(gids) {
		if q.Op != ttdb.OpQ4 && q.Op != ttdb.OpQ5 && q.Op != ttdb.OpQ6 && q.Op != ttdb.OpQ8 {
			continue
		}
		before := reads()
		exec(t, c, q)
		full := reads() - before

		// Alive for the coordinator's entry check, each fragment's fault
		// point and entry check, and two work items — then cancelled.
		ctx := &flipCtx{Context: context.Background()}
		ctx.left.Store(int64(1 + 2*chaosParts + 2))
		before = reads()
		res, err := c.Exec(ctx, q)
		cancelled := reads() - before
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, ttdb.Result{}) {
			t.Errorf("%s cancelled mid-fan-out: %+v, %v", q.Op, res, err)
		}
		if 2*cancelled > full {
			t.Errorf("%s: %d store reads after a mid-flight cancellation, %d uncancelled", q.Op, cancelled, full)
		}
	}
}

// With every partition's time-series store down, the coordinator shapes the
// graph-derivable partials from what the partitions still answer: Q4 still
// enumerates the stations, Q5 the districts, Q8 the neighbors, all zero, and
// Q6 ranks nobody; the routed operations answer nothing. Every answer is a
// *PartialError matching ErrDegraded. One partition is how a tenant is
// served; three prove the shapes do not depend on the partition count.
func TestExecDegradedPartials(t *testing.T) {
	defer faults.Reset()
	for _, n := range []int{1, chaosParts} {
		faults.Reset()
		c, gids, _ := execWorldOver(t, n)
		healthy := map[ttdb.Op]ttdb.Result{}
		for _, q := range execQueries(gids) {
			healthy[q.Op] = exec(t, c, q)
		}
		faults.Enable(ttdb.FaultQueryTS, faults.Spec{Err: errors.New("ts backend down")})
		for _, q := range execQueries(gids) {
			want := ttdb.Result{Op: q.Op}
			switch q.Op {
			case ttdb.OpQ4, ttdb.OpQ8:
				want.IDs = healthy[q.Op].IDs
				want.Vals = make([]float64, len(want.IDs))
			case ttdb.OpQ5:
				want.Names = healthy[q.Op].Names
				want.Vals = make([]float64, len(want.Names))
			case ttdb.OpQ6:
				want.IDs = []ttdb.StationID{}
			}
			got, err := c.Exec(context.Background(), q)
			var perr *coord.PartialError
			if !errors.Is(err, ttdb.ErrDegraded) || !errors.As(err, &perr) || perr.Query != q.Op.String() {
				t.Errorf("%dp %s degraded error: %v", n, q.Op, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%dp %s degraded: %+v, want %+v", n, q.Op, got, want)
			}
		}
	}
}

// A point query routed through a one-partition coordinator allocates no
// more than the same query on the partition's own engine: the routed path
// adds a placement lookup, not a goroutine, a closure or an error value.
func TestRoutedQueryAllocatesLikeItsEngine(t *testing.T) {
	d := ttdb.NewDurable(ts.Week, io.Discard, io.Discard)
	c, err := coord.Attach([]*ttdb.DurablePolyglot{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gid, err := c.IngestStation("st", "d", propSeries(0))
	if err != nil {
		t.Fatal(err)
	}
	local := d.Engine().G.NodesByLabel("Station")[0]
	ctx := context.Background()
	start, end := propSpan/4, 3*propSpan/4
	engine := testing.AllocsPerRun(100, func() { _, _ = d.Exec(ctx, ttdb.Q3(local, start, end)) })
	routed := testing.AllocsPerRun(100, func() { _, _ = c.Exec(ctx, ttdb.Q3(gid, start, end)) })
	if routed != engine {
		t.Fatalf("routed Q3: %v allocs/op, its engine's Q3: %v", routed, engine)
	}
}

// The coordinator rejects a descriptor with no answer before touching a
// partition, with the engines' typed error.
func TestExecRejectsBadQueries(t *testing.T) {
	c, gids, reg := execWorld(t)
	for _, q := range []ttdb.Query{
		{Op: ttdb.OpQ6, End: ts.Day, K: -1},
		ttdb.Downsample(gids[0], 0, ts.Day, 0, ts.AggMean),
		{Op: ttdb.OpDownsample + 1},
		{},
	} {
		res, err := c.Exec(context.Background(), q)
		if !errors.Is(err, ttdb.ErrBadQuery) || !reflect.DeepEqual(res, ttdb.Result{}) {
			t.Errorf("%+v: %+v, %v; want ErrBadQuery", q, res, err)
		}
	}
	if n := reg.Snapshot().Counters["coord.scatter.calls"]; n != 0 {
		t.Errorf("bad queries reached %d scatters", n)
	}
}
