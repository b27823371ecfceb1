package ttdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"hygraph/internal/faults"
	"hygraph/internal/obs"
	"hygraph/internal/ts"
)

// One table for the one query path: every operation against every engine of
// this package. (internal/coord runs the same cases against a 3-partition
// coordinator — this package cannot import it.)

// durableEngine names DurablePolyglot, the one method of Engine it lacks.
type durableEngine struct{ *DurablePolyglot }

func (durableEngine) Name() string { return "ttdb-durable" }

// execTarget is one engine loaded with the shared workload, plus a star of
// trips around station 0 so Q8 has a fan-out worth cancelling.
type execTarget struct {
	name string
	e    Engine
	ids  []StationID
	reg  *obs.Registry
}

func execTargets(t *testing.T) []execTarget {
	t.Helper()
	d := NewDurable(ts.Day, io.Discard, io.Discard)
	var out []execTarget
	for _, e := range []Engine{NewAllInGraph(), NewPolyglot(ts.Day), durableEngine{d}} {
		tg := execTarget{name: e.Name(), e: e, ids: loadWorkload(t, e), reg: obs.New()}
		for i := 2; i <= 7; i++ {
			if err := e.AddTrip(tg.ids[0], tg.ids[i], 1); err != nil {
				t.Fatal(err)
			}
		}
		e.Instrument(tg.reg)
		out = append(out, tg)
	}
	return out
}

// execQueries is one descriptor per operation over the shared workload.
func execQueries(ids []StationID) []Query {
	start, end := 2*ts.Day, 9*ts.Day
	return []Query{
		Q1(ids[1], start, end),
		Q2(ids[1], start, end, 11),
		Q3(ids[2], start, end),
		Q4(start, end),
		Q5(start, end),
		Q6(start, end, 3),
		Q7(ids[0], ids[5], start, end, ts.Hour),
		Q8(ids[0], start, end),
		Downsample(ids[3], start, end, 6*ts.Hour, ts.AggMax),
	}
}

// model answers a query from the workload's definition with plain loops over
// ts.Series — the oracle the engines are compared against.
type model struct {
	ids      []StationID
	series   map[StationID]*ts.Series
	district map[StationID]string
	adj      map[StationID][]StationID
}

func workloadModel(ids []StationID) *model {
	m := &model{ids: ids, series: map[StationID]*ts.Series{}, district: map[StationID]string{}, adj: map[StationID][]StationID{}}
	link := func(a, b StationID) {
		m.adj[a] = append(m.adj[a], b)
		m.adj[b] = append(m.adj[b], a)
	}
	for i, id := range ids {
		m.series[id] = workloadSeries(i)
		m.district[id] = workloadDistricts[i%len(workloadDistricts)]
		link(id, ids[(i+1)%len(ids)])
	}
	for i := 2; i <= 7; i++ {
		link(ids[0], ids[i])
	}
	return m
}

func (m *model) mean(st StationID, start, end ts.Time) float64 {
	pts := m.series[st].Slice(start, end).Points()
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

func (m *model) answer(q Query) Result {
	res := Result{Op: q.Op}
	window := func(st StationID) *ts.Series { return m.series[st].Slice(q.Start, q.End) }
	switch q.Op {
	case OpQ1:
		res.Points = window(q.Station).Points()
	case OpQ2:
		for _, p := range window(q.Station).Points() {
			if p.V < q.Below {
				res.Points = append(res.Points, p)
			}
		}
	case OpQ3:
		res.Scalar = m.mean(q.Station, q.Start, q.End)
	case OpQ4:
		res.ByStation = map[StationID]float64{}
		for _, id := range m.ids {
			res.ByStation[id] = m.mean(id, q.Start, q.End)
		}
	case OpQ5:
		res.ByDistrict = map[string]float64{}
		for _, id := range m.ids {
			for _, p := range window(id).Points() {
				res.ByDistrict[m.district[id]] += p.V
			}
		}
	case OpQ6:
		ranked := append([]StationID(nil), m.ids...)
		sort.Slice(ranked, func(i, j int) bool {
			return m.mean(ranked[i], q.Start, q.End) > m.mean(ranked[j], q.Start, q.End)
		})
		res.Stations = ranked[:q.K]
	case OpQ7:
		res.Scalar = ts.Correlation(window(q.Station), window(q.Other), q.Bucket)
	case OpQ8:
		res.ByStation = map[StationID]float64{}
		for _, n := range m.adj[q.Station] {
			res.ByStation[n] = m.mean(n, q.Start, q.End)
		}
	case OpDownsample:
		res.Points = window(q.Station).Resample(q.Bucket, q.Agg).Points()
	}
	return res
}

// sameResult compares two answers element-wise within 1e-9 (NaN equals NaN).
func sameResult(got, want Result) error {
	eq := func(a, b float64) bool {
		return (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
	}
	if got.Op != want.Op || !eq(got.Scalar, want.Scalar) {
		return fmt.Errorf("op/scalar: %v %v vs %v %v", got.Op, got.Scalar, want.Op, want.Scalar)
	}
	if len(got.Points) != len(want.Points) || len(got.ByStation) != len(want.ByStation) ||
		len(got.ByDistrict) != len(want.ByDistrict) || !reflect.DeepEqual(got.Stations, want.Stations) {
		return fmt.Errorf("shape: %+v vs %+v", got, want)
	}
	for i, p := range want.Points {
		if g := got.Points[i]; g.T != p.T || !eq(g.V, p.V) {
			return fmt.Errorf("point %d: %v vs %v", i, g, p)
		}
	}
	for st, v := range want.ByStation {
		if g, ok := got.ByStation[st]; !ok || !eq(g, v) {
			return fmt.Errorf("station %d: %v (present %v) vs %v", st, g, ok, v)
		}
	}
	for k, v := range want.ByDistrict {
		if g, ok := got.ByDistrict[k]; !ok || !eq(g, v) {
			return fmt.Errorf("district %s: %v (present %v) vs %v", k, g, ok, v)
		}
	}
	return nil
}

// An uncancelled Exec answers every operation like the model, at sequential
// and fanned-out widths.
func TestExecMatchesModel(t *testing.T) {
	for _, tg := range execTargets(t) {
		m := workloadModel(tg.ids)
		for _, workers := range []int{1, 4} {
			tg.e.SetWorkers(workers)
			for _, q := range execQueries(tg.ids) {
				if err := sameResult(exec(t, tg.e, q), m.answer(q)); err != nil {
					t.Errorf("%s %s workers=%d: %v", tg.name, q.Op, workers, err)
				}
			}
		}
		// The raw-timestamp join of Q7 (bucket <= 0).
		q := Q7(tg.ids[0], tg.ids[5], 2*ts.Day, 9*ts.Day, 0)
		if got := exec(t, tg.e, q).Scalar; got < 0.99 {
			t.Errorf("%s Q7 unbucketed = %v, want ~1 (same daily shape)", tg.name, got)
		}
	}
}

// A context that is already done wins over everything — a degraded store
// included — and comes back with its error and the zero Result.
func TestExecCancelledBeforeStart(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	faults.Enable(FaultQueryTS, faults.Spec{Err: errors.New("ts backend down")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tg := range execTargets(t) {
		for _, q := range execQueries(tg.ids) {
			res, err := tg.e.Exec(ctx, q)
			if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, Result{}) {
				t.Errorf("%s %s with cancelled ctx: %+v, %v", tg.name, q.Op, res, err)
			}
		}
	}
}

// flipCtx reports itself cancelled from the n-th Err call on — a
// cancellation that lands at a known point inside a fan-out.
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

// A context cancelled mid-fan-out stops Q4–Q6 and Q8 within one item per
// worker: the cancelled run does a fraction of the store reads of a full one
// and returns the cancellation with the zero Result.
func TestExecCancelsMidFanout(t *testing.T) {
	reads := func(reg *obs.Registry) int64 {
		c := reg.Snapshot().Counters
		return c["tsstore.reads"] + c["graphstore.reads"]
	}
	for _, tg := range execTargets(t) {
		tg.e.SetWorkers(2)
		for _, q := range execQueries(tg.ids) {
			if q.Op != OpQ4 && q.Op != OpQ5 && q.Op != OpQ6 && q.Op != OpQ8 {
				continue
			}
			before := reads(tg.reg)
			exec(t, tg.e, q)
			full := reads(tg.reg) - before

			// Alive for the entry check and two work items, then cancelled.
			ctx := &flipCtx{Context: context.Background()}
			ctx.left.Store(3)
			before = reads(tg.reg)
			res, err := tg.e.Exec(ctx, q)
			cancelled := reads(tg.reg) - before
			if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, Result{}) {
				t.Errorf("%s %s cancelled mid-fan-out: %+v, %v", tg.name, q.Op, res, err)
			}
			if 2*cancelled > full {
				t.Errorf("%s %s: %d store reads after a cancellation two items in, %d uncancelled", tg.name, q.Op, cancelled, full)
			}
		}
	}
}

// With the time-series store down the durable engine answers what the graph
// store alone can derive: Q4 the stations, Q5 the districts, Q8 the
// neighbors, all zero; the other operations nothing. Every answer comes with
// an error matching ErrDegraded.
func TestExecDegradedPartials(t *testing.T) {
	defer faults.Reset()
	faults.Reset()
	for _, tg := range execTargets(t) {
		if _, durable := tg.e.(durableEngine); !durable {
			continue
		}
		m := workloadModel(tg.ids)
		faults.Enable(FaultQueryTS, faults.Spec{Err: errors.New("ts backend down")})
		for _, q := range execQueries(tg.ids) {
			want := Result{Op: q.Op}
			switch q.Op {
			case OpQ4:
				want.ByStation = map[StationID]float64{}
				for _, id := range tg.ids {
					want.ByStation[id] = 0
				}
			case OpQ5:
				want.ByDistrict = map[string]float64{}
				for _, d := range workloadDistricts {
					want.ByDistrict[d] = 0
				}
			case OpQ8:
				want.ByStation = map[StationID]float64{}
				for _, n := range m.adj[q.Station] {
					want.ByStation[n] = 0
				}
			}
			got, err := tg.e.Exec(context.Background(), q)
			if !errors.Is(err, ErrDegraded) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s degraded: %+v, %v; want %+v", q.Op, got, err, want)
			}
		}
		faults.Reset()
		for _, q := range execQueries(tg.ids) {
			exec(t, tg.e, q) // healed
		}
	}
}

// Every layer rejects a descriptor with no answer with the one typed error.
func TestExecRejectsBadQueries(t *testing.T) {
	for _, tg := range execTargets(t) {
		for _, q := range []Query{
			{Op: OpQ6, End: ts.Day, K: -1},
			Downsample(tg.ids[0], 0, ts.Day, 0, ts.AggMean),
			{Op: OpDownsample + 1},
			{},
		} {
			res, err := tg.e.Exec(context.Background(), q)
			if !errors.Is(err, ErrBadQuery) || !reflect.DeepEqual(res, Result{}) {
				t.Errorf("%s %+v: %+v, %v; want ErrBadQuery", tg.name, q, res, err)
			}
		}
	}
}
