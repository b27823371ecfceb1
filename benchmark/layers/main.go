//go:build layers

// Command layers is hymark's layer ladder: it replays an op list the e2e
// harness recorded against each layer's public functions, from outside, and
// prints the median time of one op at each rung. A layer's added cost is its
// rung minus the rung below:
//
//	tsstore, graphstore  the store calls an op decomposes into
//	polyglot             ttdb.Polyglot
//	durable              ttdb.DurablePolyglot (the Conn of a one-partition tenant)
//	coord                coord.Coordinator over the tenant's partitions
//	handler              server.Handler() called in-process
//	client               internal/server/client over loopback
//
// It is the only part of hymark that imports the repository, and it is behind
// the "layers" build tag: when a refactor breaks it, `go build ./...` and the
// e2e numbers are unaffected and the traced run reports "layers":"stale".
// Every rung loads its own copy of the dataset the way a served tenant does
// (through server.DirBackend), replays the first half of the ops untimed to
// warm its caches, and times the second half.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"hygraph/benchmark/mark"
	"hygraph/internal/obs"
	"hygraph/internal/server"
	"hygraph/internal/server/client"
	"hygraph/internal/storage/tsstore"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

func main() {
	opsFile := flag.String("ops", "", "JSON op list recorded by the e2e harness")
	tmp := flag.String("tmp", "", "scratch directory for the rungs' store files")
	seed := flag.Int64("seed", 1, "dataset seed")
	stations := flag.Int("stations", 0, "dataset stations")
	days := flag.Int("days", 0, "dataset days")
	partitions := flag.Int("partitions", 1, "partitions of the served tenant")
	flag.Parse()
	if err := run(*opsFile, *tmp, *seed, *stations, *days, *partitions); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// rung executes one op and reports how long it took, by rung name: the store
// rung times tsstore and graphstore apart in one execution, every other rung
// reports one time. A nil map means the op class does not exist at this rung.
type rung func(op mark.Op) (took map[string]time.Duration, err error)

func run(opsFile, tmp string, seed int64, stations, days, partitions int) error {
	raw, err := os.ReadFile(opsFile)
	if err != nil {
		return err
	}
	var ops []mark.Op
	if err := json.Unmarshal(raw, &ops); err != nil {
		return err
	}
	ds := mark.Generate(seed, stations, days)
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	l := &ladder{ds: ds, days: days, ops: ops, out: map[string]map[string]float64{}}
	backend := &server.DirBackend{Root: tmp}
	for _, name := range []string{"stores", "polyglot", "durable"} {
		d, closer, err := backend.OpenEngine(name)
		if err != nil {
			return err
		}
		configure(d)
		ids, err := load(d, ds)
		if err != nil {
			return err
		}
		switch name {
		case "stores":
			err = l.replay(storeRung(d.Engine(), ids))
		case "polyglot":
			err = l.replay(polyglotRung(d.Engine(), ids))
		default:
			err = l.replay(connRung("durable", d, ids))
		}
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("rung %s: %w", name, err)
		}
	}
	var tenants server.Backend = backend
	if partitions > 1 {
		pb := &server.PartitionedBackend{Inner: backend, Parts: partitions}
		tenants = pb
		co, closer, err := pb.Open("coord")
		if err != nil {
			return err
		}
		configure(co)
		ids, err := load(co, ds)
		if err == nil {
			err = l.replay(connRung("coord", co, ids))
		}
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("rung coord: %w", err)
		}
	}
	if err := l.served(tenants); err != nil {
		return fmt.Errorf("rungs handler, client: %w", err)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"classes": l.out})
}

// configure applies what server.tenant applies to a freshly opened Conn, so a
// rung runs the engine the way the served path does.
func configure(c interface {
	SetGroupCommit(int)
	SetWorkers(int)
	Instrument(*obs.Registry)
}) {
	c.SetGroupCommit(64)
	c.SetWorkers(runtime.GOMAXPROCS(0))
	c.Instrument(obs.New())
}

// ingester is the write half of server.Conn.
type ingester interface {
	IngestStation(name, district string, s *ts.Series) (ttdb.StationID, error)
	AddTrip(from, to ttdb.StationID, count int) error
}

func load(db ingester, ds *mark.Dataset) ([]uint32, error) {
	ids := make([]uint32, len(ds.Stations))
	for i, st := range ds.Stations {
		s := ts.New(ttdb.Metric)
		for j, v := range st.Vals {
			s.Upsert(ts.Time(int64(j)*mark.Hour), v)
		}
		id, err := db.IngestStation(st.Name, st.District, s)
		if err != nil {
			return nil, err
		}
		ids[i] = uint32(id)
	}
	for _, t := range ds.Trips {
		if err := db.AddTrip(ttdb.StationID(ids[t.From]), ttdb.StationID(ids[t.To]), t.Count); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// ladder accumulates per-class, per-rung medians.
type ladder struct {
	ds   *mark.Dataset
	days int
	ops  []mark.Op
	out  map[string]map[string]float64
}

// replay runs the op list through one rung and records, per op class, the
// median of the second half.
func (l *ladder) replay(r rung) error {
	samples := map[string]map[string][]float64{}
	for i, op := range l.ops {
		took, err := r(op)
		if err != nil {
			return fmt.Errorf("op %d (%+v): %w", i, op, err)
		}
		if i < len(l.ops)/2 {
			continue
		}
		for name, d := range took {
			if samples[op.Class] == nil {
				samples[op.Class] = map[string][]float64{}
			}
			samples[op.Class][name] = append(samples[op.Class][name], float64(d)/1e3)
		}
	}
	for class, byRung := range samples {
		if l.out[class] == nil {
			l.out[class] = map[string]float64{}
		}
		for name, us := range byRung {
			l.out[class][name] = mark.Percentile(us, 50)
		}
	}
	return nil
}

func key(id uint32) tsstore.SeriesKey {
	return tsstore.SeriesKey{Entity: id, Metric: ttdb.Metric}
}

// storeRung decomposes each op into the tsstore and graphstore calls
// ttdb.Polyglot makes for it, timing the two stores apart.
func storeRung(p *ttdb.Polyglot, ids []uint32) rung {
	return func(op mark.Op) (map[string]time.Duration, error) {
		var tsTook, gTook time.Duration
		s, e := ts.Time(op.Start), ts.Time(op.End)
		timeTS := func(f func()) { t0 := time.Now(); f(); tsTook += time.Since(t0) }
		timeG := func(f func()) { t0 := time.Now(); f(); gTook += time.Since(t0) }
		summaries := func() []tsstore.EntitySummary {
			var sums []tsstore.EntitySummary
			timeTS(func() {
				parts := make([][]tsstore.EntitySummary, p.T.NumShards())
				for i := range parts {
					parts[i] = p.T.AggregateShard(i, ttdb.Metric, s, e)
				}
				sums = tsstore.MergeBySeq(parts)
			})
			return sums
		}
		switch op.Class {
		case "Q1":
			timeTS(func() { p.T.Range(key(ids[op.St]), s, e) })
		case "Q2":
			timeTS(func() {
				var out []ts.Point
				p.T.RangeFunc(key(ids[op.St]), s, e, func(t ts.Time, v float64) {
					if v < op.Below {
						out = append(out, ts.Point{T: t, V: v})
					}
				})
			})
		case "Q3":
			timeTS(func() { p.T.Aggregate(key(ids[op.St]), s, e) })
		case "Q4", "Q6":
			summaries()
		case "Q5":
			sums := summaries()
			timeG(func() {
				for _, sum := range sums {
					p.G.NodeProp(ttdb.StationID(sum.Entity), "district")
				}
			})
		case "Q7":
			timeTS(func() {
				p.T.CorrelateResampled(key(ids[op.St]), key(ids[op.Other]), s, e, ts.Time(op.Bucket))
			})
		case "Q8":
			var ns []ttdb.StationID
			timeG(func() { ns = p.G.Neighbors(ttdb.StationID(ids[op.St]), "TRIP") })
			timeTS(func() {
				for _, n := range ns {
					p.T.Aggregate(key(uint32(n)), s, e)
				}
			})
		case "downsample":
			timeTS(func() { p.T.Downsample(key(ids[op.St]), s, e, ts.Time(op.Bucket), ts.AggMean) })
		case "append":
			timeTS(func() { p.T.Insert(key(ids[op.St]), s, op.V) })
		default:
			return nil, nil
		}
		return map[string]time.Duration{"tsstore": tsTook, "graphstore": gTook}, nil
	}
}

// polyglotRung calls ttdb.Polyglot's query methods. Polyglot has no append of
// its own; the op is applied to its time-series store untimed so that later
// reads see the same data as on the other rungs.
func polyglotRung(p *ttdb.Polyglot, ids []uint32) rung {
	return func(op mark.Op) (map[string]time.Duration, error) {
		st, s, e := ttdb.StationID(ids[op.St]), ts.Time(op.Start), ts.Time(op.End)
		t0 := time.Now()
		switch op.Class {
		case "Q1":
			p.Q1TimeRange(st, s, e)
		case "Q2":
			p.Q2FilteredRange(st, s, e, op.Below)
		case "Q3":
			p.Q3StationMean(st, s, e)
		case "Q4":
			p.Q4AllStationMeans(s, e)
		case "Q5":
			p.Q5DistrictSums(s, e)
		case "Q6":
			p.Q6TopKStations(s, e, op.K)
		case "Q7":
			p.Q7Correlation(st, ttdb.StationID(ids[op.Other]), s, e, ts.Time(op.Bucket))
		case "Q8":
			p.Q8NeighborMeans(st, s, e)
		case "downsample":
			p.Downsample(st, s, e, ts.Time(op.Bucket), ts.AggMean)
		case "append":
			p.T.Insert(key(ids[op.St]), s, op.V)
			return nil, nil
		default:
			return nil, nil
		}
		return map[string]time.Duration{"polyglot": time.Since(t0)}, nil
	}
}

// conn is the part of server.Conn the workloads exercise; a one-partition
// tenant's DurablePolyglot and a partitioned tenant's Coordinator both have it.
type conn interface {
	AppendPoint(st ttdb.StationID, t ts.Time, v float64) error
	Q1TimeRangeCtx(ctx context.Context, st ttdb.StationID, start, end ts.Time) ([]ts.Point, error)
	Q2FilteredRangeCtx(ctx context.Context, st ttdb.StationID, start, end ts.Time, below float64) ([]ts.Point, error)
	Q3StationMeanCtx(ctx context.Context, st ttdb.StationID, start, end ts.Time) (float64, error)
	Q4AllStationMeansCtx(ctx context.Context, start, end ts.Time) (map[ttdb.StationID]float64, error)
	Q5DistrictSumsCtx(ctx context.Context, start, end ts.Time) (map[string]float64, error)
	Q6TopKStationsCtx(ctx context.Context, start, end ts.Time, k int) ([]ttdb.StationID, error)
	Q7CorrelationCtx(ctx context.Context, x, y ttdb.StationID, start, end, bucket ts.Time) (float64, error)
	Q8NeighborMeansCtx(ctx context.Context, st ttdb.StationID, start, end ts.Time) (map[ttdb.StationID]float64, error)
	DownsampleCtx(ctx context.Context, st ttdb.StationID, start, end, bucket ts.Time, agg ts.AggFunc) ([]ts.Point, error)
}

// connRung calls the methods server.handleQuery and handlePoints call.
func connRung(name string, c conn, ids []uint32) rung {
	ctx := context.Background()
	return func(op mark.Op) (map[string]time.Duration, error) {
		st, s, e := ttdb.StationID(ids[op.St]), ts.Time(op.Start), ts.Time(op.End)
		var err error
		t0 := time.Now()
		switch op.Class {
		case "Q1":
			_, err = c.Q1TimeRangeCtx(ctx, st, s, e)
		case "Q2":
			_, err = c.Q2FilteredRangeCtx(ctx, st, s, e, op.Below)
		case "Q3":
			_, err = c.Q3StationMeanCtx(ctx, st, s, e)
		case "Q4":
			_, err = c.Q4AllStationMeansCtx(ctx, s, e)
		case "Q5":
			_, err = c.Q5DistrictSumsCtx(ctx, s, e)
		case "Q6":
			_, err = c.Q6TopKStationsCtx(ctx, s, e, op.K)
		case "Q7":
			_, err = c.Q7CorrelationCtx(ctx, st, ttdb.StationID(ids[op.Other]), s, e, ts.Time(op.Bucket))
		case "Q8":
			_, err = c.Q8NeighborMeansCtx(ctx, st, s, e)
		case "downsample":
			_, err = c.DownsampleCtx(ctx, st, s, e, ts.Time(op.Bucket), ts.AggMean)
		case "append":
			err = c.AppendPoint(st, s, op.V)
		default:
			return nil, nil
		}
		return map[string]time.Duration{name: time.Since(t0)}, err
	}
}

// served runs the two server rungs over one server: the handler called
// in-process, then the retry client over loopback. Each rung has a tenant of
// its own, loaded through the handler, so neither finds the other's cache
// entries.
func (l *ladder) served(backend server.Backend) error {
	srv, err := server.New(server.Config{Backend: backend, Obs: obs.New()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl, err := client.New(client.Config{Base: "http://" + ln.Addr().String()})
	if err == nil {
		err = l.replayServed(srv.Handler(), "handler", nil)
	}
	if err == nil {
		err = l.replayServed(srv.Handler(), "client", cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// replayServed loads a tenant named after the rung and replays the ops
// against it: through cl when given, else by calling the handler directly.
func (l *ladder) replayServed(h http.Handler, name string, cl *client.Client) error {
	call := func(method, path, body string) (string, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String(), nil
	}
	base := "/v1/tenants/" + name
	ids := make([]uint32, len(l.ds.Stations))
	for i := range l.ds.Stations {
		out, err := call(http.MethodPost, base+"/stations", string(mark.StationBody(&l.ds.Stations[i])))
		if err != nil {
			return err
		}
		var resp struct{ Station uint32 }
		if err := json.Unmarshal([]byte(out), &resp); err != nil {
			return err
		}
		ids[i] = resp.Station
	}
	for _, t := range l.ds.Trips {
		body := fmt.Sprintf(`{"from":%d,"to":%d,"count":%d}`, ids[t.From], ids[t.To], t.Count)
		if _, err := call(http.MethodPost, base+"/trips", body); err != nil {
			return err
		}
	}

	at := int64(l.days)*mark.Day - mark.Hour
	ctx := context.Background()
	return l.replay(func(op mark.Op) (map[string]time.Duration, error) {
		hyql := strings.HasPrefix(op.Class, "H")
		var text string
		if hyql {
			text = mark.HyQLText(strings.TrimSuffix(op.Class, "warm"), l.ds.Stations[op.St].Name, op.Start, op.End)
		}
		var err error
		t0 := time.Now()
		switch {
		case cl != nil && op.Class == "append":
			err = cl.AppendPoint(ctx, name, ids[op.St], op.Start, op.V)
		case cl != nil && hyql:
			_, err = cl.HyQL(ctx, name, text, at)
		case cl != nil:
			_, err = cl.Query(ctx, name, op.Class, mark.Params(op, ids))
		case op.Class == "append":
			_, err = call(http.MethodPost, base+"/points",
				fmt.Sprintf(`{"station":%d,"t":%d,"v":%g}`, ids[op.St], op.Start, op.V))
		case hyql:
			var body []byte
			if body, err = json.Marshal(map[string]any{"query": text, "at": at}); err == nil {
				_, err = call(http.MethodPost, base+"/hyql", string(body))
			}
		default:
			_, err = call(http.MethodGet, base+"/query?"+mark.Params(op, ids).Encode(), "")
		}
		return map[string]time.Duration{name: time.Since(t0)}, err
	})
}
