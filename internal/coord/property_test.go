package coord_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hygraph/internal/coord"
	"hygraph/internal/hyql"
	"hygraph/internal/storage/ttdb"
	"hygraph/internal/ts"
)

// The property battery drives random ingest/append/trip/delete/re-partition
// interleavings (seeded) through the coordinator and a single-engine oracle
// in lockstep, and requires every Q1–Q8 answer to stay element-wise equal
// (1e-9 relative) at every checkpoint — the partition-invariance property:
// placement is an execution detail, never an answer change.

const propTol = 1e-9

func propEq(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= propTol*m
}

const propSpan = 14 * ts.Day

// propSeries builds a deterministic per-station series over the full span.
func propSeries(i int) *ts.Series {
	s := ts.New(ttdb.Metric)
	for h := ts.Time(0); h*ts.Hour < propSpan; h += 2 {
		s.MustAppend(h*ts.Hour, 10+float64(i%7)+math.Sin(float64(h)+float64(i)))
	}
	return s
}

// world tracks the lockstep state: logical stations with their ids in both
// engines, plus the live trip topology for rebuilding shuffled twins.
type world struct {
	names    []string
	district []string
	alive    []bool
	oraIDs   []ttdb.StationID
	gids     []ttdb.StationID
	trips    [][3]int // logical indexes a, b + count, live pairs only
}

func (w *world) aliveIdx(rng *rand.Rand) (int, bool) {
	var live []int
	for i, a := range w.alive {
		if a {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return live[rng.Intn(len(live))], true
}

// exec runs q and fails the test on any error — a PartialError included: the
// batteries compare complete answers only.
func exec(t testing.TB, e ttdb.Querier, q ttdb.Query) ttdb.Result {
	t.Helper()
	res, err := e.Exec(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Op, err)
	}
	return res
}

// checkAnswers compares every query's answer between the oracle and the
// coordinator, name-keyed so the two id spaces never leak into the
// comparison.
func checkAnswers(t *testing.T, label string, w *world, ora *ttdb.DurablePolyglot, c *coord.Coordinator) {
	t.Helper()
	start, end := propSpan/4, 3*propSpan/4

	oraName := make(map[ttdb.StationID]string)
	gidName := make(map[ttdb.StationID]string)
	var liveIdx []int
	for i := range w.names {
		if !w.alive[i] {
			continue
		}
		liveIdx = append(liveIdx, i)
		oraName[w.oraIDs[i]] = w.names[i]
		gidName[w.gids[i]] = w.names[i]
	}

	byName := func(m map[ttdb.StationID]float64, names map[ttdb.StationID]string) map[string]float64 {
		out := make(map[string]float64, len(m))
		for id, v := range m {
			out[names[id]] = v
		}
		return out
	}
	cmpMap := func(q string, a, b map[string]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s %s: %d vs %d entries (%v vs %v)", label, q, len(a), len(b), a, b)
		}
		for k, av := range a {
			bv, ok := b[k]
			if !ok || !propEq(av, bv) {
				t.Fatalf("%s %s[%s]: %v vs %v (present=%v)", label, q, k, av, bv, ok)
			}
		}
	}

	wantQ4 := exec(t, ora, ttdb.Q4(start, end)).ByStation
	gotQ4 := exec(t, c, ttdb.Q4(start, end)).ByStation
	cmpMap("Q4", byName(wantQ4, oraName), byName(gotQ4, gidName))

	wantQ5 := exec(t, ora, ttdb.Q5(start, end)).ByDistrict
	gotQ5 := exec(t, c, ttdb.Q5(start, end)).ByDistrict
	cmpMap("Q5", wantQ5, gotQ5)

	wantQ6 := exec(t, ora, ttdb.Q6(start, end, 5)).Stations
	gotQ6 := exec(t, c, ttdb.Q6(start, end, 5)).Stations
	if len(wantQ6) != len(gotQ6) {
		t.Fatalf("%s Q6: %d vs %d ids", label, len(wantQ6), len(gotQ6))
	}
	for i := range wantQ6 {
		if oraName[wantQ6[i]] != gidName[gotQ6[i]] {
			t.Fatalf("%s Q6[%d]: %q vs %q", label, i, oraName[wantQ6[i]], gidName[gotQ6[i]])
		}
	}

	// Per-station probes on up to three live stations, plus a correlation
	// pair — sampled deterministically from the live set.
	probe := liveIdx
	if len(probe) > 3 {
		probe = probe[:3]
	}
	for _, i := range probe {
		wantPts := exec(t, ora, ttdb.Q1(w.oraIDs[i], start, start+2*ts.Day)).Points
		gotPts := exec(t, c, ttdb.Q1(w.gids[i], start, start+2*ts.Day)).Points
		if len(wantPts) != len(gotPts) {
			t.Fatalf("%s Q1(%s): %d vs %d points", label, w.names[i], len(wantPts), len(gotPts))
		}
		for j := range wantPts {
			if wantPts[j].T != gotPts[j].T || !propEq(wantPts[j].V, gotPts[j].V) {
				t.Fatalf("%s Q1(%s)[%d]: %v vs %v", label, w.names[i], j, wantPts[j], gotPts[j])
			}
		}
		wantF := exec(t, ora, ttdb.Q2(w.oraIDs[i], start, end, 12)).Points
		gotF := exec(t, c, ttdb.Q2(w.gids[i], start, end, 12)).Points
		if len(wantF) != len(gotF) {
			t.Fatalf("%s Q2(%s): %d vs %d points", label, w.names[i], len(wantF), len(gotF))
		}
		wantM := exec(t, ora, ttdb.Q3(w.oraIDs[i], start, end)).Scalar
		if gotM := exec(t, c, ttdb.Q3(w.gids[i], start, end)).Scalar; !propEq(wantM, gotM) {
			t.Fatalf("%s Q3(%s): %v vs %v", label, w.names[i], wantM, gotM)
		}
		wantN := exec(t, ora, ttdb.Q8(w.oraIDs[i], start, end)).ByStation
		gotN := exec(t, c, ttdb.Q8(w.gids[i], start, end)).ByStation
		cmpMap("Q8("+w.names[i]+")", byName(wantN, oraName), byName(gotN, gidName))
	}
	if len(liveIdx) >= 2 {
		a, b := liveIdx[0], liveIdx[len(liveIdx)/2]
		wantC := exec(t, ora, ttdb.Q7(w.oraIDs[a], w.oraIDs[b], start, end, ts.Hour)).Scalar
		if gotC := exec(t, c, ttdb.Q7(w.gids[a], w.gids[b], start, end, ts.Hour)).Scalar; !propEq(wantC, gotC) {
			t.Fatalf("%s Q7(%s,%s): %v vs %v", label, w.names[a], w.names[b], wantC, gotC)
		}
		wantR := exec(t, ora, ttdb.Q7(w.oraIDs[a], w.oraIDs[b], start, end, 0)).Scalar
		if gotR := exec(t, c, ttdb.Q7(w.gids[a], w.gids[b], start, end, 0)).Scalar; !propEq(wantR, gotR) {
			t.Fatalf("%s Q7raw(%s,%s): %v vs %v", label, w.names[a], w.names[b], wantR, gotR)
		}
	}
}

// hyqlSnapshot runs a fixed HyQL query set over the coordinator's stores and
// returns the flattened rows, for invariance comparison across partitionings.
func hyqlSnapshot(t *testing.T, c *coord.Coordinator) []string {
	t.Helper()
	eng := hyql.NewEngineOver(hyql.NewView(c.Structure()))
	at := 3 * propSpan / 4
	start, end := propSpan/4, 3*propSpan/4
	queries := []string{
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name, ts.mean(a, %d, %d)`, start, end),
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.district, sum(ts.sum(a, %d, %d))`, start, end),
		fmt.Sprintf(`MATCH (st:Station)-[:HAS_SERIES]->(a) RETURN st.name AS name, ts.mean(a, %d, %d) AS m ORDER BY m DESC, name LIMIT 5`, start, end),
	}
	var out []string
	for _, q := range queries {
		res, err := eng.Query(q, at)
		if err != nil {
			t.Fatalf("hyql %q: %v", q, err)
		}
		var rows []string
		for _, row := range res.Rows {
			line := ""
			for _, v := range row {
				if f, ok := v.AsFloat(); ok {
					line += fmt.Sprintf("|%.9g", f)
					continue
				}
				s, _ := v.AsScalar().AsString()
				line += "|" + s
			}
			rows = append(rows, line)
		}
		sort.Strings(rows)
		out = append(out, rows...)
	}
	return out
}

func cmpSnapshots(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: hyql snapshot %d vs %d rows", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: hyql row %d: %q vs %q", label, i, want[i], got[i])
		}
	}
}

// memDisk is one partition's retained durable artifacts.
type memDisk struct {
	graph, tsl, journal bytes.Buffer
}

func TestPartitionInvarianceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			ora := ttdb.NewDurable(ts.Week, io.Discard, io.Discard, io.Discard)

			// The factory retains each partition generation's logs; part 0
			// starts a fresh generation (New and Repartition both construct
			// partitions in index order under the coordinator lock).
			var gen []*memDisk
			factory := func(part int) (*ttdb.DurablePolyglot, error) {
				if part == 0 {
					gen = nil
				}
				for len(gen) <= part {
					gen = append(gen, &memDisk{})
				}
				d := ttdb.NewDurable(ts.Week, &gen[part].graph, &gen[part].tsl, &gen[part].journal)
				d.Retry = ttdb.RetryPolicy{MaxAttempts: 3}
				return d, nil
			}
			c, err := coord.New(1+rng.Intn(4), factory)
			if err != nil {
				t.Fatal(err)
			}

			w := &world{}
			nOps := 120
			for op := 0; op < nOps; op++ {
				switch r := rng.Float64(); {
				case r < 0.5: // ingest a new station
					i := len(w.names)
					name := fmt.Sprintf("st-%03d", i)
					district := fmt.Sprintf("d-%d", i%3)
					oid, err := ora.IngestStation(name, district, propSeries(i))
					if err != nil {
						t.Fatal(err)
					}
					gid, err := c.IngestStation(name, district, propSeries(i))
					if err != nil {
						t.Fatal(err)
					}
					w.names = append(w.names, name)
					w.district = append(w.district, district)
					w.alive = append(w.alive, true)
					w.oraIDs = append(w.oraIDs, oid)
					w.gids = append(w.gids, gid)
				case r < 0.65: // stream one observation
					if i, ok := w.aliveIdx(rng); ok {
						at := ts.Time(rng.Int63n(int64(propSpan)))
						v := rng.Float64() * 20
						if err := ora.AppendPoint(w.oraIDs[i], at, v); err != nil {
							t.Fatal(err)
						}
						if err := c.AppendPoint(w.gids[i], at, v); err != nil {
							t.Fatal(err)
						}
					}
				case r < 0.8: // add a trip
					a, okA := w.aliveIdx(rng)
					b, okB := w.aliveIdx(rng)
					if okA && okB && a != b {
						count := 1 + rng.Intn(9)
						if err := ora.AddTrip(w.oraIDs[a], w.oraIDs[b], count); err != nil {
							t.Fatal(err)
						}
						if err := c.AddTrip(w.gids[a], w.gids[b], count); err != nil {
							t.Fatal(err)
						}
						w.trips = append(w.trips, [3]int{a, b, count})
					}
				case r < 0.9: // delete a station
					if i, ok := w.aliveIdx(rng); ok {
						if err := ora.DeleteStation(w.oraIDs[i]); err != nil {
							t.Fatal(err)
						}
						if err := c.DeleteStation(w.gids[i]); err != nil {
							t.Fatal(err)
						}
						w.alive[i] = false
						kept := w.trips[:0]
						for _, tr := range w.trips {
							if tr[0] != i && tr[1] != i {
								kept = append(kept, tr)
							}
						}
						w.trips = kept
					}
				default: // re-partition
					if err := c.Repartition(1 + rng.Intn(4)); err != nil {
						t.Fatal(err)
					}
				}
				if op%20 == 19 {
					checkAnswers(t, fmt.Sprintf("op%d", op), w, ora, c)
				}
			}
			checkAnswers(t, "final", w, ora, c)
			baseHyql := hyqlSnapshot(t, c)

			// Placement-map changes: every partition count answers the same.
			for _, n := range []int{1, 3, 2} {
				if err := c.Repartition(n); err != nil {
					t.Fatal(err)
				}
				checkAnswers(t, fmt.Sprintf("repartition%d", n), w, ora, c)
				cmpSnapshots(t, fmt.Sprintf("repartition%d", n), baseHyql, hyqlSnapshot(t, c))
			}

			// Out-of-order ingest: a twin built in reverse order answers the
			// same (name-keyed), despite a different gid assignment.
			twin, err := coord.NewMem(2, ts.Week)
			if err != nil {
				t.Fatal(err)
			}
			tw := &world{}
			for i := len(w.names) - 1; i >= 0; i-- {
				tw.names = append(tw.names, "")
				tw.district = append(tw.district, "")
				tw.alive = append(tw.alive, false)
				tw.oraIDs = append(tw.oraIDs, 0)
				tw.gids = append(tw.gids, 0)
			}
			for i := len(w.names) - 1; i >= 0; i-- {
				if !w.alive[i] {
					continue
				}
				gid, err := twin.IngestStation(w.names[i], w.district[i], propSeries(i))
				if err != nil {
					t.Fatal(err)
				}
				tw.names[i], tw.district[i], tw.alive[i] = w.names[i], w.district[i], true
				tw.oraIDs[i], tw.gids[i] = w.oraIDs[i], gid
			}
			// Replay streamed appends? The twin only has base series; rebuild
			// the oracle-equivalent state by copying each station's full
			// series from the primary coordinator instead.
			for i := range w.names {
				if !w.alive[i] {
					continue
				}
				pts := exec(t, c, ttdb.Q1(w.gids[i], 0, ts.MaxTime)).Points
				if err := twin.LoadSeries(tw.gids[i], ts.FromPoints(ttdb.Metric, pts)); err != nil {
					t.Fatal(err)
				}
			}
			for _, tr := range w.trips {
				if err := twin.AddTrip(tw.gids[tr[0]], tw.gids[tr[1]], tr[2]); err != nil {
					t.Fatal(err)
				}
			}
			checkAnswers(t, "shuffled-ingest", tw, ora, twin)

			// Save/Load round-trip: drain every partition's logs, recover
			// each independently, re-attach, and require identical answers.
			if err := c.SyncAll(); err != nil {
				t.Fatal(err)
			}
			saved := gen
			parts := make([]*ttdb.DurablePolyglot, len(saved))
			for i, dk := range saved {
				eng, rec, err := ttdb.RecoverPolyglot(
					nil, bytes.NewReader(dk.graph.Bytes()),
					nil, bytes.NewReader(dk.tsl.Bytes()),
					bytes.NewReader(dk.journal.Bytes()), ts.Week)
				if err != nil {
					t.Fatalf("partition %d recovery: %v", i, err)
				}
				parts[i] = ttdb.ResumeDurable(eng, io.Discard, io.Discard, io.Discard, rec.NextTxn)
			}
			reopened, err := coord.Attach(parts, factory)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reopened.NumStations(), c.NumStations(); got != want {
				t.Fatalf("reopened stations = %d, want %d", got, want)
			}
			checkAnswers(t, "reopened", w, ora, reopened)
			cmpSnapshots(t, "reopened", baseHyql, hyqlSnapshot(t, reopened))
		})
	}
}
