package ttdb

import (
	"fmt"
	"math"
	"testing"

	"hygraph/internal/hyql"
	"hygraph/internal/lpg"
	"hygraph/internal/obs"
	"hygraph/internal/storage/graphstore"
	"hygraph/internal/ts"
)

func sameFloat(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameSeries(a, b *ts.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.TimeAt(i) != b.TimeAt(i) || !sameFloat(a.ValueAt(i), b.ValueAt(i)) {
			return false
		}
	}
	return true
}

// handleSeries is three weeks of hourly samples with NaNs where they matter:
// as the first sample of a window, and inside a chunk a window covers whole.
func handleSeries(phase float64) *ts.Series {
	s := ts.New(Metric)
	for h := ts.Time(0); h < 21*24; h++ {
		s.MustAppend(h*ts.Hour, 10+5*math.Sin(float64(h)/7+phase))
	}
	s.Upsert(4*ts.Day, math.NaN())
	s.Upsert(10*ts.Day, math.NaN())
	return s
}

// TestStoreSeriesMatchesDecodedSeries: every method of the handle answers
// what the same call on the fully decoded series answers, whichever way the
// handle got there, and the counters say which way that was.
func TestStoreSeriesMatchesDecodedSeries(t *testing.T) {
	p := NewPolyglot(ts.Week)
	reg := obs.New()
	p.Instrument(reg)
	a, _ := p.IngestStation("a", "d", handleSeries(0))
	b, _ := p.IngestStation("b", "d", handleSeries(1))
	other := NewPolyglot(ts.Week) // a second hypertable, as another partition has
	c, _ := other.IngestStation("c", "d", handleSeries(2))

	ha, hb, hc := p.Series(a), p.Series(b), other.Series(c)
	ma, mb, mc := handleSeries(0), handleSeries(1), handleSeries(2)
	if first, last, ok := ha.Span(); !ok || first != ma.Start() || last != ma.End() {
		t.Fatalf("span = [%d, %d] %v", first, last, ok)
	}
	if _, _, ok := p.Series(99).Span(); ok {
		t.Fatal("span of a station that has no series")
	}

	windows := [][2]ts.Time{
		{math.MinInt64, ts.MaxTime}, {3*ts.Day + 5*ts.Hour, 17*ts.Day + 7*ts.Hour},
		{4 * ts.Day, 5 * ts.Day}, {7 * ts.Day, 14 * ts.Day}, {9 * ts.Day, 9 * ts.Day},
		{12 * ts.Day, 2 * ts.Day}, {30 * ts.Day, 40 * ts.Day},
	}
	aggs := []ts.AggFunc{ts.AggMean, ts.AggSum, ts.AggMin, ts.AggMax, ts.AggCount,
		ts.AggStd, ts.AggMedian, ts.AggFirst, ts.AggLast}
	for _, w := range windows {
		for _, agg := range aggs {
			if got, want := ha.Aggregate(agg, w[0], w[1]), ma.AggregateRange(agg, w[0], w[1]); !sameFloat(got, want) {
				t.Fatalf("%s over [%d, %d): %v, want %v", agg, w[0], w[1], got, want)
			}
		}
		if !sameSeries(ha.Range(w[0], w[1]), ma.SliceView(w[0], w[1])) {
			t.Fatalf("range [%d, %d)", w[0], w[1])
		}
		if w[0] == math.MinInt64 {
			continue // the unwindowed forms never reach Resample or Corr
		}
		for _, bucket := range []ts.Time{6 * ts.Hour, ts.Day, 0, -ts.Hour} {
			for _, agg := range []ts.AggFunc{ts.AggMean, ts.AggMax, ts.AggMedian} {
				if !sameSeries(ha.Resample(w[0], w[1], bucket, agg), ma.SliceView(w[0], w[1]).Resample(bucket, agg)) {
					t.Fatalf("resample %s/%d over [%d, %d)", agg, bucket, w[0], w[1])
				}
			}
			pairs := []struct {
				label string
				got   float64
				x, y  *ts.Series
			}{
				{"one hypertable", ha.Corr(hb, w[0], w[1], bucket), ma, mb},
				{"two hypertables", ha.Corr(hc, w[0], w[1], bucket), ma, mc},
			}
			for _, pr := range pairs {
				want := ts.Correlation(pr.x.SliceView(w[0], w[1]), pr.y.SliceView(w[0], w[1]), bucket)
				if !sameFloat(pr.got, want) {
					t.Fatalf("corr (%s) bucket %d over [%d, %d): %v, want %v", pr.label, bucket, w[0], w[1], pr.got, want)
				}
			}
		}
	}

	counters := func() (pushdown, decoded int64) {
		snap := reg.Snapshot()
		return snap.Counters["hyql.series.pushdown"], snap.Counters["hyql.series.decoded_points"]
	}
	p0, d0 := counters()
	ha.Aggregate(ts.AggMean, 0, 21*ts.Day)
	ha.Aggregate(ts.AggMax, 5*ts.Day, 9*ts.Day) // NaN-free: summaries suffice
	ha.Resample(0, 7*ts.Day, ts.Day, ts.AggMean)
	if p1, d1 := counters(); p1-p0 != 3 || d1 != d0 {
		t.Fatalf("summary-answerable calls: pushdown +%d decoded +%d, want +3 +0", p1-p0, d1-d0)
	}
	ha.Aggregate(ts.AggMedian, 0, ts.Day)
	ha.Aggregate(ts.AggMin, 4*ts.Day, 5*ts.Day) // holds a NaN: decoded
	if p2, d2 := counters(); p2-p0 != 3 || d2-d0 != 48 {
		t.Fatalf("decoding calls: pushdown +%d decoded +%d, want +3 +48", p2-p0, d2-d0)
	}
}

// TestStructureShape: the graph HyQL matches against, read off the stores.
func TestStructureShape(t *testing.T) {
	p := NewPolyglot(ts.Week)
	a, _ := p.IngestStation("a", "north", handleSeries(0))
	b, _ := p.IngestStation("b", "south", handleSeries(1))
	c, _ := p.IngestStation("c", "south", ts.New(Metric)) // no samples yet
	p.AddTrip(a, b, 3)
	p.AddTrip(c, a, 5)
	boundary := p.G.CreateNode("Boundary") // a coordinator's replica: not a station
	rel, _ := p.G.CreateRel(a, boundary, "TRIP")
	p.G.SetRelProp(rel, "count", graphstore.IntVal(9))

	g := p.Structure()
	var got []string
	g.Vertices(func(v *lpg.Vertex) bool {
		_, ref := v.Prop("_series").AsSeriesRef()
		got = append(got, fmt.Sprintf("v%d %v %s %s ref=%v", v.ID, v.Labels, v.Prop("name"), v.Prop("_kind"), ref))
		return true
	})
	g.Edges(func(e *lpg.Edge) bool {
		got = append(got, fmt.Sprintf("e%d %s %d->%d %s", e.ID, e.Label, e.From, e.To, e.Prop("count")))
		return true
	})
	want := []string{
		"v0 [Station] a pg ref=false", "v1 [Availability] null ts ref=true",
		"v2 [Station] b pg ref=false", "v3 [Availability] null ts ref=true",
		"v4 [Station] c pg ref=false", "v5 [Availability] null ts ref=true",
		"e0 HAS_SERIES 0->1 null", "e1 HAS_SERIES 2->3 null", "e2 HAS_SERIES 4->5 null",
		// Trips in adjacency-walk order: a's newest relationship first.
		"e3 TRIP 4->0 5", "e4 TRIP 0->2 3",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("structure:\n got %q\nwant %q", got, want)
	}

	// Queried through HyQL: the sample-less station has no valid series
	// vertex until a sample arrives, and no rebuild is needed to see it.
	eng := hyql.NewEngine(hyql.NewView(g))
	const q = `MATCH (st:Station)-[:HAS_SERIES]->(x) RETURN st.name, ts.len(x)`
	rows := func() string {
		res, err := eng.Query(q, ts.Day)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	if got := rows(); got != "[[a 504] [b 504]]" {
		t.Fatalf("before c reports: %s", got)
	}
	p.T.Insert(key(c), ts.Day, 1)
	if got := rows(); got != "[[a 504] [b 504] [c 1]]" {
		t.Fatalf("after c reports: %s", got)
	}
}
