package ttdb

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hygraph/internal/storage/graphstore"
	"hygraph/internal/ts"
)

var workloadDistricts = []string{"north", "south", "east"}

// workloadSeries is station i's series in the shared workload: 14 days
// hourly, a daily sine around a per-station level.
func workloadSeries(i int) *ts.Series {
	s := ts.New(Metric)
	for h := 0; h < 24*14; h++ {
		v := 10 + float64(i) + 3*math.Sin(2*math.Pi*float64(h%24)/24)
		s.MustAppend(ts.Time(h)*ts.Hour, v)
	}
	return s
}

// loadWorkload fills an engine with a small deterministic bike-sharing
// workload — nine stations on a ring of trips — and returns the station ids.
func loadWorkload(t *testing.T, e Engine) []StationID {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var sts []StationID
	for i := 0; i < 9; i++ {
		st, err := e.IngestStation("st", workloadDistricts[i%3], workloadSeries(i))
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	for i := 0; i < 9; i++ {
		if err := e.AddTrip(sts[i], sts[(i+1)%9], 1+rng.Intn(5)); err != nil {
			t.Fatal(err)
		}
	}
	return sts
}

// exec runs q against e and fails the test on any error.
func exec(t testing.TB, e Querier, q Query) Result {
	t.Helper()
	res, err := e.Exec(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q.Op, err)
	}
	return res
}

// Both engines must return identical answers on every query: the polyglot
// layout is an optimization, not a semantics change.
func TestEnginesAgree(t *testing.T) {
	neo := NewAllInGraph()
	pg := NewPolyglot(ts.Day)
	stN := loadWorkload(t, neo)
	stP := loadWorkload(t, pg)
	start, end := 2*ts.Day, 9*ts.Day

	// Q1
	p1 := exec(t, neo, Q1(stN[0], start, end)).Points
	p2 := exec(t, pg, Q1(stP[0], start, end)).Points
	if len(p1) != len(p2) || len(p1) != 24*7 {
		t.Fatalf("Q1 lens %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("Q1[%d]: %v vs %v", i, p1[i], p2[i])
		}
	}
	// Q2
	f1 := exec(t, neo, Q2(stN[1], start, end, 9.5)).Points
	f2 := exec(t, pg, Q2(stP[1], start, end, 9.5)).Points
	if len(f1) != len(f2) || len(f1) == 0 {
		t.Fatalf("Q2 lens %d vs %d", len(f1), len(f2))
	}
	for _, p := range f1 {
		if p.V >= 9.5 {
			t.Fatalf("Q2 filter leaked %v", p)
		}
	}
	// Q3
	m1 := exec(t, neo, Q3(stN[2], start, end)).Scalar
	m2 := exec(t, pg, Q3(stP[2], start, end)).Scalar
	if math.Abs(m1-m2) > 1e-9 || math.Abs(m1-12) > 0.01 {
		t.Fatalf("Q3 %v vs %v", m1, m2)
	}
	// Q4
	// Both engines list the stations in ingest order.
	a1 := exec(t, neo, Q4(start, end))
	a2 := exec(t, pg, Q4(start, end))
	if !slices.Equal(a1.IDs, stN) || !slices.Equal(a2.IDs, stP) {
		t.Fatalf("Q4 stations %v / %v, want %v / %v", a1.IDs, a2.IDs, stN, stP)
	}
	for i := range stN {
		if math.Abs(a1.Vals[i]-a2.Vals[i]) > 1e-9 {
			t.Fatalf("Q4 station %d: %v vs %v", i, a1.Vals[i], a2.Vals[i])
		}
	}
	// Q5
	d1 := asMap(exec(t, neo, Q5(start, end)))
	d2 := asMap(exec(t, pg, Q5(start, end)))
	if len(d1) != 3 || len(d2) != 3 {
		t.Fatalf("Q5 sizes %d/%d", len(d1), len(d2))
	}
	for k, v := range d1 {
		if math.Abs(v-d2[k]) > 1e-6 {
			t.Fatalf("Q5 %s: %v vs %v", k, v, d2[k])
		}
	}
	// Q6: highest-index stations have the highest base level.
	k1 := exec(t, neo, Q6(start, end, 3)).IDs
	k2 := exec(t, pg, Q6(start, end, 3)).IDs
	if len(k1) != 3 || len(k2) != 3 {
		t.Fatalf("Q6 %v / %v", k1, k2)
	}
	for i := range k1 {
		if k1[i] != stN[8-i] || k2[i] != stP[8-i] {
			t.Fatalf("Q6 order: %v vs expected descending", k1)
		}
	}
	// Q7: all stations share the same daily shape → correlation ≈ 1.
	c1 := exec(t, neo, Q7(stN[0], stN[5], start, end, ts.Hour)).Scalar
	c2 := exec(t, pg, Q7(stP[0], stP[5], start, end, ts.Hour)).Scalar
	if math.Abs(c1-c2) > 1e-6 || c1 < 0.99 {
		t.Fatalf("Q7 %v vs %v", c1, c2)
	}
	// Q8: ring topology → exactly two neighbors each.
	// Both engines list the neighbours in adjacency order.
	n1 := exec(t, neo, Q8(stN[0], start, end))
	n2 := exec(t, pg, Q8(stP[0], start, end))
	if len(n1.IDs) != 2 || len(n2.IDs) != 2 {
		t.Fatalf("Q8 sizes %d/%d", len(n1.IDs), len(n2.IDs))
	}
	for j, id := range n1.IDs {
		i := slices.Index(stN, id)
		if n2.IDs[j] != stP[i] || math.Abs(n1.Vals[j]-n2.Vals[j]) > 1e-9 {
			t.Fatalf("Q8 neighbour %d: station %d = %v vs station %d = %v", j, id, n1.Vals[j], n2.IDs[j], n2.Vals[j])
		}
	}
}

func TestAllInGraphPropertyExplosion(t *testing.T) {
	// The paper's observation: storing points as properties explodes the
	// property count (series length + metadata per station).
	neo := NewAllInGraph()
	s := ts.New(Metric)
	n := 500
	for i := 0; i < n; i++ {
		s.MustAppend(ts.Time(i), float64(i))
	}
	st, err := neo.IngestStation("x", "d", s)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	neo.G.NodeProps(st, func(string, graphstore.PropValue) bool { got++; return true })
	if got != n+2 { // + name + district
		t.Fatalf("prop chain length=%d want %d", got, n+2)
	}
}

func TestPointKeyRoundTrip(t *testing.T) {
	for _, tt := range []ts.Time{0, 1, 999999999999} {
		k := pointKey(tt)
		got, ok := parsePointKey(k)
		if !ok || got != tt {
			t.Fatalf("round trip %d via %q -> %d,%v", tt, k, got, ok)
		}
	}
	if _, ok := parsePointKey("name"); ok {
		t.Fatal("non-point key parsed")
	}
	if _, ok := parsePointKey(Metric + "@abc"); ok {
		t.Fatal("garbage timestamp parsed")
	}
}

func TestDescribeAndNames(t *testing.T) {
	var names []string
	for op := OpQ1; op <= OpDownsample; op++ {
		names = append(names, op.String())
		if op.Describe() == "" || op.Describe() == Op(99).Describe() {
			t.Fatalf("describe(%s)=%q", op, op.Describe())
		}
		if back, ok := ParseOp(op.String()); !ok || back != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), back, ok)
		}
	}
	if want := "Q1 Q2 Q3 Q4 Q5 Q6 Q7 Q8 downsample"; strings.Join(names, " ") != want {
		t.Fatalf("names=%v, want %s", names, want)
	}
	if _, ok := ParseOp("Q9"); ok {
		t.Fatal("ParseOp accepted Q9")
	}
}

func TestEngineNames(t *testing.T) {
	if NewAllInGraph().Name() != "neo4j-sim" || NewPolyglot(0).Name() != "ttdb" {
		t.Fatal("engine names")
	}
}
