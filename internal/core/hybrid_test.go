package core

import (
	"math"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

func TestHybridMatchFindsBurstyCard(t *testing.T) {
	h, ids := fraudInstance(t)
	// Pattern: user -USES-> card whose balance contains a drain-and-recover
	// shape; the structural and temporal constraints must both hold.
	drain := ts.FromSamples("q", 0, ts.Hour, []float64{1000, 100, 100, 100, 100, 100, 1000})
	p := lpg.NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", SeriesWhere(SubsequencePred("", drain, 1.0))).
		E("u", "c", "USES", nil)
	ms := h.HybridMatch(10*ts.Hour, p, 0)
	if len(ms) != 1 {
		t.Fatalf("hybrid matches=%d", len(ms))
	}
	if ms[0]["u"] != ids["u1"] || ms[0]["c"] != ids["c1"] {
		t.Fatalf("wrong binding: %v", ms[0])
	}
}

func TestHybridMatchStructuralOnly(t *testing.T) {
	h, _ := fraudInstance(t)
	p := lpg.NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", nil).
		E("u", "c", "USES", nil)
	ms := h.HybridMatch(10*ts.Hour, p, 0)
	if len(ms) != 2 {
		t.Fatalf("structural matches=%d", len(ms))
	}
}

func TestSeriesWherePGVertexNeverMatches(t *testing.T) {
	h, _ := fraudInstance(t)
	p := lpg.NewPattern().
		V("x", "User", SeriesWhere(func(*ts.MultiSeries) bool { return true }))
	if ms := h.HybridMatch(10*ts.Hour, p, 0); len(ms) != 0 {
		t.Fatalf("PG vertex passed a series predicate: %v", ms)
	}
}

func TestHybridAggregate(t *testing.T) {
	h := New()
	// Two districts, two stations each, each station owning one series.
	for d := 0; d < 2; d++ {
		for s := 0; s < 2; s++ {
			st, _ := h.AddVertex(tpg.Always, "Station")
			h.SetVertexProp(st, "district", lpg.Str([]string{"north", "south"}[d]))
			ser := ts.New("avail")
			for i := 0; i < 48; i++ {
				ser.MustAppend(ts.Time(i)*ts.Hour, float64(10*(d+1)))
			}
			tsv, _ := h.AddTSVertexUni(ser, "Availability")
			h.AddEdge(st, tsv, "HAS_SERIES", tpg.Always)
		}
	}
	out, supers, err := h.HybridAggregate(AggregateSpec{
		GroupKey:  func(v *Vertex) string { return v.Prop("district").String() },
		Bucket:    ts.Day,
		SeriesAgg: ts.AggMean,
		Combine:   ts.AggSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(supers) != 2 {
		t.Fatalf("groups=%v", supers)
	}
	// Each group: one PG super-vertex + one TS vertex.
	pv, _ := out.CountByKind(PG)
	tv, _ := out.CountByKind(TS)
	if pv != 2 || tv != 2 {
		t.Fatalf("super counts pg=%d ts=%d", pv, tv)
	}
	// North group series: 2 stations × mean 10 per day bucket = 20.
	north := supers["north"]
	if c, _ := out.Vertex(north).Prop("count").AsInt(); c != 2 {
		t.Fatalf("north count=%d", c)
	}
	var northSeries *ts.Series
	for _, e := range out.OutEdges(north) {
		if e.Label == "HAS_SERIES" {
			northSeries, _ = out.Vertex(e.To).SeriesVar("")
		}
	}
	if northSeries == nil || northSeries.Len() != 2 { // 48h → 2 day buckets
		t.Fatalf("north series=%v", northSeries)
	}
	for _, p := range northSeries.Points() {
		if p.V != 20 {
			t.Fatalf("north bucket=%v want 20", p.V)
		}
	}
	// Errors.
	if _, _, err := h.HybridAggregate(AggregateSpec{Bucket: ts.Day}); err == nil {
		t.Fatal("missing GroupKey accepted")
	}
	if _, _, err := h.HybridAggregate(AggregateSpec{GroupKey: func(*Vertex) string { return "" }}); err == nil {
		t.Fatal("zero bucket accepted")
	}
}

func TestCorrelationEdges(t *testing.T) {
	h := New()
	// s1 and s2 strongly correlated; s3 independent noise-free alternation.
	n := 200
	mk := func(name string, f func(i int) float64) *ts.Series {
		s := ts.New(name)
		for i := 0; i < n; i++ {
			s.MustAppend(ts.Time(i)*ts.Minute, f(i))
		}
		return s
	}
	s1 := mk("s1", func(i int) float64 { return math.Sin(float64(i) / 10) })
	s2 := mk("s2", func(i int) float64 { return 3*math.Sin(float64(i)/10) + 1 })
	s3 := mk("s3", func(i int) float64 { return float64(i%2) * 5 })
	var ids []VID
	for _, s := range []*ts.Series{s1, s2, s3} {
		id, err := h.AddTSVertexUni(s, "Card")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	added, err := h.CorrelationEdges(0.9, ts.Minute, 10)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("similar edges=%d", added)
	}
	var sim *Edge
	h.Edges(func(e *Edge) bool {
		if e.Label == "SIMILAR" {
			sim = e
		}
		return true
	})
	if sim == nil || sim.Kind != TS {
		t.Fatal("SIMILAR edge must be a TS edge (paper: time-varying similarity)")
	}
	if sim.From != ids[0] || sim.To != ids[1] {
		t.Fatalf("similar pair %d-%d", sim.From, sim.To)
	}
	if r, _ := sim.Prop("r").AsFloat(); r < 0.9 {
		t.Fatalf("r=%v", r)
	}
	// The rolling similarity series has content and values within [-1,1].
	rs, _ := sim.SeriesVar("")
	if rs.Empty() {
		t.Fatal("empty similarity series")
	}
	for _, p := range rs.Points() {
		if p.V < -1-1e-9 || p.V > 1+1e-9 {
			t.Fatalf("correlation point %v out of range", p)
		}
	}
}

func TestCorrelatedReachable(t *testing.T) {
	h := New()
	n := 100
	mk := func(f func(i int) float64) *ts.Series {
		s := ts.New("s")
		for i := 0; i < n; i++ {
			s.MustAppend(ts.Time(i), f(i))
		}
		return s
	}
	sine := func(i int) float64 { return math.Sin(float64(i) / 5) }
	anti := func(i int) float64 { return -math.Sin(float64(i) / 5) }
	noise := func(i int) float64 { return float64((i*7)%13) - float64((i*3)%5) }
	a, _ := h.AddTSVertexUni(mk(sine), "S")
	b, _ := h.AddTSVertexUni(mk(sine), "S")
	c, _ := h.AddTSVertexUni(mk(noise), "S")
	d, _ := h.AddTSVertexUni(mk(anti), "S")
	// Chain a-b-c, and a-d.
	h.AddEdge(a, b, "e", tpg.Always)
	h.AddEdge(b, c, "e", tpg.Always)
	h.AddEdge(a, d, "e", tpg.Always)
	// a→b correlated (ρ=1): reachable. b→c uncorrelated: c unreachable.
	if !h.CorrelatedReachable(a, b, 0.9, 1, -1) {
		t.Fatal("a-b should be reachable")
	}
	if h.CorrelatedReachable(a, c, 0.9, 1, -1) {
		t.Fatal("c should be blocked by uncorrelated hop")
	}
	// Anticorrelation counts via |r|.
	if !h.CorrelatedReachable(a, d, 0.9, 1, -1) {
		t.Fatal("anticorrelated edge should pass |r| threshold")
	}
	// Hop bound.
	if h.CorrelatedReachable(a, b, 0.9, 1, 0) {
		t.Fatal("0 hops")
	}
	if !h.CorrelatedReachable(a, a, 0.9, 1, 0) {
		t.Fatal("self reach")
	}
	if h.CorrelatedReachable(99, a, 0.9, 1, -1) {
		t.Fatal("missing vertex")
	}
}

func TestSegmentSnapshots(t *testing.T) {
	// TPG whose activity has two regimes: quiet then busy.
	g := tpg.NewGraph()
	a, errA := g.AddVertex(tpg.Always, "V")
	b, errB := g.AddVertex(tpg.Always, "V")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := 0; i < 40; i++ {
		if _, err := g.AddEdge(a, b, "e", tpg.Between(ts.Time(500+i), ts.Time(1000))); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := FromTPG(g)
	driver := h.ActivitySeries(0, 1000, 10)
	snaps := h.SegmentSnapshots(driver, 2, 0.01)
	if len(snaps) != 2 {
		t.Fatalf("segments=%d", len(snaps))
	}
	// First regime has ~0 active edges; second regime's snapshot shows many.
	e0 := lpgEdges(snaps[0].View.Graph)
	e1 := lpgEdges(snaps[1].View.Graph)
	if e0 != 0 || e1 < 20 {
		t.Fatalf("snapshot edges %d then %d", e0, e1)
	}
	if snaps[1].Segment.Start < 400 || snaps[1].Segment.Start > 600 {
		t.Fatalf("breakpoint at %v", snaps[1].Segment.Start)
	}
}

func TestAnomalyCommunities(t *testing.T) {
	h := New()
	n := 200
	mk := func(anomalous bool) *ts.Series {
		s := ts.New("s")
		for i := 0; i < n; i++ {
			v := math.Sin(float64(i) / 7)
			if anomalous && i == 150 {
				v += 40
			}
			s.MustAppend(ts.Time(i), v)
		}
		return s
	}
	// Community A: 3 interconnected anomalous cards; community B: 3 normal.
	var as, bs []VID
	for i := 0; i < 3; i++ {
		a, _ := h.AddTSVertexUni(mk(true), "Card")
		as = append(as, a)
		b, _ := h.AddTSVertexUni(mk(false), "Card")
		bs = append(bs, b)
	}
	link := func(ids []VID) {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				h.AddEdge(ids[i], ids[j], "e", tpg.Always)
			}
		}
	}
	link(as)
	link(bs)
	res := h.AnomalyCommunities(100, 20, 6, 1)
	if len(res) != 2 {
		t.Fatalf("communities=%d", len(res))
	}
	// Highest-scoring community is the anomalous one and contains as.
	top := res[0]
	if top.Score <= res[1].Score {
		t.Fatalf("ordering: %v vs %v", top.Score, res[1].Score)
	}
	member := map[VID]bool{}
	for _, m := range top.Members {
		member[m] = true
	}
	for _, a := range as {
		if !member[a] {
			t.Fatalf("anomalous card %d not in top community", a)
		}
	}
	if res[1].Score != 0 {
		t.Fatalf("normal community score=%v", res[1].Score)
	}
}

func TestMotifPatterns(t *testing.T) {
	h := New()
	n := 64
	mk := func(shape func(i int) float64) *ts.Series {
		s := ts.New("s")
		for i := 0; i < n; i++ {
			s.MustAppend(ts.Time(i), shape(i))
		}
		return s
	}
	ramp := func(i int) float64 { return float64(i) }
	vee := func(i int) float64 { return math.Abs(float64(i - n/2)) }
	// 3 ramps, 2 vees.
	r1, _ := h.AddTSVertexUni(mk(ramp), "S")
	r2, _ := h.AddTSVertexUni(mk(ramp), "S")
	r3, _ := h.AddTSVertexUni(mk(ramp), "S")
	v1, _ := h.AddTSVertexUni(mk(vee), "S")
	h.AddTSVertexUni(mk(vee), "S")
	h.AddEdge(r1, r2, "e", tpg.Always)
	h.AddEdge(r1, v1, "e", tpg.Always)
	groups := h.MotifPatterns(8, 4, 2)
	if len(groups) != 2 {
		t.Fatalf("groups=%v", groups)
	}
	// Largest group is the ramps with 1 induced edge (r1-r2).
	if len(groups[0].Members) != 3 || groups[0].InducedEdges != 1 {
		t.Fatalf("ramp group=%+v", groups[0])
	}
	want := map[VID]bool{r1: true, r2: true, r3: true}
	for _, m := range groups[0].Members {
		if !want[m] {
			t.Fatalf("wrong member %d", m)
		}
	}
	if len(groups[1].Members) != 2 || groups[1].InducedEdges != 0 {
		t.Fatalf("vee group=%+v", groups[1])
	}
	// minSize filtering.
	if got := h.MotifPatterns(8, 4, 4); len(got) != 0 {
		t.Fatalf("minSize filter: %v", got)
	}
}

func TestCorrelationEdgesParallelMatchesSerial(t *testing.T) {
	build := func() *HyGraph {
		h := New()
		n := 150
		for k := 0; k < 12; k++ {
			s := ts.New("s")
			phase := float64(k%3) * 2
			for i := 0; i < n; i++ {
				s.MustAppend(ts.Time(i)*ts.Minute, math.Sin(float64(i)/8+phase))
			}
			if _, err := h.AddTSVertexUni(s, "Card"); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	hs := build()
	hp := build()
	serial, err := hs.CorrelationEdges(0.9, ts.Minute, 10)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := hp.CorrelationEdgesParallel(0.9, ts.Minute, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel || serial == 0 {
		t.Fatalf("serial=%d parallel=%d", serial, parallel)
	}
	// Same edges in the same order with the same r values.
	var se, pe []*Edge
	hs.Edges(func(e *Edge) bool { se = append(se, e); return true })
	hp.Edges(func(e *Edge) bool { pe = append(pe, e); return true })
	if len(se) != len(pe) {
		t.Fatalf("edge counts %d vs %d", len(se), len(pe))
	}
	for i := range se {
		if se[i].From != pe[i].From || se[i].To != pe[i].To {
			t.Fatalf("edge %d endpoints differ", i)
		}
		rs, _ := se[i].Prop("r").AsFloat()
		rp, _ := pe[i].Prop("r").AsFloat()
		if rs != rp {
			t.Fatalf("edge %d r %v vs %v", i, rs, rp)
		}
	}
	// workers<=0 selects GOMAXPROCS and still works.
	hq := build()
	if _, err := hq.CorrelationEdgesParallel(0.9, ts.Minute, 10, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesEdgeWhereAndLabels(t *testing.T) {
	h, ids := fraudInstance(t)
	// Match TX_FLOW TS edges whose amount series has a burst over 1000.
	p := lpg.NewPattern().
		V("c", "CreditCard", nil).
		V("m", "Merchant", nil).
		E("c", "m", "TX_FLOW", func(e *lpg.Edge) bool {
			m, ok := e.Prop(SeriesPropKey).AsMulti()
			if !ok {
				return false
			}
			s, ok := m.Var(m.Vars()[0])
			return ok && s.Max() > 1000
		})
	ms := h.HybridMatch(10*ts.Hour, p, 0)
	if len(ms) != 2 { // c1's two bursty flows
		t.Fatalf("ts-edge matches=%d", len(ms))
	}
	for _, b := range ms {
		if b["c"] != ids["c1"] {
			t.Fatalf("wrong card: %v", b)
		}
	}
	// Subgraph ids are dense from 0.
	if h.Subgraph(0) != nil {
		t.Fatal("fresh instance has subgraphs")
	}
	sid, err := h.AddSubgraph(tpg.Always, "S")
	if err != nil {
		t.Fatal(err)
	}
	if sg := h.Subgraph(sid); sid != 0 || sg == nil || sg.ID != sid || h.Subgraph(1) != nil {
		t.Fatalf("subgraph %d after one AddSubgraph", sid)
	}
}
