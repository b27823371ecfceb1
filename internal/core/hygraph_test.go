package core

import (
	"slices"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// fraudInstance builds the paper's Section-5 running-example model:
// users and merchants as PG vertices, credit cards as TS vertices (balance),
// USES as PG edges, card->merchant transaction flows as TS edges.
func fraudInstance(t *testing.T) (*HyGraph, map[string]VID) {
	t.Helper()
	h := New()
	ids := map[string]VID{}
	addPG := func(name, label string) VID {
		id, err := h.AddVertex(tpg.Always, label)
		if err != nil {
			t.Fatal(err)
		}
		h.SetVertexProp(id, "name", lpg.Str(name))
		ids[name] = id
		return id
	}
	u1 := addPG("u1", "User")
	u2 := addPG("u2", "User")
	m1 := addPG("m1", "Merchant")
	m2 := addPG("m2", "Merchant")

	// Balance series: u1's card is bursty (fraud), u2's is steady.
	bal1 := ts.New("balance")
	bal2 := ts.New("balance")
	for i := 0; i < 100; i++ {
		v1 := 1000.0
		if i >= 50 && i < 55 {
			v1 = 100 // sudden drain
		}
		bal1.MustAppend(ts.Time(i)*ts.Hour, v1)
		bal2.MustAppend(ts.Time(i)*ts.Hour, 500+float64(i%7))
	}
	c1, err := h.AddTSVertexUni(bal1, "CreditCard")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.AddTSVertexUni(bal2, "CreditCard")
	if err != nil {
		t.Fatal(err)
	}
	ids["c1"], ids["c2"] = c1, c2

	if _, err := h.AddEdge(u1, c1, "USES", tpg.Always); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddEdge(u2, c2, "USES", tpg.Always); err != nil {
		t.Fatal(err)
	}
	// TS edges: transaction flows card -> merchant.
	flow := func(bursty bool) *ts.Series {
		s := ts.New("amount")
		for i := 0; i < 100; i++ {
			v := 20.0
			if bursty && i >= 50 && i < 55 {
				v = 1500
			}
			s.MustAppend(ts.Time(i)*ts.Hour, v)
		}
		return s
	}
	if _, err := h.AddTSEdgeUni(c1, m1, "TX_FLOW", flow(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddTSEdgeUni(c1, m2, "TX_FLOW", flow(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddTSEdgeUni(c2, m1, "TX_FLOW", flow(false)); err != nil {
		t.Fatal(err)
	}
	return h, ids
}

func TestModelCounts(t *testing.T) {
	h, _ := fraudInstance(t)
	pv, pe := h.CountByKind(PG)
	tv, te := h.CountByKind(TS)
	if pv != 4 || tv != 2 {
		t.Fatalf("vertices pg=%d ts=%d", pv, tv)
	}
	if pe != 2 || te != 3 {
		t.Fatalf("edges pg=%d ts=%d", pe, te)
	}
	if len(h.vertices) != 6 || len(h.edges) != 5 {
		t.Fatalf("totals %d/%d", len(h.vertices), len(h.edges))
	}
}

func TestTSElementRequiresSeries(t *testing.T) {
	h := New()
	if _, err := h.AddTSVertex(nil, "X"); err != ErrNeedsSeries {
		t.Fatalf("nil series vertex: %v", err)
	}
	a, _ := h.AddVertex(tpg.Always, "A")
	b, _ := h.AddVertex(tpg.Always, "B")
	if _, err := h.AddTSEdge(a, b, "r", nil); err != ErrNeedsSeries {
		t.Fatalf("nil series edge: %v", err)
	}
	if _, err := h.AddTSVertexUni(nil, "X"); err != ErrNeedsSeries {
		t.Fatalf("nil uni series: %v", err)
	}
}

func TestEdgeEndpointValidation(t *testing.T) {
	h := New()
	a, _ := h.AddVertex(tpg.Always, "A")
	if _, err := h.AddEdge(a, 99, "r", tpg.Always); err != ErrNoVertex {
		t.Fatalf("missing endpoint: %v", err)
	}
	if _, err := h.AddVertex(tpg.Between(5, 1)); err != ErrBadInterval {
		t.Fatalf("bad interval: %v", err)
	}
}

func TestEffectiveValidity(t *testing.T) {
	h := New()
	s := ts.FromSamples("s", 100, 10, []float64{1, 2, 3}) // span [100, 120]
	id, _ := h.AddTSVertexUni(s, "TS")
	iv := h.Vertex(id).EffectiveValid()
	if !iv.Contains(100) || !iv.Contains(120) || iv.Contains(121) {
		t.Fatalf("ts validity=%v", iv)
	}
	p, _ := h.AddVertex(tpg.Between(0, 50), "PG")
	if got := h.Vertex(p).EffectiveValid(); got != tpg.Between(0, 50) {
		t.Fatalf("pg validity=%v", got)
	}
	// Empty TS vertex: empty validity.
	e, _ := h.AddTSVertexUni(ts.New("empty"), "TS")
	if got := h.Vertex(e).EffectiveValid(); got.End != got.Start {
		t.Fatalf("empty ts validity=%v", got)
	}
}

func TestAdjacency(t *testing.T) {
	h, ids := fraudInstance(t)
	out := h.OutEdges(ids["c1"])
	if len(out) != 2 {
		t.Fatalf("c1 out=%d", len(out))
	}
	for _, e := range out {
		if e.Label != "TX_FLOW" || e.Kind != TS {
			t.Fatalf("edge %v", e)
		}
	}
	in := h.InEdges(ids["c1"])
	if len(in) != 1 || in[0].Label != "USES" {
		t.Fatalf("c1 in=%v", in)
	}
	if h.OutEdges(-1) != nil || h.InEdges(999) != nil {
		t.Fatal("bad ids must yield nil")
	}
}

func TestSeriesAccessors(t *testing.T) {
	h, ids := fraudInstance(t)
	if c1 := h.Vertex(ids["c1"]); c1.Kind != TS || c1.Series == nil || c1.Series.Len() != 100 {
		t.Fatal("series of c1")
	}
	if u1 := h.Vertex(ids["u1"]); u1.Kind != PG || u1.Series != nil {
		t.Fatal("PG vertex has no δ")
	}
	s, ok := h.Vertex(ids["c1"]).SeriesVar("")
	if !ok || s.Len() != 100 {
		t.Fatal("first-variable extraction")
	}
	if _, ok := h.Vertex(ids["c1"]).SeriesVar("nope"); ok {
		t.Fatal("missing variable")
	}
	var te *Edge
	h.Edges(func(e *Edge) bool {
		if e.Kind == TS {
			te = e
			return false
		}
		return true
	})
	if te.Series == nil || te.Series.Len() != 100 {
		t.Fatal("series of edge")
	}
}

func TestPropsAndLabels(t *testing.T) {
	h, ids := fraudInstance(t)
	v := h.Vertex(ids["u1"])
	if !slices.Contains(v.Labels, "User") || slices.Contains(v.Labels, "Merchant") {
		t.Fatal("labels")
	}
	if v.Prop("name").String() != "u1" {
		t.Fatal("prop")
	}
	if err := h.SetVertexProp(999, "x", lpg.Int(1)); err != ErrNoVertex {
		t.Fatalf("missing vertex prop: %v", err)
	}
	if err := h.SetEdgeProp(999, "x", lpg.Int(1)); err != ErrNoEdge {
		t.Fatalf("missing edge prop: %v", err)
	}
	if got := h.String(); got == "" {
		t.Fatal("string")
	}
}

// TestSubgraphMembership: γ membership is recorded only for an existing
// subgraph and vertex, clipped to the subgraph's validity ρ(s); an interval
// disjoint from ρ(s), like an invalid ρ(s) itself, is rejected.
func TestSubgraphMembership(t *testing.T) {
	h, ids := fraudInstance(t)
	if _, err := h.AddSubgraph(tpg.Interval{Start: 10, End: 5}, "Cluster"); err != ErrBadInterval {
		t.Fatalf("inverted validity: %v", err)
	}
	sg, err := h.AddSubgraph(tpg.Between(0, 1000*ts.Hour), "Cluster")
	if err != nil {
		t.Fatal(err)
	}
	// u1 is a member for the first half, u2 for the whole interval.
	if err := h.AddVertexMember(sg, ids["u1"], tpg.Between(0, 500*ts.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := h.AddVertexMember(sg, ids["u2"], tpg.Always); err != nil {
		t.Fatal(err)
	}
	if err := h.AddVertexMember(sg, ids["u1"], tpg.Between(2000*ts.Hour, 3000*ts.Hour)); err != ErrBadInterval {
		t.Fatalf("membership outside validity: %v", err)
	}
	if err := h.AddVertexMember(99, ids["u1"], tpg.Always); err != ErrNoSubgraph {
		t.Fatalf("missing subgraph: %v", err)
	}
	if err := h.AddVertexMember(sg, 999, tpg.Always); err != ErrNoVertex {
		t.Fatalf("missing vertex: %v", err)
	}
}
