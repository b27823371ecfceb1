package hyql

import (
	"fmt"
	"math"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// fraudHG builds the running-example HyGraph: 3 users, cards (TS vertices),
// merchants, USES edges, TX edges with amounts. User u1 is the planted
// fraudster (bursty balance + 3 high TXs), u3 a benign heavy spender
// (high TXs, steady balance), u2 ordinary.
func fraudHG(t *testing.T) *core.HyGraph {
	t.Helper()
	h := core.New()
	addPG := func(name, label string) core.VID {
		id, err := h.AddVertex(tpg.Always, label)
		if err != nil {
			t.Fatal(err)
		}
		h.SetVertexProp(id, "name", lpg.Str(name))
		return id
	}
	u1 := addPG("u1", "User")
	u2 := addPG("u2", "User")
	u3 := addPG("u3", "User")
	m1 := addPG("m1", "Merchant")
	m2 := addPG("m2", "Merchant")
	m3 := addPG("m3", "Merchant")

	balance := func(bursty bool) *ts.Series {
		s := ts.New("balance")
		for i := 0; i < 96; i++ {
			v := 1000.0
			if bursty && i >= 40 && i < 44 {
				v = 50
			}
			s.MustAppend(ts.Time(i)*ts.Hour, v+float64(i%5))
		}
		return s
	}
	mkCard := func(name string, bursty bool) core.VID {
		id, err := h.AddTSVertexUni(balance(bursty), "CreditCard")
		if err != nil {
			t.Fatal(err)
		}
		h.SetVertexProp(id, "name", lpg.Str(name))
		return id
	}
	c1 := mkCard("c1", true)
	c2 := mkCard("c2", false)
	c3 := mkCard("c3", false)
	h.AddEdge(u1, c1, "USES", tpg.Always)
	h.AddEdge(u2, c2, "USES", tpg.Always)
	h.AddEdge(u3, c3, "USES", tpg.Always)

	tx := func(c, m core.VID, amount float64) {
		id, err := h.AddEdge(c, m, "TX", tpg.Always)
		if err != nil {
			t.Fatal(err)
		}
		h.SetEdgeProp(id, "amount", lpg.Float(amount))
	}
	// u1: 3 high TXs; u3: 3 high TXs; u2: one small.
	tx(c1, m1, 2000)
	tx(c1, m2, 1800)
	tx(c1, m3, 2500)
	tx(c3, m1, 1500)
	tx(c3, m2, 1600)
	tx(c3, m3, 1700)
	tx(c2, m1, 25)
	return h
}

// query runs src twice — over the instance, every series held in the graph,
// and over the same structure with every series held by reference — and
// requires one answer, so each test that uses it also proves that where a
// series lives does not show in a result.
func query(t *testing.T, h *core.HyGraph, src string) *Result {
	t.Helper()
	const at = 10 * ts.Hour
	res, err := NewEngine(h).Query(src, at)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	byRef, err := NewEngineOver(NewView(byReference(h.SnapshotAt(at).Graph))).Query(src, at)
	if err != nil {
		t.Fatalf("query %q by reference: %v", src, err)
	}
	if got, want := fmt.Sprint(byRef.Columns, byRef.Rows), fmt.Sprint(res.Columns, res.Rows); got != want {
		t.Fatalf("query %q by reference:\n got %s\nwant %s", src, got, want)
	}
	return res
}

// refSeries is a Series held by reference whose samples can grow under a
// View, like a series in a store.
type refSeries struct{ memSeries }

// byReference rewrites every TS vertex of a snapshot graph to hold its
// series as a SeriesRef handle.
func byReference(g *lpg.Graph) *lpg.Graph {
	g.Vertices(func(v *lpg.Vertex) bool {
		if m, ok := v.Prop("_series").AsMulti(); ok {
			g.SetVertexProp(v.ID, "_series", lpg.SeriesRef(&refSeries{memSeries{m.MustVar(m.Vars()[0])}}))
		}
		return true
	})
	return g
}

func col(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, c := range res.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, res.Columns)
	return -1
}

func TestBasicMatchReturn(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, "MATCH (u:User) RETURN u.name ORDER BY u.name")
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	names := []string{}
	for _, r := range res.Rows {
		names = append(names, r[0].String())
	}
	if names[0] != "u1" || names[1] != "u2" || names[2] != "u3" {
		t.Fatalf("names=%v", names)
	}
}

func TestWhereEdgeProps(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE t.amount > 1000
		RETURN u.name AS user, count(m) AS merchants
		ORDER BY user`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].String() != "u1" || res.Rows[0][1].String() != "3" {
		t.Fatalf("row0=%v", res.Rows[0])
	}
	if res.Rows[1][0].String() != "u3" || res.Rows[1][1].String() != "3" {
		t.Fatalf("row1=%v", res.Rows[1])
	}
}

func TestListing1GraphOnlyFlagsFalsePositive(t *testing.T) {
	// The graph-only fraud query (paper Listing 1): flags u1 AND u3 — u3 is
	// the false positive the hybrid pipeline later clears.
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE t.amount > 1000
		RETURN u.name AS suspicious, count(m) AS cnt
		ORDER BY suspicious`)
	users := map[string]bool{}
	for _, r := range res.Rows {
		if v, _ := r[col(t, res, "cnt")].AsFloat(); v >= 3 {
			users[r[0].String()] = true
		}
	}
	if !users["u1"] || !users["u3"] || users["u2"] {
		t.Fatalf("graph-only flags=%v", users)
	}
}

func TestHybridQueryClearsFalsePositive(t *testing.T) {
	// One HyQL query joining structure AND series behaviour: only u1 has
	// both >2 high TX merchants and a balance drain (min far below mean).
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE t.amount > 1000 AND ts.min(c) < ts.mean(c) - 3 * ts.std(c)
		RETURN u.name AS suspicious, count(m) AS cnt
		ORDER BY suspicious`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "u1" {
		t.Fatalf("hybrid result=%v", res.Rows)
	}
	if res.Rows[0][1].String() != "3" {
		t.Fatalf("count=%v", res.Rows[0][1])
	}
}

func TestTSFunctionsOverRange(t *testing.T) {
	h := fraudHG(t)
	// Balance during the drain window for c1.
	res := query(t, h, `
		MATCH (c:CreditCard)
		WHERE c.name = 'c1'
		RETURN ts.min(c, 144000000, 158400000) AS lo, ts.count(c) AS n`)
	// 40h..44h in ms: 40*3600e3 = 144000000.
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%v", res.Rows)
	}
	lo, _ := res.Rows[0][0].AsFloat()
	if lo > 60 {
		t.Fatalf("lo=%v", lo)
	}
	if res.Rows[0][1].String() != "96" {
		t.Fatalf("n=%v", res.Rows[0][1])
	}
}

func TestTSCorr(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (a:CreditCard), (b:CreditCard)
		WHERE a.name = 'c2' AND b.name = 'c3'
		RETURN ts.corr(a, b, 3600000) AS r`)
	r, ok := res.Rows[0][0].AsFloat()
	if !ok || math.Abs(r-1) > 1e-6 {
		t.Fatalf("r=%v ok=%v", r, ok)
	}
}

func TestCollectAndDistinct(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard)-[t:TX]->(m:Merchant)
		RETURN m.name AS merchant, collect(c.name) AS cards
		ORDER BY merchant`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].String() != "m1" {
		t.Fatalf("merchant=%v", res.Rows[0][0])
	}
	cards := res.Rows[0][1].List()
	if len(cards) != 3 { // c1, c3, c2 all hit m1
		t.Fatalf("cards=%v", cards)
	}
	res = query(t, h, `
		MATCH (c:CreditCard)-[:TX]->(m:Merchant)
		RETURN DISTINCT label(m) AS l`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "Merchant" {
		t.Fatalf("distinct=%v", res.Rows)
	}
}

func TestVarLengthPath(t *testing.T) {
	h := fraudHG(t)
	// u -USES-> c -TX-> m is a 2-hop path with mixed labels.
	res := query(t, h, `
		MATCH (u:User)-[p*1..2]->(m:Merchant)
		WHERE u.name = 'u1'
		RETURN u.name, length(p) AS hops, m.name AS merchant
		ORDER BY merchant`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].String() != "2" {
			t.Fatalf("hops=%v", r[1])
		}
	}
}

func TestUndirectedEdge(t *testing.T) {
	h := fraudHG(t)
	// USES points user->card; the undirected pattern finds it from the card.
	res := query(t, h, `
		MATCH (c:CreditCard)-[:USES]-(u:User)
		WHERE c.name = 'c1'
		RETURN u.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "u1" {
		t.Fatalf("undirected=%v", res.Rows)
	}
}

func TestCountStarOnEmptyMatch(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `MATCH (x:Nothing) RETURN count(*) AS n`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "0" {
		t.Fatalf("empty count=%v", res.Rows)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE c.name = 'c1'
		RETURN sum(t.amount) AS total, avg(t.amount) AS mean, min(t.amount) AS lo, max(t.amount) AS hi`)
	r := res.Rows[0]
	if r[0].String() != "6300" {
		t.Fatalf("total=%v", r[0])
	}
	if r[1].String() != "2100" {
		t.Fatalf("mean=%v", r[1])
	}
	if r[2].String() != "1800" || r[3].String() != "2500" {
		t.Fatalf("lo/hi=%v/%v", r[2], r[3])
	}
}

func TestSnapshotSemantics(t *testing.T) {
	// An edge valid only in [0, 10) must be invisible at t=20.
	h := core.New()
	a, _ := h.AddVertex(tpg.Always, "A")
	b, _ := h.AddVertex(tpg.Always, "B")
	h.AddEdge(a, b, "R", tpg.Between(0, 10))
	eng := NewEngine(h)
	res, err := eng.Query("MATCH (a:A)-[:R]->(b:B) RETURN count(*) AS n", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "1" {
		t.Fatalf("at t=5: %v", res.Rows)
	}
	res, err = eng.Query("MATCH (a:A)-[:R]->(b:B) RETURN count(*) AS n", 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "0" {
		t.Fatalf("at t=20: %v", res.Rows)
	}
}

func TestLimitAndOrderDesc(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (c:CreditCard)-[t:TX]->(m:Merchant)
		RETURN m.name AS merchant, sum(t.amount) AS volume
		ORDER BY volume DESC
		LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%v", res.Rows)
	}
	v0, _ := res.Rows[0][1].AsFloat()
	v1, _ := res.Rows[1][1].AsFloat()
	if v0 < v1 {
		t.Fatalf("not descending: %v %v", v0, v1)
	}
}

func TestErrorCases(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	for _, src := range []string{
		"MATCH (u:User) RETURN nope.x",                         // unknown binding
		"MATCH (u:User) RETURN ts.mean(u)",                     // PG vertex has no series
		"MATCH (u:User) RETURN u.name ORDER BY ghost",          // unknown order column
		"MATCH (u:User) RETURN sum(u.name)",                    // non-numeric sum
		"MATCH (u:User) WHERE u.name / 2 = 1 RETURN u",         // arithmetic on string
		"MATCH (u:User) RETURN ts.bogus(u)",                    // unknown ts function
		"MATCH (u:User)-[t:TX]->(m), (a)-[t:TX]->(b) RETURN u", // edge name reuse
	} {
		if _, err := eng.Query(src, 0); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	h := fraudHG(t)
	// Missing property yields null; comparisons with null are null (filtered).
	res := query(t, h, `MATCH (u:User) WHERE u.ghost > 5 RETURN u.name`)
	if len(res.Rows) != 0 {
		t.Fatalf("null comparison kept rows: %v", res.Rows)
	}
	res = query(t, h, `MATCH (u:User) WHERE exists(u.ghost) RETURN u.name`)
	if len(res.Rows) != 0 {
		t.Fatalf("exists on missing: %v", res.Rows)
	}
	res = query(t, h, `MATCH (u:User) RETURN coalesce(u.ghost, u.name) AS x ORDER BY x LIMIT 1`)
	if res.Rows[0][0].String() != "u1" {
		t.Fatalf("coalesce=%v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `
		MATCH (u:User)
		WHERE u.name = 'u1'
		RETURN abs(0 - 5) AS a, length(u.name) AS l, id(u) AS i, label(u) AS lb`)
	r := res.Rows[0]
	if r[0].String() != "5" || r[1].String() != "2" || r[3].String() != "User" {
		t.Fatalf("row=%v", r)
	}
}

func TestViewCacheCorrectUnderMutation(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	const q = `MATCH (u:User) RETURN count(*) AS n`
	res, err := eng.Query(q, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "3" {
		t.Fatalf("n=%v", res.Rows[0][0])
	}
	// Cache hit: same instant, same version → same answer.
	res, _ = eng.Query(q, 10*ts.Hour)
	if res.Rows[0][0].String() != "3" {
		t.Fatalf("cached n=%v", res.Rows[0][0])
	}
	// Mutation invalidates: a fourth user appears at the same instant.
	u4, err := h.AddVertex(tpg.Always, "User")
	if err != nil {
		t.Fatal(err)
	}
	h.SetVertexProp(u4, "name", lpg.Str("u4"))
	res, _ = eng.Query(q, 10*ts.Hour)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("post-mutation n=%v (stale cache)", res.Rows[0][0])
	}
	// Property mutations invalidate too.
	h.SetVertexProp(u4, "name", lpg.Str("renamed"))
	res, _ = eng.Query(`MATCH (u:User) WHERE u.name = 'renamed' RETURN count(*) AS n`, 10*ts.Hour)
	if res.Rows[0][0].String() != "1" {
		t.Fatalf("renamed n=%v", res.Rows[0][0])
	}
}

func TestViewCacheBounded(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	for i := 0; i < 100; i++ {
		if _, err := eng.Query(`MATCH (u:User) RETURN count(*)`, ts.Time(i)*ts.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if len(eng.views) > viewCacheSize {
		t.Fatalf("cache grew to %d entries", len(eng.views))
	}
}
