package hyql

import (
	"fmt"
	"testing"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
)

func TestFlattenAnd(t *testing.T) {
	q := mustParse(t, "MATCH (a) WHERE a.x = 1 AND a.y = 2 AND (a.z = 3 OR a.w = 4) RETURN a")
	conjs := flattenAnd(q.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts=%d", len(conjs))
	}
	// The OR stays one conjunct.
	if _, ok := conjs[2].(Binary); !ok {
		t.Fatalf("third conjunct=%T", conjs[2])
	}
}

func TestBindingRefs(t *testing.T) {
	q := mustParse(t, "MATCH (a)-[e]->(b) WHERE a.x + b.y = length(e) RETURN a")
	refs := bindingRefs(q.Where)
	if len(refs) != 3 || !refs["a"] || !refs["b"] || !refs["e"] {
		t.Fatalf("refs=%v", refs)
	}
	q = mustParse(t, "MATCH (a) WHERE ts.mean(a) > 5 RETURN a")
	refs = bindingRefs(q.Where)
	if len(refs) != 1 || !refs["a"] {
		t.Fatalf("ts refs=%v", refs)
	}
}

// TestPushdownEquivalence: queries mixing pushable and non-pushable
// conjuncts return the same rows as their logically equivalent forms.
func TestPushdownEquivalence(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	// Mixed: single-binding (pushed) + two-binding (residual).
	a, err := eng.Query(`
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE u.name <> 'u2' AND t.amount > 1000 AND u.name > m.name
		RETURN u.name, m.name ORDER BY u.name, m.name`, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Same predicate spelled as nested ORs that defeat pushdown splitting.
	b, err := eng.Query(`
		MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
		WHERE NOT (u.name = 'u2' OR t.amount <= 1000 OR u.name <= m.name)
		RETURN u.name, m.name ORDER BY u.name, m.name`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if rowKey(a.Rows[i]) != rowKey(b.Rows[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
	if len(a.Rows) == 0 {
		t.Fatal("empty result weakens the equivalence check")
	}
}

// TestPushdownNullConjunct: a pushed conjunct over a missing property
// evaluates to null → not truthy → filtered, same as residual semantics.
func TestPushdownNullConjunct(t *testing.T) {
	h := fraudHG(t)
	res := query(t, h, `MATCH (u:User) WHERE u.ghost > 1 RETURN u.name`)
	if len(res.Rows) != 0 {
		t.Fatalf("null pushdown kept rows: %v", res.Rows)
	}
}

// TestPushdownErroringConjunctStillErrors: pushdown admits candidates on
// eval errors, so the residual WHERE surfaces the error as before.
func TestPushdownErroringConjunctStillErrors(t *testing.T) {
	h := fraudHG(t)
	if _, err := NewEngine(h).Query(`MATCH (u:User) WHERE u.name / 2 = 1 RETURN u`, 10); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

// TestPushdownSelectivity: the pushed filter prunes candidates before edge
// joins. Construct a graph where full enumeration would be quadratic and
// assert the correct single answer comes back (correctness under pruning).
func TestPushdownSelectivity(t *testing.T) {
	h := core.New()
	var users []core.VID
	for i := 0; i < 200; i++ {
		u, _ := h.AddVertex(tpg.Always, "U")
		h.SetVertexProp(u, "id", lpg.Int(int64(i)))
		users = append(users, u)
	}
	for i := 0; i+1 < len(users); i++ {
		h.AddEdge(users[i], users[i+1], "NEXT", tpg.Always)
	}
	res := query(t, h, `
		MATCH (a:U)-[:NEXT]->(b:U)
		WHERE a.id = 150
		RETURN b.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "151" {
		t.Fatalf("rows=%v", res.Rows)
	}
}

// TestNodeFilterAllocs: a pushed single-binding conjunct runs once per
// candidate, so it must not build a row per call. st.name = 'x' over 1 000
// stations.
func TestNodeFilterAllocs(t *testing.T) {
	g := lpg.NewGraph()
	var stations []*lpg.Vertex
	for i := 0; i < 1000; i++ {
		v := g.AddVertex("Station")
		g.SetVertexProp(v, "name", lpg.Str(fmt.Sprintf("s%d", i)))
		stations = append(stations, g.Vertex(v))
	}
	q := mustParse(t, "MATCH (st:Station) WHERE st.name = 's7' RETURN st")
	keep := nodeFilter("st", q.Where)
	kept := 0
	allocs := testing.AllocsPerRun(5, func() {
		kept = 0
		for _, v := range stations {
			if keep(v) {
				kept++
			}
		}
	})
	if kept != 1 {
		t.Fatalf("filter kept %d stations, want 1", kept)
	}
	if allocs > 10 {
		t.Fatalf("%.0f allocations filtering 1000 stations, want <= 10", allocs)
	}
}
