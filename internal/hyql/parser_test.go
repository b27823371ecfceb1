package hyql

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

func TestParseSimpleMatch(t *testing.T) {
	q := mustParse(t, "MATCH (u:User)-[t:TX]->(m:Merchant) RETURN u.name")
	if len(q.Patterns) != 1 {
		t.Fatalf("patterns=%d", len(q.Patterns))
	}
	p := q.Patterns[0]
	if len(p.Nodes) != 2 || len(p.Edges) != 1 {
		t.Fatalf("nodes=%d edges=%d", len(p.Nodes), len(p.Edges))
	}
	if p.Nodes[0].Name != "u" || p.Nodes[0].Label != "User" {
		t.Fatalf("node0=%+v", p.Nodes[0])
	}
	if p.Edges[0].Name != "t" || p.Edges[0].Label != "TX" || p.Edges[0].Dir != DirRight {
		t.Fatalf("edge=%+v", p.Edges[0])
	}
	if len(q.Return) != 1 {
		t.Fatalf("return=%v", q.Return)
	}
	pa, ok := q.Return[0].Expr.(PropAccess)
	if !ok || pa.On != "u" || pa.Key != "name" {
		t.Fatalf("return expr=%v", q.Return[0].Expr)
	}
}

func TestParseDirections(t *testing.T) {
	q := mustParse(t, "MATCH (a)<-[:R]-(b), (a)-[:S]-(c), (a)-->(d) RETURN a")
	if q.Patterns[0].Edges[0].Dir != DirLeft {
		t.Fatal("left dir")
	}
	if q.Patterns[1].Edges[0].Dir != DirBoth {
		t.Fatal("both dir")
	}
	if q.Patterns[2].Edges[0].Dir != DirRight {
		t.Fatal("right dir via -->")
	}
	if q.Patterns[2].Edges[0].Label != "" {
		t.Fatal("bare --> should have no label")
	}
}

func TestParseVarLength(t *testing.T) {
	q := mustParse(t, "MATCH (a)-[:TX*1..3]->(b) RETURN a")
	e := q.Patterns[0].Edges[0]
	if e.MinHops != 1 || e.MaxHops != 3 {
		t.Fatalf("hops=%d..%d", e.MinHops, e.MaxHops)
	}
	q = mustParse(t, "MATCH (a)-[*2]->(b) RETURN a")
	e = q.Patterns[0].Edges[0]
	if e.MinHops != 2 || e.MaxHops != 2 {
		t.Fatalf("fixed hops=%d..%d", e.MinHops, e.MaxHops)
	}
	q = mustParse(t, "MATCH (a)-[*]->(b) RETURN a")
	e = q.Patterns[0].Edges[0]
	if e.MinHops != 1 || e.MaxHops != 8 {
		t.Fatalf("default hops=%d..%d", e.MinHops, e.MaxHops)
	}
}

// Variable-length hop bounds are integers in [0, maxVarHops] with min <=
// max; anything else is a parse error, because the matcher enumerates
// trails without a context and the parser is the only bound a served
// request has.
func TestParseHopBounds(t *testing.T) {
	for _, c := range []struct {
		hops     string
		min, max int
		ok       bool
	}{
		{"*", 1, maxVarHops, true},
		{"*2", 2, 2, true},
		{"*1..3", 1, 3, true},
		{"*..4", 1, 4, true},
		{"*3..", 3, maxVarHops, true},
		{"*0..2", 0, 2, true},
		{"*1..8", 1, 8, true},
		{"*1..99999999999999999999", 0, 0, false}, // overflows int
		{"*1.5", 0, 0, false},                     // not an integer
		{"*3..1", 0, 0, false},                    // empty range
		{"*1..9", 0, 0, false},                    // above the bare-* ceiling
		{"*9", 0, 0, false},
		{"*..9", 0, 0, false},
	} {
		q, err := Parse("MATCH (a)-[:T" + c.hops + "]->(b) RETURN a")
		if !c.ok {
			if err == nil {
				e := q.Patterns[0].Edges[0]
				t.Errorf("%s: parsed as %d..%d, want an error", c.hops, e.MinHops, e.MaxHops)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.hops, err)
			continue
		}
		if e := q.Patterns[0].Edges[0]; e.MinHops != c.min || e.MaxHops != c.max {
			t.Errorf("%s: hops %d..%d, want %d..%d", c.hops, e.MinHops, e.MaxHops, c.min, c.max)
		}
	}
}

func TestParseWhereExpr(t *testing.T) {
	q := mustParse(t, `MATCH (u:User) WHERE u.age > 18 AND NOT u.name = 'bob' OR u.vip RETURN u`)
	b, ok := q.Where.(Binary)
	if !ok || b.Op != "OR" {
		t.Fatalf("top op=%v", q.Where)
	}
	l, ok := b.L.(Binary)
	if !ok || l.Op != "AND" {
		t.Fatalf("left=%v", b.L)
	}
}

func TestParsePrecedence(t *testing.T) {
	q := mustParse(t, "MATCH (a) WHERE a.x + 2 * 3 = 7 RETURN a")
	eq := q.Where.(Binary)
	if eq.Op != "=" {
		t.Fatal("top should be =")
	}
	add := eq.L.(Binary)
	if add.Op != "+" {
		t.Fatal("left of = should be +")
	}
	if mul := add.R.(Binary); mul.Op != "*" {
		t.Fatal("* binds tighter than +")
	}
}

func TestParseCalls(t *testing.T) {
	q := mustParse(t, "MATCH (u:User) RETURN count(*), collect(u.name) AS names, ts.mean(u, 0, 100)")
	if len(q.Return) != 3 {
		t.Fatalf("returns=%d", len(q.Return))
	}
	c0 := q.Return[0].Expr.(Call)
	if c0.Name != "count" || !c0.Star {
		t.Fatalf("c0=%+v", c0)
	}
	if q.Return[1].Alias != "names" {
		t.Fatalf("alias=%q", q.Return[1].Alias)
	}
	c2 := q.Return[2].Expr.(Call)
	if c2.Namespace != "ts" || c2.Name != "mean" || len(c2.Args) != 3 {
		t.Fatalf("c2=%+v", c2)
	}
}

func TestParseOrderLimitDistinct(t *testing.T) {
	q := mustParse(t, "MATCH (u:User) RETURN DISTINCT u.name AS n ORDER BY n DESC, u.age LIMIT 5")
	if !q.Distinct {
		t.Fatal("distinct")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("order=%v", q.OrderBy)
	}
	if q.Limit != 5 {
		t.Fatalf("limit=%d", q.Limit)
	}
	q = mustParse(t, "MATCH (u) RETURN u")
	if q.Limit != -1 || q.OrderBy != nil || q.Distinct {
		t.Fatal("defaults")
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, `MATCH (a) WHERE a.s = 'x' AND a.f = 2.5 AND a.i = 3 AND a.b = true AND a.n = null RETURN a`)
	if q.Where == nil {
		t.Fatal("where")
	}
	// Render round-trip sanity.
	text := ExprText(q.Where)
	for _, want := range []string{"'x'", "2.5", "3", "true", "null"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render %q missing %q", text, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"MATCH",
		"MATCH (a",
		"MATCH (a) RETURN",
		"MATCH (a)-[>(b) RETURN a",
		"MATCH (a) WHERE RETURN a",
		"MATCH (a) RETURN a LIMIT x",
		"MATCH (a) RETURN a EXTRA",
		"MATCH (a:1) RETURN a",
		"MATCH (a) RETURN a ORDER BY",
		"RETURN 1",
		"MATCH (a) WHERE a.x = 'unterminated RETURN a",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestLexerOffsets(t *testing.T) {
	toks, err := lex("MATCH (a)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos != 0 || toks[1].pos != 6 {
		t.Fatalf("positions: %v", toks)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF")
	}
}

func TestLexerStringEscapes(t *testing.T) {
	toks, err := lex(`'it\'s'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "it's" {
		t.Fatalf("escaped string=%q", toks[0].text)
	}
}
