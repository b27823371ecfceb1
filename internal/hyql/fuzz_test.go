package hyql

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics and that whatever it accepts,
// it accepts deterministically. Run the fuzzer with:
//
//	go test ./internal/hyql -fuzz FuzzParse -fuzztime 30s
//
// In normal test runs only the seed corpus executes.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"MATCH (u:User) RETURN u",
		"MATCH (u:User)-[t:TX]->(m:Merchant) WHERE t.amount > 1000 RETURN u.name AS n ORDER BY n DESC LIMIT 5",
		"MATCH (a)-[:R*1..3]-(b), (a)<-[x:S]-(c) WITH a, collect(b) AS bs WHERE length(bs) > 2 RETURN DISTINCT a, length(bs)",
		"MATCH (c:CreditCard) WHERE ts.min(c) < 0.25 * ts.mean(c) RETURN ts.corr(c, c, 3600000)",
		"MATCH (a) WHERE NOT (a.x = 'it''s' OR a.y <= -2.5) RETURN coalesce(a.z, 0) % 3",
		"MATCH (a) RETURN count(*)",
		"MATCH ((((",
		"MATCH (a RETURN",
		"MATCH (a) WHERE RETURN a",
		"MATCH (a) RETURN a LIMIT 99999999999999999999",
		"match (a) return a", // keywords are case-insensitive
		"MATCH (a)-[*1..99999999999999999999]->(b) RETURN a",
		"MATCH (a)-[*1.5]->(b) RETURN a",
		"MATCH (a)-[*3..1]->(b) RETURN a",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q1, err1 := Parse(src)
		q2, err2 := Parse(src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic accept for %q", src)
		}
		if err1 != nil {
			return
		}
		// Accepted queries must have a well-formed skeleton.
		if len(q1.Patterns) == 0 || len(q1.Return) == 0 {
			t.Fatalf("accepted %q with empty clauses", src)
		}
		for _, p := range q1.Patterns {
			if len(p.Nodes) != len(p.Edges)+1 {
				t.Fatalf("accepted %q with ragged pattern", src)
			}
			for _, e := range p.Edges {
				if e.MinHops < 0 || e.MinHops > e.MaxHops || e.MaxHops > maxVarHops {
					t.Fatalf("accepted %q with hop range %d..%d", src, e.MinHops, e.MaxHops)
				}
			}
		}
		// Rendering every return expression must not panic and must
		// re-parse inside a query skeleton when it contains no bindings the
		// skeleton lacks.
		for _, item := range q1.Return {
			_ = ExprText(item.Expr)
		}
		if len(q1.Patterns) != len(q2.Patterns) || len(q1.Return) != len(q2.Return) {
			t.Fatalf("non-deterministic parse shape for %q", src)
		}
		// Lexing is also panic-free on arbitrary prefixes.
		if len(src) > 2 {
			Parse(strings.TrimSpace(src[:len(src)/2]))
		}
	})
}
