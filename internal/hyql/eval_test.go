package hyql

import (
	"math"
	"testing"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

func evalStr(t *testing.T, h interface {
	Query(string, ts.Time) (*Result, error)
}, expr string) Value {
	t.Helper()
	res, err := h.Query("MATCH (u:User) WHERE u.name = 'u1' RETURN "+expr, 10*ts.Hour)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("eval %q: rows=%v", expr, res.Rows)
	}
	return res.Rows[0][0]
}

func TestEvalArithmeticAndStrings(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	cases := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"7 / 2", "3"},     // integer division
		{"7.0 / 2", "3.5"}, // float division
		{"7 % 3", "1"},
		{"-5 + 2", "-3"},
		{"abs(-4.5)", "4.5"},
		{"'a' + 'b'", "ab"},
		{"'n=' + 3", "n=3"}, // string concat coerces
		{"1 = 1.0", "true"}, // numeric cross-kind equality
		{"1 <> 2", "true"},
		{"true AND false", "false"},
		{"true OR false", "true"},
		{"NOT false", "true"},
		{"null = 1", "null"},
		{"coalesce(null, null, 9)", "9"},
		{"length('abcd')", "4"},
		{"tofloat(3)", "3"},
	}
	for _, c := range cases {
		got := evalStr(t, eng, c.expr)
		if got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	for _, expr := range []string{
		"1 / 0",
		"1 % 0",
		"'a' * 2",
		"-'x'",
		"abs(1, 2)",
		"length(1, 2)",
		"exists()",
		"unknownfn(1)",
		"boo.bar(1)",
		"ts.mean(u, 1)",   // wrong arity: needs 1 or 3 args
		"ts.corr(u)",      // wrong arity
		"ts.anomalies(u)", // wrong arity
		"ts.mean(1)",      // literal is not a series ref
		"sum(u.name)",     // non-numeric aggregate (in RETURN)
	} {
		if _, err := eng.Query("MATCH (u:User) RETURN "+expr, 10*ts.Hour); err == nil {
			t.Errorf("accepted %q", expr)
		}
	}
}

func TestEvalTSRangeWithStringTimes(t *testing.T) {
	h := fraudHG(t)
	// The fixture's series start at epoch 0 (1970-01-01) hourly.
	res, err := NewEngine(h).Query(`
		MATCH (c:CreditCard)
		WHERE c.name = 'c2'
		RETURN ts.count(c, '1970-01-01', '1970-01-02') AS n`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "24" {
		t.Fatalf("n=%v", res.Rows[0][0])
	}
	// RFC3339 form too.
	res, err = NewEngine(h).Query(`
		MATCH (c:CreditCard)
		WHERE c.name = 'c2'
		RETURN ts.count(c, '1970-01-01T00:00:00Z', '1970-01-01T12:00:00Z') AS n`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "12" {
		t.Fatalf("rfc3339 n=%v", res.Rows[0][0])
	}
	// Unparseable time errors.
	if _, err := NewEngine(h).Query(
		`MATCH (c:CreditCard) RETURN ts.count(c, 'yesterday', 'today')`, 10*ts.Hour); err == nil {
		t.Fatal("bad time literal accepted")
	}
}

func TestEvalSeriesProperty(t *testing.T) {
	// ts.* over a series-valued property (not a TS element): metric
	// evolution stores degree series as vertex properties.
	h := fraudHG(t)
	if err := h.DegreeEvolution(0, 20*ts.Hour, ts.Hour); err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(h).Query(`
		MATCH (u:User)
		WHERE exists(u.degree_evolution)
		RETURN avg(ts.mean(u.degree_evolution)) AS d, count(u) AS n`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Users connect only to TS card vertices, and the TPG projection holds
	// PG-PG edges only, so the evolved degree is 0 — what matters here is
	// that the series property resolves and aggregates.
	d, ok := res.Rows[0][0].AsFloat()
	if !ok || d != 0 {
		t.Fatalf("mean degree=%v ok=%v", d, ok)
	}
	if res.Rows[0][1].String() != "3" {
		t.Fatalf("users with evolution series=%v", res.Rows[0][1])
	}
	// Missing property is not a series.
	if _, err := NewEngine(h).Query(
		`MATCH (u:User) RETURN ts.mean(u.nope)`, 10*ts.Hour); err == nil {
		t.Fatal("missing series property accepted")
	}
}

func TestEvalTSFunctionsMore(t *testing.T) {
	h := fraudHG(t)
	eng := NewEngine(h)
	res, err := eng.Query(`
		MATCH (c:CreditCard)
		WHERE c.name = 'c2'
		RETURN ts.len(c) AS n, ts.slope(c) AS s, ts.first(c) AS f, ts.last(c) AS l,
		       ts.median(c) AS md, ts.anomalies(c, 3) AS a`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].String() != "96" {
		t.Fatalf("len=%v", row[0])
	}
	if s, _ := row[1].AsFloat(); math.Abs(s) > 0.2 {
		t.Fatalf("slope=%v", s)
	}
	if row[2].IsNull() || row[3].IsNull() || row[4].IsNull() {
		t.Fatalf("first/last/median null: %v", row)
	}
	if a, _ := row[5].AsFloat(); a != 0 { // steady series: no 3σ outliers
		t.Fatalf("anomalies=%v", a)
	}
}

func TestValueRenderingAndCompare(t *testing.T) {
	h := fraudHG(t)
	res, err := NewEngine(h).Query(`
		MATCH (u:User)-[e:USES]->(c:CreditCard)
		WHERE u.name = 'u1'
		RETURN u, e, collect(c.name) AS cs`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Node() == nil || row[1].Edge() == nil {
		t.Fatal("entity bindings")
	}
	// Renderings are informative, keys distinct per kind.
	if row[0].String() == row[1].String() {
		t.Fatal("node/edge render identically")
	}
	if row[0].key() == row[1].key() {
		t.Fatal("node/edge keys collide")
	}
	if row[2].Kind() != VList || row[2].String() != "[c1]" {
		t.Fatalf("list=%v", row[2])
	}
	// compare: list vs list, node vs node ordering are stable.
	if row[2].compare(row[2]) != 0 || row[0].compare(row[0]) != 0 {
		t.Fatal("self-compare nonzero")
	}
	if NullValue.Truthy() {
		t.Fatal("null truthy")
	}
	if _, ok := row[0].AsFloat(); ok {
		t.Fatal("node as float")
	}
}

func TestWithExpressionOverAggregates(t *testing.T) {
	// Arithmetic combining aggregates inside RETURN (exercises
	// evalWithAggregates' Binary/Unary paths and wrapLit).
	h := fraudHG(t)
	res, err := NewEngine(h).Query(`
		MATCH (c:CreditCard)-[t:TX]->(m:Merchant)
		RETURN sum(t.amount) / count(t) AS avg_amount, -count(t) AS neg`, 10*ts.Hour)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	want := (2000.0 + 1800 + 2500 + 1500 + 1600 + 1700 + 25) / 7
	got, _ := row[0].AsFloat()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg=%v want %v", got, want)
	}
	if row[1].String() != "-7" {
		t.Fatalf("neg=%v", row[1])
	}
}

// TestSameKeyIsKeyEquality: sameKey, which equality evaluates with, agrees
// with comparing the built keys on every pair, across kinds.
func TestSameKeyIsKeyEquality(t *testing.T) {
	g := lpg.NewGraph()
	v := g.AddVertex("V")
	vals := []Value{
		NullValue,
		Scalar(lpg.Int(1)), Scalar(lpg.Int(2)), Scalar(lpg.Float(1)), Scalar(lpg.Float(math.NaN())),
		Scalar(lpg.Str("1")), Scalar(lpg.Str("int:1")), Scalar(lpg.Str("")),
		Scalar(lpg.Bool(true)), Scalar(lpg.Str("true")), Scalar(lpg.SeriesVal(ts.New("1"))),
		NodeValue(g.Vertex(v)), ListValue([]Value{Scalar(lpg.Int(1))}),
	}
	for _, l := range vals {
		for _, r := range vals {
			if got, want := sameKey(l, r), l.key() == r.key(); got != want {
				t.Errorf("sameKey(%s, %s) = %v, key equality %v", l.key(), r.key(), got, want)
			}
		}
	}
}
