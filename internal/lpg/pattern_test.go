package lpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// chain builds a -> b -> c -> ... of n vertices and returns the graph + ids.
func chain(n int) (*Graph, []VertexID) {
	g := NewGraph()
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = g.AddVertex("V")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1], "next")
	}
	return g, ids
}

// fraudToy builds the Figure-2-like toy graph: users -USES-> cards -TX->
// merchants.
func fraudToy() (*Graph, map[string]VertexID) {
	g := NewGraph()
	ids := map[string]VertexID{}
	add := func(name, label string) VertexID {
		id := g.AddVertex(label)
		g.SetVertexProp(id, "name", Str(name))
		ids[name] = id
		return id
	}
	u1 := add("u1", "User")
	u2 := add("u2", "User")
	c1 := add("c1", "CreditCard")
	c2 := add("c2", "CreditCard")
	m1 := add("m1", "Merchant")
	m2 := add("m2", "Merchant")
	m3 := add("m3", "Merchant")
	g.AddEdge(u1, c1, "USES")
	g.AddEdge(u2, c2, "USES")
	for _, m := range []VertexID{m1, m2, m3} {
		e := g.AddEdge(c1, m, "TX")
		g.SetEdgeProp(e, "amount", Float(2000))
	}
	e := g.AddEdge(c2, m1, "TX")
	g.SetEdgeProp(e, "amount", Float(50))
	return g, ids
}

func TestMatchSimpleTriple(t *testing.T) {
	g, ids := fraudToy()
	p := NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", nil).
		V("m", "Merchant", nil).
		E("u", "c", "USES", nil).
		E("c", "m", "TX", nil)
	ms := g.MatchPattern(p, 0)
	if len(ms) != 4 { // u1 has 3 TX, u2 has 1
		t.Fatalf("matches=%d", len(ms))
	}
	for _, m := range ms {
		if len(m.Paths) != 2 || len(m.Paths[0]) != 1 || len(m.Paths[1]) != 1 {
			t.Fatalf("paths=%v", m.Paths)
		}
	}
	_ = ids
}

func TestMatchWithPredicates(t *testing.T) {
	g, ids := fraudToy()
	p := NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", nil).
		V("m", "Merchant", nil).
		E("u", "c", "USES", nil).
		E("c", "m", "TX", func(e *Edge) bool {
			f, _ := e.Prop("amount").AsFloat()
			return f > 1000
		})
	ms := g.MatchPattern(p, 0)
	if len(ms) != 3 {
		t.Fatalf("high-amount matches=%d", len(ms))
	}
	for _, m := range ms {
		if m.Vertices["u"] != ids["u1"] {
			t.Fatalf("wrong user: %v", m.Vertices)
		}
	}
}

func TestMatchVertexPredicate(t *testing.T) {
	g, ids := fraudToy()
	p := NewPattern().
		V("u", "User", func(v *Vertex) bool { return v.Prop("name").String() == "u2" }).
		V("c", "CreditCard", nil).
		E("u", "c", "USES", nil)
	ms := g.MatchPattern(p, 0)
	if len(ms) != 1 || ms[0].Vertices["c"] != ids["c2"] {
		t.Fatalf("ms=%v", ms)
	}
}

func TestMatchLimit(t *testing.T) {
	g, _ := fraudToy()
	p := NewPattern().
		V("c", "CreditCard", nil).
		V("m", "Merchant", nil).
		E("c", "m", "TX", nil)
	ms := g.MatchPattern(p, 2)
	if len(ms) != 2 {
		t.Fatalf("limit ignored: %d", len(ms))
	}
}

func TestMatchInjectivity(t *testing.T) {
	// Path a->b with pattern (x)->(y): injective forbids x=y binding even
	// with a self-loop present.
	g := NewGraph()
	a := g.AddVertex("V")
	g.AddEdge(a, a, "e") // self loop
	b := g.AddVertex("V")
	g.AddEdge(a, b, "e")
	p := NewPattern().V("x", "V", nil).V("y", "V", nil).E("x", "y", "e", nil)
	ms := g.MatchPattern(p, 0)
	if len(ms) != 1 {
		t.Fatalf("injective matches=%d", len(ms))
	}
	p2 := NewPattern().V("x", "V", nil).V("y", "V", nil).E("x", "y", "e", nil)
	p2.InjectiveVertices = false
	ms2 := g.MatchPattern(p2, 0)
	if len(ms2) != 2 { // self-loop now allowed
		t.Fatalf("homomorphic matches=%d", len(ms2))
	}
}

func TestMatchVariableLengthPath(t *testing.T) {
	g, ids := chain(6)
	p := NewPattern().
		V("a", "", func(v *Vertex) bool { return v.ID == ids[0] }).
		V("b", "", func(v *Vertex) bool { return v.ID == ids[4] }).
		Path("a", "b", "next", 1, 6, nil)
	ms := g.MatchPattern(p, 0)
	if len(ms) != 1 {
		t.Fatalf("varlen matches=%d", len(ms))
	}
	if len(ms[0].Paths[0]) != 4 {
		t.Fatalf("path len=%d want 4", len(ms[0].Paths[0]))
	}
	// Too-short bound: no match.
	p2 := NewPattern().
		V("a", "", func(v *Vertex) bool { return v.ID == ids[0] }).
		V("b", "", func(v *Vertex) bool { return v.ID == ids[4] }).
		Path("a", "b", "next", 1, 3, nil)
	if ms := g.MatchPattern(p2, 0); len(ms) != 0 {
		t.Fatalf("bounded varlen matched: %v", ms)
	}
}

func TestMatchTriangleStructure(t *testing.T) {
	// One triangle + one open wedge; triangle pattern must match the
	// triangle only (6 rotations/orientations... here directed, so exactly
	// the one orientation present).
	g := NewGraph()
	a, b, c := g.AddVertex("V"), g.AddVertex("V"), g.AddVertex("V")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")
	d, e2 := g.AddVertex("V"), g.AddVertex("V")
	g.AddEdge(d, e2, "e")
	p := NewPattern().
		V("x", "V", nil).V("y", "V", nil).V("z", "V", nil).
		E("x", "y", "e", nil).E("y", "z", "e", nil).E("z", "x", "e", nil)
	ms := g.MatchPattern(p, 0)
	if len(ms) != 3 { // 3 rotations of the directed triangle
		t.Fatalf("triangle matches=%d", len(ms))
	}
}

func TestMatchEmptyPattern(t *testing.T) {
	g, _ := fraudToy()
	if ms := g.MatchPattern(NewPattern(), 0); ms != nil {
		t.Fatalf("empty pattern matched: %v", ms)
	}
}

func TestMatchNoCandidates(t *testing.T) {
	g, _ := fraudToy()
	p := NewPattern().V("x", "Nonexistent", nil)
	if ms := g.MatchPattern(p, 0); len(ms) != 0 {
		t.Fatalf("matched nonexistent label: %v", ms)
	}
}

func TestListing1StyleQuery(t *testing.T) {
	// The paper's Listing 1: users with TXs > 1000 to at least 3 merchants
	// within an hour and 1km — structural part here: user -USES-> card with
	// >=3 high-amount TX edges to distinct merchants.
	g, ids := fraudToy()
	p := NewPattern().
		V("u", "User", nil).
		V("c", "CreditCard", nil).
		V("m1", "Merchant", nil).
		V("m2", "Merchant", nil).
		V("m3", "Merchant", nil).
		E("u", "c", "USES", nil).
		E("c", "m1", "TX", highAmount).
		E("c", "m2", "TX", highAmount).
		E("c", "m3", "TX", highAmount)
	ms := g.MatchPattern(p, 0)
	// 3! orderings of the three merchants for u1; u2 has no high TX.
	if len(ms) != 6 {
		t.Fatalf("listing1 matches=%d", len(ms))
	}
	for _, m := range ms {
		if m.Vertices["u"] != ids["u1"] {
			t.Fatalf("flagged wrong user")
		}
	}
}

func highAmount(e *Edge) bool {
	f, _ := e.Prop("amount").AsFloat()
	return f > 1000
}

// matchReference is a generate-and-test matcher, the oracle of the
// differential test and FuzzMatchPattern: every pattern vertex tries each of
// its label candidates in ascending id order, and each try probes every
// bound single-hop pattern edge for a graph edge.
func (g *Graph) matchReference(p *Pattern, limit int) []Match {
	if len(p.vertices) == 0 {
		return nil
	}
	cands := make([][]VertexID, len(p.vertices))
	for i, pv := range p.vertices {
		var ids []VertexID
		if pv.Label != "" {
			ids = g.VerticesByLabel(pv.Label)
		} else {
			ids = g.VertexIDs()
		}
		if pv.Where != nil {
			filtered := ids[:0:0]
			for _, id := range ids {
				if pv.Where(g.Vertex(id)) {
					filtered = append(filtered, id)
				}
			}
			ids = filtered
		}
		cands[i] = ids
	}
	order := p.matchOrder(cands)
	binding := make([]VertexID, len(p.vertices))
	bound := make([]bool, len(p.vertices))
	used := map[VertexID]int{}
	var out []Match
	var rec func(step int) bool
	rec = func(step int) bool {
		if step == len(order) {
			m, ok := g.refCheckEdges(p, binding)
			if !ok {
				return true
			}
			out = append(out, m)
			return limit <= 0 || len(out) < limit
		}
		pi := order[step]
		for _, id := range cands[pi] {
			if p.InjectiveVertices && used[id] > 0 {
				continue
			}
			binding[pi] = id
			bound[pi] = true
			if !g.refPrunable(p, binding, bound) {
				used[id]++
				if !rec(step + 1) {
					used[id]--
					bound[pi] = false
					return false
				}
				used[id]--
			}
			bound[pi] = false
		}
		return true
	}
	rec(0)
	return out
}

func (g *Graph) refPrunable(p *Pattern, binding []VertexID, bound []bool) bool {
	for _, pe := range p.edges {
		f, t := p.vIndex[pe.From], p.vIndex[pe.To]
		if !bound[f] || !bound[t] {
			continue
		}
		if pe.MinHops == 1 && pe.MaxHops == 1 && g.refFindEdge(binding[f], binding[t], pe) == nil {
			return true
		}
	}
	return false
}

func (g *Graph) refFindEdge(from, to VertexID, pe PatternEdge) *Edge {
	admits := func(e *Edge, end VertexID) bool {
		return e.To == end && (pe.Label == "" || e.Label == pe.Label) && (pe.Where == nil || pe.Where(e))
	}
	for _, e := range g.OutEdges(from) {
		if admits(e, to) {
			return e
		}
	}
	if pe.AnyDir {
		for _, e := range g.OutEdges(to) {
			if admits(e, from) {
				return e
			}
		}
	}
	return nil
}

func (g *Graph) refCheckEdges(p *Pattern, binding []VertexID) (Match, bool) {
	m := Match{Vertices: map[string]VertexID{}, Paths: make([][]EdgeID, len(p.edges))}
	for name, i := range p.vIndex {
		m.Vertices[name] = binding[i]
	}
	for ei, pe := range p.edges {
		f, t := binding[p.vIndex[pe.From]], binding[p.vIndex[pe.To]]
		if pe.MinHops == 1 && pe.MaxHops == 1 {
			e := g.refFindEdge(f, t, pe)
			if e == nil {
				return Match{}, false
			}
			m.Paths[ei] = []EdgeID{e.ID}
			continue
		}
		path := g.findPath(f, t, &pe)
		if path == nil {
			return Match{}, false
		}
		m.Paths[ei] = path
	}
	return m, true
}

// caseReader hands out the bytes of an encoded match case; past the end it
// yields zeros, so every byte string decodes.
type caseReader struct{ b []byte }

// n returns the next byte reduced to [0, k).
func (r *caseReader) n(k int) int {
	if k <= 1 || len(r.b) == 0 {
		return 0
	}
	x := int(r.b[0])
	r.b = r.b[1:]
	return x % k
}

// decodeMatchCase builds a pattern, a graph, the pattern matchReference runs
// to check it (the same one unless a vertex is anchored) and a limit. The
// pattern has 1-4 vertices over 0-3 vertex labels (plus one no vertex
// carries), with optional vertex Where, and 0-4 edges: labelled or not,
// with optional edge Where, directed or AnyDir, single-hop or
// variable-length, between any two pattern vertices, so patterns may be
// connected, disconnected or carry pattern self-loops. The graph has 0-40
// vertices with multi-edges and self-loops, then loses a few vertices and
// edges. Its size is capped by the number of single-hop-connected pattern
// components, which bounds the answer (and the oracle's work) to a few
// thousand bindings.
func decodeMatchCase(data []byte) (*Graph, *Pattern, *Pattern, int) {
	r := &caseReader{data}
	labels := []string{"A", "B", "C"}[:r.n(4)]
	vLabel := func(i int) string {
		switch {
		case i == 7:
			return "Z"
		case i >= 1 && i <= len(labels):
			return labels[i-1]
		}
		return ""
	}
	eLabels := []string{"", "X", "Y"}
	wIs := func(k int64) func(*Vertex) bool {
		return func(v *Vertex) bool { w, _ := v.Prop("w").AsInt(); return w == k }
	}
	wIsNot := func(k int64) func(*Vertex) bool {
		return func(v *Vertex) bool { w, _ := v.Prop("w").AsInt(); return w != k }
	}
	wBelow := func(k int64) func(*Edge) bool {
		return func(e *Edge) bool { w, _ := e.Prop("w").AsInt(); return w < k }
	}

	p := NewPattern()
	p.InjectiveVertices = r.n(2) == 0
	names := []string{"a", "b", "c", "d"}[:1+r.n(4)]
	for _, name := range names {
		var where func(*Vertex) bool
		switch r.n(4) {
		case 1:
			where = wIs(int64(r.n(3)))
		case 2:
			where = wIsNot(int64(r.n(3)))
		}
		p.V(name, vLabel(r.n(8)), where)
	}
	comp := make([]int, len(names)) // union-find over single-hop edges
	for i := range comp {
		comp[i] = i
	}
	find := func(i int) int {
		for comp[i] != i {
			i = comp[i]
		}
		return i
	}
	components := len(names)
	for i, n := 0, r.n(5); i < n; i++ {
		f, t := r.n(len(names)), r.n(len(names))
		label := eLabels[r.n(3)]
		var where func(*Edge) bool
		if r.n(3) == 1 {
			where = wBelow(int64(1 + r.n(3)))
		}
		kind := r.n(6) // 0-2 directed edge, 3 AnyDir edge, 4 directed path, 5 AnyDir path
		if kind >= 4 {
			lo := r.n(3)
			p.Path(names[f], names[t], label, lo, lo+r.n(3), where)
		} else {
			p.E(names[f], names[t], label, where)
			if rf, rt := find(f), find(t); rf != rt {
				comp[rf] = rt
				components--
			}
		}
		p.EdgesMut()[len(p.edges)-1].AnyDir = kind == 3 || kind == 5
	}

	g := NewGraph()
	nV := r.n([]int{0, 41, 31, 17, 9}[components] + 1)
	for i := 0; i < nV; i++ {
		var ls []string
		mask := r.n(8)
		for li, l := range labels {
			if mask&(1<<li) != 0 {
				ls = append(ls, l)
			}
		}
		g.SetVertexProp(g.AddVertex(ls...), "w", Int(int64(r.n(3))))
	}
	nE := 0
	if nV > 0 {
		nE = r.n(3*nV + 1)
	}
	for i := 0; i < nE; i++ {
		e := g.AddEdge(VertexID(r.n(nV)), VertexID(r.n(nV)), eLabels[r.n(3)])
		g.SetEdgeProp(e, "w", Int(int64(r.n(4))))
	}
	limit := []int{0, 1, 3}[r.n(3)]
	// Sometimes a labelled pattern vertex is anchored: the graph's vertices
	// get an s property (string or int), and the vertex's candidates come
	// from the string index; the reference scans and tests the equality.
	ref := p
	if pi := r.n(len(names)); r.n(3) == 1 && p.vertices[pi].Label != "" {
		vals := []Value{Str("x"), Str("x"), Str("y"), Int(1), Null}
		for id := 0; id < nV; id++ {
			if v := vals[r.n(len(vals))]; !v.IsNull() {
				g.SetVertexProp(VertexID(id), "s", v)
			}
		}
		want := []string{"x", "x", "y", "1"}[r.n(4)]
		g.IndexStrings()
		ids, _ := g.VerticesByString(p.vertices[pi].Label, "s", want)
		ref = &Pattern{vertices: slices.Clone(p.vertices), vIndex: p.vIndex, edges: p.edges, InjectiveVertices: p.InjectiveVertices}
		where := p.vertices[pi].Where
		ref.vertices[pi].Where = func(v *Vertex) bool {
			return (where == nil || where(v)) && v.Prop("s") == Str(want)
		}
		p.vertices[pi].Among, p.vertices[pi].Seeded = ids, true
	}
	return g, p, ref, limit
}

// matchCases returns n seeded random encodings for decodeMatchCase.
func matchCases(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 512)
		rng.Read(out[i])
	}
	return out
}

// checkMatchCase asserts MatchPattern returns exactly matchReference's
// matches, in the same order with the same paths, and reports how many.
// name identifies the case in a failure.
func checkMatchCase(t *testing.T, name string, data []byte) int {
	t.Helper()
	g, p, ref, limit := decodeMatchCase(data)
	got, want := g.MatchPattern(p, limit), g.matchReference(ref, limit)
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
			i++
		}
		at := func(ms []Match) string {
			if i < len(ms) {
				return fmt.Sprint(ms[i])
			}
			return "none"
		}
		t.Fatalf("%s: %d matches, reference %d; first difference at %d: %s, reference %s",
			name, len(got), len(want), i, at(got), at(want))
	}
	return len(got)
}

func TestMatchPatternEqualsReference(t *testing.T) {
	cases := matchCases(1, 3000)
	if testing.Short() {
		cases = cases[:500]
	}
	nonEmpty := 0
	for i, data := range cases {
		if checkMatchCase(t, fmt.Sprintf("matchCases(1, _)[%d]", i), data) > 0 {
			nonEmpty++
		}
	}
	// Guard against a generator that only ever builds empty answers.
	if nonEmpty < len(cases)/5 {
		t.Fatalf("only %d of %d cases matched anything", nonEmpty, len(cases))
	}
}

// FuzzMatchPattern is TestMatchPatternEqualsReference over arbitrary bytes.
// Run the fuzzer with:
//
//	go test ./internal/lpg -run FuzzMatchPattern -fuzz FuzzMatchPattern -fuzztime 30s
//
// In normal test runs only the seed corpus executes.
func FuzzMatchPattern(f *testing.F) {
	for _, data := range matchCases(1, 32) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkMatchCase(t, "fuzz input", data) })
}

// starGraph builds the served HyQL view's shape: n Station vertices, each
// with an Availability vertex behind HAS_SERIES and 4 outgoing TRIP edges
// to other stations.
func starGraph(n int) *Graph {
	g := NewGraph()
	st := make([]VertexID, n)
	for i := range st {
		st[i] = g.AddVertex("Station")
		g.SetVertexProp(st[i], "name", Str(fmt.Sprintf("s%d", i)))
		g.AddEdge(st[i], g.AddVertex("Availability"), "HAS_SERIES")
	}
	for i := range st {
		for k := 1; k <= 4; k++ {
			g.AddEdge(st[i], st[(i+k*7)%n], "TRIP")
		}
	}
	return g
}

// TestMatchStarAllocs bounds the matcher's allocations on the served H2
// shape: binding a from st's adjacency must not allocate per probe, so what
// is left is each Match's own map and slices.
func TestMatchStarAllocs(t *testing.T) {
	const n = 1000
	g := starGraph(n)
	p := NewPattern().V("s", "Station", nil).V("a", "", nil).E("s", "a", "HAS_SERIES", nil)
	var ms []Match
	allocs := testing.AllocsPerRun(5, func() { ms = g.MatchPattern(p, 0) })
	if len(ms) != n {
		t.Fatalf("matches=%d want %d", len(ms), n)
	}
	if per := allocs / n; per > 5 {
		t.Fatalf("%.2f allocations per match, want <= 5", per)
	}
}

var benchMatches []Match

// BenchmarkMatchPattern times the served HyQL shapes on a 1 000-station
// star graph: H2 binds every station and its series vertex; H4 starts from
// one named station, crosses a TRIP edge in either direction and binds the
// neighbour's series vertex.
func BenchmarkMatchPattern(b *testing.B) {
	g := starGraph(1000)
	named := func(v *Vertex) bool { return v.Prop("name") == Str("s500") }
	shapes := []struct {
		name string
		p    *Pattern
	}{
		{"H2", NewPattern().V("st", "Station", nil).V("a", "", nil).E("st", "a", "HAS_SERIES", nil)},
		{"H4", NewPattern().V("st", "Station", named).V("n", "Station", nil).V("a", "", nil).
			E("st", "n", "TRIP", nil).E("n", "a", "HAS_SERIES", nil)},
	}
	shapes[1].p.EdgesMut()[0].AnyDir = true
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMatches = g.MatchPattern(s.p, 0)
			}
		})
	}
}
