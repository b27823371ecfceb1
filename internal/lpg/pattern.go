package lpg

import "slices"

// Pattern is a small subgraph pattern: named vertex constraints connected by
// edge constraints. Matching is by subgraph homomorphism with an injectivity
// option (distinct pattern vertices must bind distinct graph vertices),
// which is what Cypher's MATCH semantics need for relationship uniqueness.
// This is the paper's Q1 graph primitive (subgraph matching, Table 2); the
// HyGraph core pairs it with time-series predicates for hybrid matching.
type Pattern struct {
	vertices []PatternVertex
	vIndex   map[string]int
	edges    []PatternEdge
	// InjectiveVertices requires distinct pattern vertices to bind distinct
	// graph vertices.
	InjectiveVertices bool
}

// PatternVertex constrains one pattern node.
type PatternVertex struct {
	Name  string
	Label string             // "" matches any label
	Where func(*Vertex) bool // nil matches all
	// Among, when Seeded, replaces the label scan as the vertex's
	// candidates: ascending ids, each carrying Label.
	Among  []VertexID
	Seeded bool
}

// PatternEdge constrains one pattern edge between two named vertices.
type PatternEdge struct {
	From, To string
	Label    string           // "" matches any label
	Where    func(*Edge) bool // nil matches all
	// MinHops/MaxHops support variable-length paths; both zero means a
	// single edge (equivalent to Min=Max=1).
	MinHops, MaxHops int
	// AnyDir matches the edge (or every path step) in either direction,
	// implementing Cypher's undirected "-[]-" pattern.
	AnyDir bool
}

// NewPattern returns an empty pattern with injective vertex matching.
func NewPattern() *Pattern {
	return &Pattern{vIndex: map[string]int{}, InjectiveVertices: true}
}

// V adds a vertex constraint and returns the pattern for chaining. Adding a
// name twice panics: pattern construction bugs should fail fast.
func (p *Pattern) V(name, label string, where func(*Vertex) bool) *Pattern {
	if _, dup := p.vIndex[name]; dup {
		panic("lpg: duplicate pattern vertex " + name)
	}
	p.vIndex[name] = len(p.vertices)
	p.vertices = append(p.vertices, PatternVertex{Name: name, Label: label, Where: where})
	return p
}

// Seed gives the vertex added last its candidates from ids (ascending, each
// carrying its label: Graph.VerticesByString) instead of a label scan.
func (p *Pattern) Seed(ids []VertexID) *Pattern {
	v := &p.vertices[len(p.vertices)-1]
	v.Among, v.Seeded = ids, true
	return p
}

// E adds a single-hop edge constraint from -> to.
func (p *Pattern) E(from, to, label string, where func(*Edge) bool) *Pattern {
	p.edges = append(p.edges, PatternEdge{From: from, To: to, Label: label, Where: where, MinHops: 1, MaxHops: 1})
	return p
}

// EdgesMut exposes the pattern's edge constraints for post-construction
// adjustment (e.g. setting AnyDir); the slice aliases the pattern.
func (p *Pattern) EdgesMut() []PatternEdge { return p.edges }

// Path adds a variable-length edge constraint: a directed path of between
// minHops and maxHops edges, all carrying the label (if non-empty) and
// satisfying where.
func (p *Pattern) Path(from, to, label string, minHops, maxHops int, where func(*Edge) bool) *Pattern {
	p.edges = append(p.edges, PatternEdge{From: from, To: to, Label: label, Where: where, MinHops: minHops, MaxHops: maxHops})
	return p
}

// Match is one binding of pattern vertex names to graph vertices. Edge
// bindings hold, per pattern edge index, the edge path used.
type Match struct {
	Vertices map[string]VertexID
	Paths    [][]EdgeID
}

// MatchPattern enumerates all bindings of the pattern in the graph, in
// deterministic order. limit <= 0 means unlimited.
//
// Each pattern vertex tries its candidates in ascending id order. A vertex
// joined by a single-hop pattern edge to an already bound vertex takes its
// candidates from that neighbour's adjacency (Ramesh et al.'s vertex-centric
// expansion) instead of testing every label candidate for an edge; only a
// vertex with no bound single-hop neighbour (the root, or the first vertex
// of a disconnected pattern component) iterates its label candidates.
func (g *Graph) MatchPattern(p *Pattern, limit int) []Match {
	if len(p.vertices) == 0 {
		return nil
	}
	// Candidate lists per pattern vertex, in ascending id order: a seed and
	// the label index ("" for every vertex) list ids in id order, and the
	// Where filter keeps that order. Both are shared, so cands are read only.
	cands := make([][]VertexID, len(p.vertices))
	for i, pv := range p.vertices {
		ids := pv.Among
		if !pv.Seeded {
			ids = g.labelIndex[pv.Label]
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
	ends := p.edgeEnds()
	// Order pattern vertices by selectivity (fewest candidates first), but
	// prefer vertices connected to already-placed ones to keep joins cheap.
	order := p.matchOrder(cands)
	via := p.joinEdges(order, ends)

	binding := make([]VertexID, len(p.vertices))
	bound := make([]bool, len(p.vertices))
	scratch := make([][]VertexID, len(p.vertices)) // per pattern vertex, reused across the search
	var out []Match

	var rec func(step int) bool // returns false to stop (limit reached)
	rec = func(step int) bool {
		if step == len(order) {
			m, ok := g.checkEdges(p, ends, binding)
			if !ok {
				return true
			}
			out = append(out, m)
			return limit <= 0 || len(out) < limit
		}
		pi := order[step]
		next := cands[pi]
		if ei := via[step]; ei >= 0 {
			scratch[pi] = g.adjacent(scratch[pi], &p.edges[ei], ends[ei], pi, binding, cands[pi])
			next = scratch[pi]
		}
		for _, id := range next {
			if p.InjectiveVertices && taken(id, order[:step], binding) {
				continue
			}
			// Prune: every pattern edge whose two endpoints are bound must be
			// satisfiable; single-hop edges are checked immediately.
			binding[pi] = id
			bound[pi] = true
			if !g.prunable(p, ends, binding, bound) && !rec(step+1) {
				bound[pi] = false
				return false
			}
			bound[pi] = false
		}
		return true
	}
	rec(0)
	return out
}

// edgeEnds resolves each pattern edge's endpoint names to vertex indexes.
func (p *Pattern) edgeEnds() [][2]int {
	ends := make([][2]int, len(p.edges))
	for i, e := range p.edges {
		ends[i] = [2]int{p.vIndex[e.From], p.vIndex[e.To]}
	}
	return ends
}

// singleHop reports whether the edge constraint is one edge, not a path.
func (e *PatternEdge) singleHop() bool { return e.MinHops == 1 && e.MaxHops == 1 }

// admits reports whether graph edge e satisfies the constraint's label and
// Where.
func (e *PatternEdge) admits(ge *Edge) bool {
	return (e.Label == "" || ge.Label == e.Label) && (e.Where == nil || e.Where(ge))
}

// taken reports whether id is already bound to one of the placed pattern
// vertices.
func taken(id VertexID, placed []int, binding []VertexID) bool {
	for _, pi := range placed {
		if binding[pi] == id {
			return true
		}
	}
	return false
}

// matchOrder returns the evaluation order of pattern vertex indexes.
func (p *Pattern) matchOrder(cands [][]VertexID) []int {
	n := len(p.vertices)
	placed := make([]bool, n)
	var order []int
	adj := make([][]int, n)
	for _, e := range p.edges {
		f, t := p.vIndex[e.From], p.vIndex[e.To]
		adj[f] = append(adj[f], t)
		adj[t] = append(adj[t], f)
	}
	for len(order) < n {
		best := -1
		bestScore := 1 << 60
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			score := len(cands[i])
			connected := len(order) == 0
			for _, nb := range adj[i] {
				if placed[nb] {
					connected = true
				}
			}
			if connected {
				score -= 1 << 30 // strongly prefer connected vertices
			}
			if score < bestScore {
				bestScore = score
				best = i
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

// joinEdges returns, per step of order, the first single-hop pattern edge
// joining that step's vertex to a vertex placed at an earlier step, or -1.
func (p *Pattern) joinEdges(order []int, ends [][2]int) []int {
	step := make([]int, len(order))
	for s, pi := range order {
		step[pi] = s
	}
	via := make([]int, len(order))
	for s, pi := range order {
		via[s] = -1
		for ei := range p.edges {
			f, t := ends[ei][0], ends[ei][1]
			if !p.edges[ei].singleHop() || f == t {
				continue
			}
			if (f == pi && step[t] < s) || (t == pi && step[f] < s) {
				via[s] = ei
				break
			}
		}
	}
	return via
}

// adjacent fills buf with the candidates for pattern vertex pi reachable
// over pattern edge pe from its bound other endpoint: the far ends of that
// vertex's out-edges when it is pe's From, of its in-edges when it is pe's
// To, and of both when pe is AnyDir. Only ends in cands (ascending) whose
// edge carries pe's label are kept; the result is ascending and distinct.
// pe's Where is left to prunable, which checks every bound edge anyway.
func (g *Graph) adjacent(buf []VertexID, pe *PatternEdge, fe [2]int, pi int, binding []VertexID, cands []VertexID) []VertexID {
	fromBound := fe[1] == pi
	b := g.Vertex(binding[fe[0]])
	if !fromBound {
		b = g.Vertex(binding[fe[1]])
	}
	buf = buf[:0]
	if fromBound || pe.AnyDir {
		buf = g.farEnds(buf, b.out, pe.Label, true, cands)
	}
	if !fromBound || pe.AnyDir {
		buf = g.farEnds(buf, b.in, pe.Label, false, cands)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// farEnds appends the far endpoint (To when out, else From) of each edge in
// eids that carries label (any when "") and is in cands.
func (g *Graph) farEnds(buf []VertexID, eids []EdgeID, label string, out bool, cands []VertexID) []VertexID {
	for _, eid := range eids {
		e := g.edges[eid]
		if label != "" && e.Label != label {
			continue
		}
		far := e.From
		if out {
			far = e.To
		}
		if _, ok := slices.BinarySearch(cands, far); ok {
			buf = append(buf, far)
		}
	}
	return buf
}

// prunable reports whether the partial binding already violates a
// single-hop pattern edge with both endpoints bound.
func (g *Graph) prunable(p *Pattern, ends [][2]int, binding []VertexID, bound []bool) bool {
	for i := range p.edges {
		pe := &p.edges[i]
		f, t := ends[i][0], ends[i][1]
		if !bound[f] || !bound[t] || !pe.singleHop() {
			continue
		}
		if g.findEdge(binding[f], binding[t], pe) == nil {
			return true
		}
	}
	return false
}

// findEdge returns the first edge from -> to (then, for AnyDir,
// to -> from) that pe admits, in insertion order, or nil.
func (g *Graph) findEdge(from, to VertexID, pe *PatternEdge) *Edge {
	if e := g.edgeTo(from, to, pe); e != nil || !pe.AnyDir {
		return e
	}
	return g.edgeTo(to, from, pe)
}

// edgeTo returns the first out-edge of from (a bound vertex) that ends at
// to and that pe admits.
func (g *Graph) edgeTo(from, to VertexID, pe *PatternEdge) *Edge {
	for _, eid := range g.vertices[from].out {
		if e := g.edges[eid]; e.To == to && pe.admits(e) {
			return e
		}
	}
	return nil
}

// checkEdges validates all pattern edges under a complete binding and
// collects the edge paths used.
func (g *Graph) checkEdges(p *Pattern, ends [][2]int, binding []VertexID) (Match, bool) {
	m := Match{Vertices: map[string]VertexID{}, Paths: make([][]EdgeID, len(p.edges))}
	for name, i := range p.vIndex {
		m.Vertices[name] = binding[i]
	}
	for ei := range p.edges {
		pe := &p.edges[ei]
		f, t := binding[ends[ei][0]], binding[ends[ei][1]]
		if pe.singleHop() {
			e := g.findEdge(f, t, pe)
			if e == nil {
				return Match{}, false
			}
			m.Paths[ei] = []EdgeID{e.ID}
			continue
		}
		path := g.findPath(f, t, pe)
		if path == nil {
			return Match{}, false
		}
		m.Paths[ei] = path
	}
	return m, true
}

// findPath searches for a directed path from f to t of length within
// [MinHops, MaxHops] whose edges all satisfy the constraint; shortest such
// path is returned. Vertices may repeat but edges may not (Cypher trail
// semantics).
func (g *Graph) findPath(f, t VertexID, pe *PatternEdge) []EdgeID {
	minH, maxH := pe.MinHops, pe.MaxHops
	if minH <= 0 {
		minH = 1
	}
	if maxH < minH {
		maxH = minH
	}
	type state struct {
		at   VertexID
		path []EdgeID
	}
	// A zero-length path is allowed when MinHops == 0 and f == t.
	if pe.MinHops == 0 && f == t {
		return []EdgeID{}
	}
	frontier := []state{{f, nil}}
	for hops := 0; hops < maxH; hops++ {
		var next []state
		for _, st := range frontier {
			expand := func(e *Edge, dest VertexID) {
				if !pe.admits(e) || containsEdge(st.path, e.ID) {
					return
				}
				np := append(append([]EdgeID(nil), st.path...), e.ID)
				next = append(next, state{dest, np})
			}
			for _, e := range g.OutEdges(st.at) {
				expand(e, e.To)
			}
			if pe.AnyDir {
				for _, e := range g.InEdges(st.at) {
					expand(e, e.From)
				}
			}
		}
		for _, st := range next {
			if st.at == t && len(st.path) >= minH {
				return st.path
			}
		}
		frontier = next
	}
	return nil
}

func containsEdge(path []EdgeID, id EdgeID) bool {
	for _, e := range path {
		if e == id {
			return true
		}
	}
	return false
}
