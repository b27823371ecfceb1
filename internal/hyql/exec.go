package hyql

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hygraph/internal/lpg"
	"hygraph/internal/tpg"
	"hygraph/internal/ts"
)

// Engine executes HyQL queries against what its Source's structure holds at
// an instant, so temporal validity and series lifetimes are respected. It
// keeps its metric handles and one View, of the source's latest version:
// queries are as safe for concurrent use as the Source, and Instrument is
// called before them.
type Engine struct {
	src  Source
	obs  engineObs            // metric handles; zero value = instrumentation off
	mu   sync.Mutex           // serialises View rebuilds; queries never take it
	view atomic.Pointer[View] // of the version the source last reported
}

// Source supplies the structure queries are matched against: every vertex
// and edge, valid or not, each with its kind under `_kind` and a TS element
// with its series under `_series` (inline, or an lpg.SeriesRef handle
// implementing Series, so the graph need not hold a sample), plus ρ of the
// PG elements by id (nil: none). Version moves whenever the structure does;
// the engine reads the structure only then. core.HyGraph and the served
// tenant implement it.
type Source interface {
	Version() uint64
	Structure() (g *lpg.Graph, vertexRho, edgeRho []tpg.Interval)
}

// NewEngine returns an engine over src's structure.
func NewEngine(src Source) *Engine { return &Engine{src: src} }

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Query parses and executes src against the instance state at instant `at`.
func (e *Engine) Query(src string, at ts.Time) (*Result, error) {
	sw := e.obs.parse.Start()
	q, err := Parse(src)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	return e.Exec(q, at)
}

// Exec executes a parsed query at the given instant.
func (e *Engine) Exec(q *Query, at ts.Time) (*Result, error) {
	return e.exec(q, e.graphAt(at))
}

// graphAt is the graph a query at the instant matches, from the View of the
// source's current version.
func (e *Engine) graphAt(at ts.Time) *lpg.Graph {
	v := e.view.Load()
	if v == nil || v.version != e.src.Version() {
		e.mu.Lock()
		// Read the version before building: a write that lands mid-build
		// moves it past what is recorded here, and the next query builds
		// again. A concurrent query may have built this version already.
		version := e.src.Version()
		if v = e.view.Load(); v == nil || v.version != version {
			v = NewView(e.src.Structure())
			v.version, v.scans = version, e.obs.spanScans
			e.view.Store(v)
			e.obs.rebuilds.Inc()
		}
		e.mu.Unlock()
	}
	return v.GraphAt(at)
}

// exec executes a parsed query against the graph of its instant.
func (e *Engine) exec(q *Query, g *lpg.Graph) (*Result, error) {
	sw := e.obs.match.Start()
	rows, err := matchRows(g, q, e.obs)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	// WHERE filter.
	if q.Where != nil {
		sw := e.obs.where.Start()
		kept := rows[:0]
		for _, r := range rows {
			v, err := eval(q.Where, &evalCtx{row: r})
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, r)
			}
		}
		rows = kept
		sw.Stop()
	}
	// WITH stage: re-project the bindings (with aggregation) and apply the
	// post-projection filter — Cypher's pipeline semantics, enough for the
	// paper's Listing 1 ("WITH u, collect(m2) AS mrs ... WHERE length(mrs) > 2").
	if len(q.With) > 0 {
		sw := e.obs.with.Start()
		rows, err = projectWith(q, rows)
		sw.Stop()
		if err != nil {
			return nil, err
		}
	}
	sw = e.obs.project.Start()
	res, err := project(q, rows)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	sw = e.obs.order.Start()
	err = orderAndLimit(q, res)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// matchRows converts the MATCH patterns into one combined lpg.Pattern,
// enumerates bindings and returns one row per match.
func matchRows(g *lpg.Graph, q *Query, o engineObs) ([]map[string]Value, error) {
	p := lpg.NewPattern()
	nodeLabel := map[string]string{}
	var nodeOrder []string
	anon := 0
	fresh := func() string {
		anon++
		return fmt.Sprintf("_anon%d", anon)
	}
	type edgeRef struct {
		name   string
		index  int
		varLen bool
	}
	var edges []edgeRef
	edgeIndex := 0
	addNode := func(np NodePattern) (string, error) {
		name := np.Name
		if name == "" {
			name = fresh()
		}
		if prev, seen := nodeLabel[name]; seen {
			// Re-declaration is fine; labels must not conflict.
			switch {
			case np.Label == "" || np.Label == prev:
			case prev == "":
				nodeLabel[name] = np.Label
			default:
				return "", fmt.Errorf("hyql: node %q declared with labels %q and %q", name, prev, np.Label)
			}
			return name, nil
		}
		nodeLabel[name] = np.Label
		nodeOrder = append(nodeOrder, name)
		return name, nil
	}
	edgeNameSeen := map[string]bool{}
	for _, path := range q.Patterns {
		prev, err := addNode(path.Nodes[0])
		if err != nil {
			return nil, err
		}
		for i, ep := range path.Edges {
			cur, err := addNode(path.Nodes[i+1])
			if err != nil {
				return nil, err
			}
			from, to := prev, cur
			if ep.Dir == DirLeft {
				from, to = cur, prev
			}
			if ep.Name != "" {
				if edgeNameSeen[ep.Name] {
					return nil, fmt.Errorf("hyql: edge name %q reused", ep.Name)
				}
				edgeNameSeen[ep.Name] = true
			}
			varLen := ep.MinHops != 1 || ep.MaxHops != 1
			if varLen {
				p.Path(from, to, ep.Label, ep.MinHops, ep.MaxHops, nil)
			} else {
				p.E(from, to, ep.Label, nil)
			}
			pe := &p.EdgesMut()[edgeIndex]
			pe.AnyDir = ep.Dir == DirBoth
			edges = append(edges, edgeRef{name: ep.Name, index: edgeIndex, varLen: varLen})
			edgeIndex++
			prev = cur
		}
	}
	// Predicate pushdown: WHERE conjuncts that reference exactly one
	// binding become candidate filters inside the pattern matcher, pruning
	// the search space early. Pushdown is conservative — a conjunct that
	// errors during early evaluation admits the candidate and leaves the
	// decision to the full WHERE pass, so semantics never change.
	// An anchor seeds its vertex's candidates from the string index instead.
	nodePred := map[string]func(*lpg.Vertex) bool{}
	seeds := map[string][]lpg.VertexID{}
	if q.Where != nil {
		for _, conj := range flattenAnd(q.Where) {
			if isAggregate(conj) {
				continue
			}
			refs := bindingRefs(conj)
			if len(refs) != 1 {
				continue
			}
			var name string
			for n := range refs {
				name = n
			}
			if label, isNode := nodeLabel[name]; isNode {
				o.pushNode.Inc()
				if _, seeded := seeds[name]; !seeded {
					if ids, ok := anchor(g, label, conj); ok {
						seeds[name] = ids
						o.anchored.Inc()
						continue
					}
				}
				nodePred[name] = andPred(nodePred[name], nodeFilter(name, conj))
				continue
			}
			// Single-hop named edges get the filter on the pattern edge.
			for _, er := range edges {
				if er.name == name && !er.varLen {
					pe := &p.EdgesMut()[er.index]
					pe.Where = andEdgePred(pe.Where, edgeFilter(name, conj))
					o.pushEdge.Inc()
				}
			}
		}
	}
	// Vertices are registered after the paths so that re-declared nodes get
	// their final label; edge constraints reference vertices by name only.
	for _, name := range nodeOrder {
		p.V(name, nodeLabel[name], nodePred[name])
		if ids, ok := seeds[name]; ok {
			p.Seed(ids)
		}
	}
	matches := g.MatchPattern(p, 0)
	rows := make([]map[string]Value, 0, len(matches))
	for _, m := range matches {
		row := map[string]Value{}
		for name, vid := range m.Vertices {
			row[name] = NodeValue(g.Vertex(vid))
		}
		for _, er := range edges {
			if er.name == "" {
				continue
			}
			path := m.Paths[er.index]
			if er.varLen {
				row[er.name] = PathValue(path)
			} else {
				row[er.name] = EdgeValue(g.Edge(path[0]))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// columnNames names each item's column: its alias, or its expression text
// (for WITH, the parser allows only a bare identifier without an alias).
func columnNames(items []ReturnItem) []string {
	names := make([]string, len(items))
	for i, item := range items {
		names[i] = item.Alias
		if names[i] == "" {
			names[i] = ExprText(item.Expr)
		}
	}
	return names
}

// projectRows evaluates the items of a WITH or RETURN clause over the rows:
// one value row per input row, or, when any item aggregates, one per group
// of rows that agree on every non-aggregate item (implicit grouping, groups
// in first-appearance order).
func projectRows(items []ReturnItem, rows []map[string]Value) ([][]Value, error) {
	var keys []Expr
	for _, item := range items {
		if !isAggregate(item.Expr) {
			keys = append(keys, item.Expr)
		}
	}
	var out [][]Value
	if len(keys) == len(items) {
		for _, r := range rows {
			vals := make([]Value, len(items))
			for i, item := range items {
				v, err := eval(item.Expr, &evalCtx{row: r})
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			out = append(out, vals)
		}
		return out, nil
	}
	grouped, order, err := groupRowsBy(keys, rows)
	if err != nil {
		return nil, err
	}
	for _, gk := range order {
		vals := make([]Value, len(items))
		for i, item := range items {
			v, err := evalWithAggregates(item.Expr, grouped[gk])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, vals)
	}
	return out, nil
}

// projectWith evaluates the WITH items over the matched rows into a new
// binding set named by the columns, then filters it by the WITH-level WHERE.
func projectWith(q *Query, rows []map[string]Value) ([]map[string]Value, error) {
	vals, err := projectRows(q.With, rows)
	if err != nil {
		return nil, err
	}
	names := columnNames(q.With)
	var out []map[string]Value
	for _, vs := range vals {
		row := make(map[string]Value, len(vs))
		for i, v := range vs {
			row[names[i]] = v
		}
		out = append(out, row)
	}
	if q.WithWhere != nil {
		kept := out[:0]
		for _, r := range out {
			v, err := eval(q.WithWhere, &evalCtx{row: r})
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	return out, nil
}

// project evaluates the RETURN clause and applies DISTINCT.
func project(q *Query, rows []map[string]Value) (*Result, error) {
	out, err := projectRows(q.Return, rows)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: columnNames(q.Return), Rows: out}
	if q.Distinct {
		seen := map[string]bool{}
		dedup := res.Rows[:0]
		for _, r := range res.Rows {
			k := rowKey(r)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		res.Rows = dedup
	}
	return res, nil
}

func rowKey(r []Value) string {
	k := ""
	for _, v := range r {
		k += v.key() + "\x00"
	}
	return k
}

// groupRowsBy partitions rows by the given key expressions.
func groupRowsBy(keys []Expr, rows []map[string]Value) (map[string][]map[string]Value, []string, error) {
	grouped := map[string][]map[string]Value{}
	var order []string
	for _, r := range rows {
		gk := ""
		for _, ke := range keys {
			v, err := eval(ke, &evalCtx{row: r})
			if err != nil {
				return nil, nil, err
			}
			gk += v.key() + "\x00"
		}
		if _, ok := grouped[gk]; !ok {
			order = append(order, gk)
		}
		grouped[gk] = append(grouped[gk], r)
	}
	if len(rows) == 0 && len(keys) == 0 {
		// Aggregates over an empty match still yield one row (count(*) = 0).
		grouped[""] = nil
		order = append(order, "")
	}
	return grouped, order, nil
}

// evalWithAggregates evaluates an expression over a group: aggregate calls
// consume the whole group, other subexpressions use the group's first row.
func evalWithAggregates(e Expr, group []map[string]Value) (Value, error) {
	switch x := e.(type) {
	case Call:
		if x.Namespace == "" && aggregateFuncs[x.Name] {
			return evalAggregate(x, group)
		}
	case Binary:
		l, err := evalWithAggregates(x.L, group)
		if err != nil {
			return NullValue, err
		}
		r, err := evalWithAggregates(x.R, group)
		if err != nil {
			return NullValue, err
		}
		return evalBinary(Binary{x.Op, wrapLit(l), wrapLit(r)}, &evalCtx{row: map[string]Value{}})
	case Unary:
		v, err := evalWithAggregates(x.X, group)
		if err != nil {
			return NullValue, err
		}
		return eval(Unary{x.Op, wrapLit(v)}, &evalCtx{row: map[string]Value{}})
	}
	if len(group) == 0 {
		return NullValue, nil
	}
	return eval(e, &evalCtx{row: group[0]})
}

// wrapLit re-wraps an already-evaluated scalar as a literal for re-entry
// into eval. Non-scalars cannot participate in further operations.
func wrapLit(v Value) Expr {
	sc := v.AsScalar()
	if f, ok := sc.AsFloat(); ok {
		if i, isInt := sc.AsInt(); isInt {
			return Lit{Int: &i}
		}
		return Lit{Num: &f}
	}
	if s, ok := sc.AsString(); ok {
		return Lit{Str: &s}
	}
	if b, ok := sc.AsBool(); ok {
		return Lit{Bool: &b}
	}
	return Lit{IsNull: true}
}

func evalAggregate(c Call, group []map[string]Value) (Value, error) {
	if c.Star {
		if c.Name != "count" {
			return NullValue, fmt.Errorf("hyql: only count(*) takes *")
		}
		return Scalar(lpg.Int(int64(len(group)))), nil
	}
	if len(c.Args) != 1 {
		return NullValue, fmt.Errorf("hyql: %s expects 1 argument", c.Name)
	}
	var vals []Value
	for _, r := range group {
		v, err := eval(c.Args[0], &evalCtx{row: r})
		if err != nil {
			return NullValue, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch c.Name {
	case "count":
		return Scalar(lpg.Int(int64(len(vals)))), nil
	case "collect":
		return ListValue(vals), nil
	case "sum", "avg":
		var sum float64
		n := 0
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return NullValue, fmt.Errorf("hyql: %s over non-numeric %s", c.Name, v)
			}
			sum += f
			n++
		}
		if c.Name == "avg" {
			if n == 0 {
				return NullValue, nil
			}
			return Scalar(lpg.Float(sum / float64(n))), nil
		}
		return Scalar(lpg.Float(sum)), nil
	case "min", "max":
		if len(vals) == 0 {
			return NullValue, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c2 := v.compare(best)
			if (c.Name == "min" && c2 < 0) || (c.Name == "max" && c2 > 0) {
				best = v
			}
		}
		return best, nil
	}
	return NullValue, fmt.Errorf("hyql: unknown aggregate %s", c.Name)
}

// orderAndLimit applies ORDER BY over the projected table (by column
// reference) and LIMIT.
func orderAndLimit(q *Query, res *Result) error {
	if len(q.OrderBy) > 0 {
		cols := make([]int, len(q.OrderBy))
		for i, ob := range q.OrderBy {
			idx := -1
			want := ExprText(ob.Expr)
			for ci, cname := range res.Columns {
				if cname == want {
					idx = ci
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("hyql: ORDER BY %s must reference a returned column or alias", want)
			}
			cols[i] = idx
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, ci := range cols {
				c := res.Rows[a][ci].compare(res.Rows[b][ci])
				if c == 0 {
					continue
				}
				if q.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}
