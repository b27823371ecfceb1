package hyql

import (
	"fmt"
	"sort"

	"hygraph/internal/core"
	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// Engine executes HyQL queries over a HyGraph instance. Queries run against
// the instance's state "as of" an instant (SnapshotAt), so temporal validity
// and series lifetimes are respected.
//
// An engine built by NewEngine caches recent snapshot views keyed by
// (instant, instance version): repeated queries at the same instant — the
// continuous-query pattern — skip view construction entirely, and any
// mutation of the instance invalidates the cache through the version stamp
// (the paper's "in-memory caching techniques" roadmap item). That cache makes
// it single-goroutine. An engine built by NewEngineOver keeps no state of its
// own between queries and is as safe for concurrent use as its Source.
type Engine struct {
	H     *core.HyGraph // nil for an engine built by NewEngineOver
	src   Source
	views map[ts.Time]cachedView
	obs   engineObs // metric handles; zero value = instrumentation off
}

// Source supplies the static graph a query "as of" an instant is matched
// against. Series-valued properties in it may be lpg.SeriesRef handles
// implementing Series, so the graph need not hold a single sample.
type Source interface {
	SnapshotAt(at ts.Time) *lpg.Graph
}

type cachedView struct {
	version uint64
	view    *core.View
}

// viewCacheSize bounds the per-engine snapshot cache.
const viewCacheSize = 16

// NewEngine returns an engine over the instance.
func NewEngine(h *core.HyGraph) *Engine {
	return &Engine{H: h, views: map[ts.Time]cachedView{}}
}

// NewEngineOver returns an engine that asks src for the graph of every query.
func NewEngineOver(src Source) *Engine { return &Engine{src: src} }

// graphAt returns the graph a query at the instant runs against.
func (e *Engine) graphAt(at ts.Time) *lpg.Graph {
	if e.src != nil {
		return e.src.SnapshotAt(at)
	}
	return e.viewAt(at).Graph
}

// viewAt returns the (possibly cached) snapshot view at the instant.
func (e *Engine) viewAt(at ts.Time) *core.View {
	v := e.H.Version()
	if c, ok := e.views[at]; ok && c.version == v {
		e.obs.viewHits.Inc()
		return c.view
	}
	e.obs.viewMisses.Inc()
	view := e.H.SnapshotAt(at)
	if len(e.views) >= viewCacheSize {
		// Evict everything stale, or an arbitrary entry when all are live.
		for k, c := range e.views {
			if c.version != v || len(e.views) >= viewCacheSize {
				delete(e.views, k)
			}
		}
	}
	e.views[at] = cachedView{version: v, view: view}
	return view
}

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
	g := e.graphAt(at)
	sw := e.obs.match.Start()
	rows, edgeNames, err := matchRows(g, q, e.obs)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	_ = edgeNames
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
	err = orderAndLimit(q, res, rows)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// matchRows converts the MATCH patterns into one combined lpg.Pattern,
// enumerates bindings and returns one row per match.
func matchRows(g *lpg.Graph, q *Query, o engineObs) ([]map[string]Value, []string, error) {
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
			return nil, nil, err
		}
		for i, ep := range path.Edges {
			cur, err := addNode(path.Nodes[i+1])
			if err != nil {
				return nil, nil, err
			}
			from, to := prev, cur
			if ep.Dir == DirLeft {
				from, to = cur, prev
			}
			if ep.Name != "" {
				if edgeNameSeen[ep.Name] {
					return nil, nil, fmt.Errorf("hyql: edge name %q reused", ep.Name)
				}
				edgeNameSeen[ep.Name] = true
			}
			varLen := ep.MinHops != 1 || ep.MaxHops != 1
			if varLen {
				p.Path(from, to, ep.Label, ep.MinHops, ep.MaxHops, nil)
			} else {
				p.E(from, to, ep.Label, nil)
			}
			pe := &patternEdges(p)[edgeIndex]
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
	nodePred := map[string]func(*lpg.Vertex) bool{}
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
			if _, isNode := nodeLabel[name]; isNode {
				nodePred[name] = andPred(nodePred[name], nodeFilter(name, conj))
				o.pushNode.Inc()
				continue
			}
			// Single-hop named edges get the filter on the pattern edge.
			for _, er := range edges {
				if er.name == name && !er.varLen {
					pe := &patternEdges(p)[er.index]
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
	}
	matches := g.MatchPattern(p, 0)
	rows := make([]map[string]Value, 0, len(matches))
	var edgeNames []string
	for _, er := range edges {
		if er.name != "" {
			edgeNames = append(edgeNames, er.name)
		}
	}
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
	return rows, edgeNames, nil
}

// patternEdges exposes the pattern's edge slice for post-construction
// adjustment (AnyDir). Defined here to keep lpg's builder API minimal.
func patternEdges(p *lpg.Pattern) []lpg.PatternEdge { return p.EdgesMut() }

// projectWith evaluates the WITH items over the matched rows, producing a
// new binding set named by the aliases (or the identifier itself for bare
// `WITH u` pass-throughs), then filters by the WITH-level WHERE.
func projectWith(q *Query, rows []map[string]Value) ([]map[string]Value, error) {
	names := make([]string, len(q.With))
	for i, item := range q.With {
		if item.Alias != "" {
			names[i] = item.Alias
		} else {
			names[i] = ExprText(item.Expr) // parser guarantees bare Ident here
		}
	}
	hasAgg := false
	for _, item := range q.With {
		if isAggregate(item.Expr) {
			hasAgg = true
			break
		}
	}
	var out []map[string]Value
	emit := func(vals []Value) {
		row := make(map[string]Value, len(vals))
		for i, v := range vals {
			row[names[i]] = v
		}
		out = append(out, row)
	}
	if !hasAgg {
		for _, r := range rows {
			vals := make([]Value, len(q.With))
			for i, item := range q.With {
				v, err := eval(item.Expr, &evalCtx{row: r})
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			emit(vals)
		}
	} else {
		grouped, order, err := groupRowsBy(withKeyExprs(q), rows)
		if err != nil {
			return nil, err
		}
		for _, gk := range order {
			group := grouped[gk]
			vals := make([]Value, len(q.With))
			for i, item := range q.With {
				v, err := evalWithAggregates(item.Expr, group)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			emit(vals)
		}
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

func withKeyExprs(q *Query) []Expr {
	var keys []Expr
	for _, item := range q.With {
		if !isAggregate(item.Expr) {
			keys = append(keys, item.Expr)
		}
	}
	return keys
}

// project evaluates the RETURN clause, applying implicit grouping when any
// item aggregates.
func project(q *Query, rows []map[string]Value) (*Result, error) {
	res := &Result{}
	for _, item := range q.Return {
		name := item.Alias
		if name == "" {
			name = ExprText(item.Expr)
		}
		res.Columns = append(res.Columns, name)
	}
	hasAgg := false
	for _, item := range q.Return {
		if isAggregate(item.Expr) {
			hasAgg = true
			break
		}
	}
	if !hasAgg {
		for _, r := range rows {
			out := make([]Value, len(q.Return))
			for i, item := range q.Return {
				v, err := eval(item.Expr, &evalCtx{row: r})
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			res.Rows = append(res.Rows, out)
		}
	} else {
		grouped, order, err := groupRows(q, rows)
		if err != nil {
			return nil, err
		}
		for _, gk := range order {
			group := grouped[gk]
			out := make([]Value, len(q.Return))
			for i, item := range q.Return {
				v, err := evalWithAggregates(item.Expr, group)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			res.Rows = append(res.Rows, out)
		}
	}
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

// groupRows partitions rows by the evaluated non-aggregate return items,
// preserving first-appearance order of groups.
func groupRows(q *Query, rows []map[string]Value) (map[string][]map[string]Value, []string, error) {
	var keys []Expr
	for _, item := range q.Return {
		if !isAggregate(item.Expr) {
			keys = append(keys, item.Expr)
		}
	}
	return groupRowsBy(keys, rows)
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
func orderAndLimit(q *Query, res *Result, _ []map[string]Value) error {
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
