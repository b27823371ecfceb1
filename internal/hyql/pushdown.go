package hyql

import "hygraph/internal/lpg"

// Predicate pushdown helpers: WHERE conjuncts referencing a single binding
// are evaluated per candidate inside the pattern matcher. See matchRows.

// flattenAnd splits a conjunction tree into its conjuncts.
func flattenAnd(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// bindingRefs collects the binding names an expression references.
func bindingRefs(e Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case Ident:
			out[v.Name] = true
		case PropAccess:
			out[v.On] = true
		case Unary:
			walk(v.X)
		case Binary:
			walk(v.L)
			walk(v.R)
		case Call:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// anchor returns, from g's string index, the exact candidates of a vertex
// labelled label whose conjunct conj is `v.key = 'lit'` or `'lit' = v.key`:
// a string literal equals only a string property with the same bytes.
func anchor(g *lpg.Graph, label string, conj Expr) (ids []lpg.VertexID, ok bool) {
	b, isBin := conj.(Binary)
	if !isBin || b.Op != "=" || label == "" {
		return nil, false
	}
	pa, isProp := b.L.(PropAccess)
	lit, isLit := b.R.(Lit)
	if !isProp {
		pa, isProp = b.R.(PropAccess)
		lit, isLit = b.L.(Lit)
	}
	if !isProp || !isLit || lit.Str == nil || lit.IsNull {
		return nil, false
	}
	return g.VerticesByString(label, pa.Key, *lit.Str)
}

// nodeFilter compiles a single-binding conjunct into a vertex candidate
// filter. Evaluation errors admit the candidate (the residual WHERE decides).
// The filter reuses one row, overwriting its single key per call: a filter
// belongs to one query's pattern, and MatchPattern calls it from one
// goroutine.
func nodeFilter(name string, conj Expr) func(*lpg.Vertex) bool {
	ctx := &evalCtx{row: map[string]Value{}}
	return func(v *lpg.Vertex) bool {
		ctx.row[name] = NodeValue(v)
		res, err := eval(conj, ctx)
		if err != nil {
			return true
		}
		return res.Truthy()
	}
}

// edgeFilter is nodeFilter for single-hop edge bindings.
func edgeFilter(name string, conj Expr) func(*lpg.Edge) bool {
	ctx := &evalCtx{row: map[string]Value{}}
	return func(e *lpg.Edge) bool {
		ctx.row[name] = EdgeValue(e)
		res, err := eval(conj, ctx)
		if err != nil {
			return true
		}
		return res.Truthy()
	}
}

// andPred conjoins two optional vertex predicates.
func andPred(a, b func(*lpg.Vertex) bool) func(*lpg.Vertex) bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(v *lpg.Vertex) bool { return a(v) && b(v) }
}

// andEdgePred conjoins two optional edge predicates.
func andEdgePred(a, b func(*lpg.Edge) bool) func(*lpg.Edge) bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(e *lpg.Edge) bool { return a(e) && b(e) }
}
