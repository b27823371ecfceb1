package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallGraph is the run-wide static call graph. Nodes are keyed by the same
// stable symbol strings as facts (FuncSymbol), because a callee resolved
// from an importing package's export-data view is a different *types.Func
// object than the one in its source-checked home package — the symbol is
// what ties the two together. The driver builds each package's slice of the
// graph (in dependency order) before any analyzer runs on it, so analyzers
// see the graph of everything at or below the current package.
type CallGraph struct {
	nodes map[string]*CallNode
}

// CallNode is one function in the graph.
type CallNode struct {
	Sym string
	// Fn and Decl are set when the function's declaring package was analyzed
	// from source in this run; for callees known only through export data
	// they stay nil and the node records call sites into it (none out).
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Out lists the static call sites in the function's body, source order.
	// Calls inside nested function literals belong to the declaring
	// function's node, marked InLit.
	Out []CallSite
}

// CallSite is one static call observed in a function body.
type CallSite struct {
	Pos    token.Pos
	Call   *ast.CallExpr
	Callee *types.Func // as seen by the calling package (may be export view)
	Sym    string      // callee's stable symbol
	Go     bool        // call is the operand of a go statement
	Defer  bool        // call is the operand of a defer statement
	InLit  bool        // call occurs inside a nested function literal
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{nodes: map[string]*CallNode{}}
}

// NodeFor returns the node for fn, or nil when the function was neither
// declared in nor called from any analyzed package.
func (g *CallGraph) NodeFor(fn *types.Func) *CallNode { return g.nodes[FuncSymbol(fn)] }

func (g *CallGraph) ensure(sym string) *CallNode {
	n := g.nodes[sym]
	if n == nil {
		n = &CallNode{Sym: sym}
		g.nodes[sym] = n
	}
	return n
}

// addPackage adds every function declared in pkg to the graph, with its
// outgoing static call sites.
func (g *CallGraph) addPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := g.ensure(FuncSymbol(fn))
			node.Fn = fn
			node.Decl = fd
			node.Out = collectCallSites(pkg.Info, fd.Body)
		}
	}
}

// collectCallSites walks one function body gathering static call sites in
// source order, tracking go/defer operands and function-literal nesting.
func collectCallSites(info *types.Info, body *ast.BlockStmt) []CallSite {
	var sites []CallSite
	goCalls := map[*ast.CallExpr]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	litDepth := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				litDepth++
				walk(n.Body)
				litDepth--
				return false
			case *ast.GoStmt:
				goCalls[n.Call] = true
			case *ast.DeferStmt:
				deferCalls[n.Call] = true
			case *ast.CallExpr:
				callee := staticCallee(info, n)
				if callee == nil {
					return true
				}
				sites = append(sites, CallSite{
					Pos:    n.Pos(),
					Call:   n,
					Callee: callee,
					Sym:    FuncSymbol(callee),
					Go:     goCalls[n],
					Defer:  deferCalls[n],
					InLit:  litDepth > 0,
				})
			}
			return true
		})
	}
	walk(body)
	return sites
}

// staticCallee resolves a call's static callee function, or nil for dynamic
// calls (function values, interface methods resolve to the interface
// method's *types.Func, which is still useful for name/signature checks).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	}
	return nil
}
