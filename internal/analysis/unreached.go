package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unreached reports functions in the scoped packages that no program entry
// point reaches. Library code that only its own unit tests call still costs
// review, coverage and documentation; the check keeps deleted code from
// growing back.
//
// Reachability is computed once per run over every loaded package, from
// three kinds of root: every main of a main package, every init, and every
// package-level var/const initialiser. A function reaches whatever its body
// references — calls, function values and method values alike. A call
// through an interface method reaches every method of that name, and the
// methods that stdlib interfaces call (String, Error, ServeHTTP, sort and
// heap, JSON and text marshalling, io) count as reached. Test files are not
// loaded, so a function that only tests call is reported. Paper artifacts
// that only a root-package benchmark reaches go on the policy allowlist,
// each with the benchmark or Table-2 row that needs it, and so does code
// awaiting deletion; an allowlisted function that a root reaches anyway is
// reported as a stale entry.
//
// Reachability needs the roots: a run that loads no main package (hyvet
// ./internal/lpg) has none, so the check stays silent there. `make lint`
// runs over ./..., which loads every command and example.
var Unreached = &Analyzer{
	Name:  "unreached",
	Doc:   "every function in a scoped package is reachable from a main, an init or a package-level initialiser, or allowlisted with its paper artifact",
	Facts: unreachedFacts,
	Run:   runUnreached,
}

// refGraphKey is the fact symbol the run-wide reference graph is stored
// under; it cannot collide with a function or field symbol.
const refGraphKey = "<unreached reference graph>"

// stdlibMethods are the method names the standard library calls through
// its own interfaces (fmt.Stringer, error, http.Handler, sort.Interface,
// heap.Interface, json/text marshalling, io). A method with one of these
// names is reached the moment a value of its type may flow into the
// stdlib, which this name-level check does not track.
var stdlibMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"ServeHTTP", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Read", "Write", "Close",
}

// refGraph is the run-wide reference graph the facts hook builds, one
// package at a time.
type refGraph struct {
	// refs maps a function symbol to the symbols its body references. An
	// interface method is referenced as methodKey(name).
	refs map[string][]string
	// roots are the symbols every main, init and package-level
	// initialiser references (plus the mains and inits themselves).
	roots []string
	// methods maps a method name to the symbols of every concrete method
	// with that name.
	methods map[string][]string
	hasMain bool

	// fromRoots and reached are solved once, on the first Run: what the
	// roots reach, and what the roots plus the allowlist reach.
	fromRoots, reached map[string]bool
}

// methodPrefix marks a refs entry meaning "any method called name".
const methodPrefix = "method "

func methodKey(name string) string { return methodPrefix + name }

func unreachedFacts(pass *Pass) {
	g, _ := pass.SymbolFact(refGraphKey)
	graph, _ := g.(*refGraph)
	if graph == nil {
		graph = &refGraph{refs: map[string][]string{}, methods: map[string][]string{}}
		pass.ExportSymbolFact(refGraphKey, graph)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				sym := FuncSymbol(fn)
				// append, not assign: a package may declare several inits,
				// all under one symbol.
				graph.refs[sym] = append(graph.refs[sym], references(pass.Info, decl)...)
				if decl.Recv != nil {
					graph.methods[fn.Name()] = append(graph.methods[fn.Name()], sym)
					continue
				}
				isMain := fn.Name() == "main" && pass.Pkg.Name() == "main"
				if isMain || fn.Name() == "init" {
					graph.roots = append(graph.roots, sym)
				}
				graph.hasMain = graph.hasMain || isMain
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						graph.roots = append(graph.roots, references(pass.Info, vs)...)
					}
				}
			}
		}
	}
}

// references lists the symbols of every function and method the node
// mentions: called, taken as a value, or selected as a method value.
func references(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			out = append(out, methodKey(fn.Name()))
			return true
		}
		out = append(out, FuncSymbol(fn.Origin()))
		return true
	})
	return out
}

// solve computes fromRoots and reached, once per run.
func (g *refGraph) solve(cp *CheckPolicy) {
	if g.reached != nil {
		return
	}
	roots := append([]string(nil), g.roots...)
	for _, name := range stdlibMethods {
		roots = append(roots, methodKey(name))
	}
	g.fromRoots = g.closure(roots)
	for _, al := range cp.Allow {
		roots = append(roots, al.Site)
	}
	g.reached = g.closure(roots)
}

// closure returns every symbol reachable from the given ones.
func (g *refGraph) closure(from []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), from...)
	for len(stack) > 0 {
		sym := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[sym] {
			continue
		}
		seen[sym] = true
		stack = append(stack, g.refs[sym]...)
		if name, ok := strings.CutPrefix(sym, methodPrefix); ok {
			stack = append(stack, g.methods[name]...)
		}
	}
	return seen
}

func runUnreached(pass *Pass) {
	g, _ := pass.SymbolFact(refGraphKey)
	graph, _ := g.(*refGraph)
	if graph == nil || !graph.hasMain {
		return
	}
	graph.solve(pass.Check)
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		sym := FuncSymbol(fn)
		if _, ok := pass.Check.Allowed(sym); ok {
			if !graph.fromRoots[sym] {
				pass.AllowUsed(sym)
			}
			return
		}
		if !graph.reached[sym] {
			pass.Reportf(fd.Name.Pos(), "%s is reached from no main, init or package-level initialiser: delete it, or allowlist it in hyvet.policy.json with the paper artifact that needs it", sym)
		}
	})
}
