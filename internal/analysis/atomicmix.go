package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// AtomicMix enforces all-or-nothing atomicity on struct fields: a field
// accessed through sync/atomic anywhere in the module must never be read or
// written plainly anywhere else. A plain load next to atomic stores is a
// data race the race detector only catches when the interleaving happens in
// a test; mixed access also quietly loses the memory-ordering guarantees
// the atomic side was bought for. The repo's own convention is the typed
// atomics (atomic.Int64, atomic.Pointer, ...), which make mixing
// impossible — this check exists for the call-based form, where the
// compiler is no help.
//
// The atomic side of a field can live in a different package than the plain
// side (exported field, helper package), so atomic accesses are exported as
// facts keyed by field symbol and consumed by every later package in
// dependency order.
//
// One exemption: plain writes inside the declaring package's New*/new*
// constructors — initialization before the value is shared needs no
// atomicity, and requiring atomic.Store in constructors hides real races by
// normalizing noise.
var AtomicMix = &Analyzer{
	Name:  "atomicmix",
	Doc:   "a field accessed via sync/atomic must never be accessed plainly elsewhere",
	Facts: atomicMixFacts,
	Run:   runAtomicMix,
}

// AtomicFact marks a field as atomically accessed; At records one such site
// for the finding message.
type AtomicFact struct {
	At string
}

// atomicMixFacts exports an AtomicFact for every field passed by address to
// a sync/atomic function anywhere in the package.
func atomicMixFacts(pass *Pass) {
	for _, f := range pass.Files {
		for sel, sym := range atomicFieldSels(pass, f) {
			if _, ok := pass.SymbolFact(sym); ok {
				continue
			}
			pos := pass.Fset.Position(sel.Pos())
			pass.ExportSymbolFact(sym, &AtomicFact{
				At: fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line),
			})
		}
	}
}

// atomicFieldSels maps each selector expression that is itself an atomic
// access (the &x.f inside atomic.AddUint64(&x.f, 1)) to its field symbol.
func atomicFieldSels(pass *Pass, f *ast.File) map[*ast.SelectorExpr]string {
	out := map[*ast.SelectorExpr]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicFuncCall(pass.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if sym := fieldSymbolOf(pass, sel); sym != "" {
				out[sel] = sym
			}
		}
		return true
	})
	return out
}

// isAtomicFuncCall matches the function (not method) forms of sync/atomic:
// Load*, Store*, Add*, Swap*, CompareAndSwap*. The typed atomics' methods
// are inherently unmixable and never match.
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}

// fieldSymbolOf resolves a selector to a struct-field symbol, or "".
func fieldSymbolOf(pass *Pass, sel *ast.SelectorExpr) string {
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	owner := namedOf(selection.Recv())
	if owner == nil {
		return ""
	}
	return FieldSymbol(owner, sel.Sel.Name)
}

func runAtomicMix(pass *Pass) {
	for _, f := range pass.Files {
		atomicSels := atomicFieldSels(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isCtor := strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new")
			parents := parentMap(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if _, isAtomic := atomicSels[sel]; isAtomic {
					return true
				}
				sym := fieldSymbolOf(pass, sel)
				if sym == "" {
					return true
				}
				factAny, ok := pass.SymbolFact(sym)
				if !ok {
					return true
				}
				fact, _ := factAny.(*AtomicFact)
				kind := accessKind(parents, sel)
				if isCtor && kind == "write" && sitePackage(sym) == pass.Pkg.Path() {
					// Constructor initialization before the value escapes.
					return true
				}
				at := ""
				if fact != nil {
					at = " (e.g. " + fact.At + ")"
				}
				pass.Reportf(sel.Pos(), "plain %s of %s, which is accessed atomically elsewhere%s: every access must go through sync/atomic (or use a typed atomic)", kind, sym, at)
				return true
			})
		}
	}
}

// accessKind classifies a field selector as read, write, or address-taken,
// from its parent node.
func accessKind(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) string {
	switch p := parents[sel].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == sel {
				return "write"
			}
		}
	case *ast.IncDecStmt:
		if p.X == sel {
			return "write"
		}
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return "address-taking"
		}
	}
	return "read"
}
