package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared helpers for the interprocedural analyzers.

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParam returns the declared context.Context parameter object of fd, if
// it has one (by convention the first parameter, but any position counts).
func ctxParam(info *types.Info, fd *ast.FuncDecl) (*types.Var, bool) {
	if fd.Type.Params == nil {
		return nil, false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v, true
			}
		}
	}
	return nil, false
}

// sigHasCtx reports whether any parameter of the signature is a
// context.Context.
func sigHasCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// pathRoot returns the first element of an import path.
func pathRoot(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// sameModule reports whether two packages share an import-path root — the
// dependency-free stand-in for "same module" (stdlib roots never collide
// with module roots here: the module root is "hygraph", testdata's is
// "hyvet.test").
func sameModule(a, b *types.Package) bool {
	if a == nil || b == nil {
		return false
	}
	return pathRoot(a.Path()) == pathRoot(b.Path())
}

// mentionsObj reports whether the expression references obj.
func mentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// funcDecls yields every function declaration with a body in the pass's
// files, with its definition object.
func funcDecls(pass *Pass, fn func(*ast.FuncDecl, *types.Func)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			def, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn(fd, def)
		}
	}
}
