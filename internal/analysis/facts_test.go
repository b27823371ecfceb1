package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
	"testing"
)

// localImporter resolves in-memory test packages before falling back to
// stdlib export data.
type localImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (m localImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// loadDependent type-checks two in-memory packages where b imports a, both
// in the synthetic module example.com.
func loadDependent(t *testing.T, aPath, aSrc, bPath, bSrc string) (*Package, *Package) {
	t.Helper()
	exports := stdlibExports(t)
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	check := func(path, src string, imp types.Importer) *Package {
		f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := newInfo()
		tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
	}
	a := check(aPath, aSrc, std)
	b := check(bPath, bSrc, localImporter{local: map[string]*types.Package{aPath: a.Pkg}, fallback: std})
	return a, b
}

const ambientDepSrc = `package a

import "context"

// Detach manufactures an ambient context; ctxflow exports the AmbientCtx
// fact for it.
func Detach() context.Context { return context.Background() }
`

const ambientUserSrc = `package b

import (
	"context"

	"example.com/a"
)

func Serve(ctx context.Context) {
	_ = a.Detach()
}
`

// TestCrossPackageFactFlow analyzes two packages in one run: the fact
// exported while visiting a must produce the interprocedural ctxflow finding
// in b. Only b is in scope, so the single expected finding proves the
// cross-package path (a's own ambient call is out of scope).
func TestCrossPackageFactFlow(t *testing.T) {
	a, b := loadDependent(t, "example.com/a", ambientDepSrc, "example.com/b", ambientUserSrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"ctxflow": {Packages: []string{"example.com/b"}}}}
	findings, err := runPackages([]*Package{b, a}, policy) // order scrambled: topo sort must fix it
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the interprocedural ctxflow finding in b", findings)
	}
	f := findings[0]
	if f.Check != "ctxflow" || !strings.Contains(f.Message, "manufactures an ambient context") {
		t.Errorf("finding = %+v, want the rule-3 ambient message", f)
	}
}
