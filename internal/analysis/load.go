package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked target package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns with the go tool, then parses and type-checks every
// matched (non-dependency) package in parallel, workers bounded by
// GOMAXPROCS. Imports — stdlib and intra-module alike — are resolved from
// compiler export data reported by `go list -export`, so no package is ever
// type-checked twice and the standard library is never re-parsed from
// source. dir is the working directory for the go tool ("" = current).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	matched, err := matchedPackages(listed)
	if err != nil {
		return nil, err
	}
	loader := newLoader(listed)
	pkgs := make([]*Package, len(matched))
	errs := make([]error, len(matched))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(matched)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pkgs[i], errs[i] = loader.check(matched[i])
			}
		}()
	}
	for i := range matched {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// matchedPackages filters a `go list -deps` stream down to the packages the
// patterns actually matched, rejecting list errors.
func matchedPackages(listed []listedPackage) ([]listedPackage, error) {
	var out []listedPackage
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		// Error must be checked before the empty-GoFiles skip: a pattern
		// that matches nothing lists as an error package with no files, and
		// a lint gate that silently passes on a typo'd path is worse than
		// no gate.
		if lp.Error != nil {
			return nil, fmt.Errorf("hyvet: loading %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		out = append(out, lp)
	}
	return out, nil
}

// goList runs `go list -e -export -json -deps` over the patterns and decodes
// the JSON stream. -deps pulls in export data for every transitive import;
// -export populates the build cache so Export paths are valid.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("hyvet: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("hyvet: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// loader parses and type-checks packages against one shared file set and
// export-data importer. check is safe to call from concurrent goroutines:
// the file set synchronizes itself, each type-check is independent, and the
// one shared mutable structure — the gc importer's package cache — is
// serialized behind a mutex.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// newLoader builds a loader over a `go list -export` stream.
func newLoader(listed []listedPackage) *loader {
	exports := map[string]string{}
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("hyvet: no export data for %q", path)
		}
		return os.Open(file)
	})
	return &loader{fset: fset, imp: &lockedImporter{imp: imp}}
}

// lockedImporter serializes Import calls: the gc importer memoizes loaded
// packages in an unsynchronized map, and Load type-checks packages in
// parallel.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// check parses a package's non-test files and type-checks them.
func (l *loader) check(lp listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("hyvet: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("hyvet: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Fset:  l.fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}, nil
}

// newInfo allocates a fully populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
