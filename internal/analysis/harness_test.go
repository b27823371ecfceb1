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
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The golden-test harness: each analyzer has a testdata/<check> package
// annotated with `// want "regexp"` comments. The harness type-checks the
// package (resolving stdlib imports through export data, exactly like the
// real driver), runs the full pipeline including //hyvet:allow suppression
// and stale detection, and requires the findings to match the want
// comments one-to-one. A missing finding, an extra finding, or a finding
// whose message misses the regexp all fail the test — so an analyzer
// regression fails the build.

var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

// stdlibExports lists export data for the stdlib packages testdata may
// import (plus their transitive dependencies), once per test binary.
func stdlibExports(t *testing.T) map[string]string {
	t.Helper()
	stdOnce.Do(func() {
		listed, err := goList("", []string{
			"sync", "time", "math/rand", "bufio", "bytes", "io", "fmt",
			"errors", "os", "sort", "strconv", "strings", "math", "hash/crc32",
			"context", "sync/atomic", "encoding/binary",
		})
		if err != nil {
			stdErr = err
			return
		}
		stdExports = map[string]string{}
		for _, lp := range listed {
			if lp.Export != "" {
				stdExports[lp.ImportPath] = lp.Export
			}
		}
	})
	if stdErr != nil {
		t.Fatalf("listing stdlib export data: %v", stdErr)
	}
	return stdExports
}

// loadTestdata parses and type-checks one testdata package.
func loadTestdata(t *testing.T, dir string) *Package {
	t.Helper()
	exports := stdlibExports(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("testdata may only import preloaded stdlib packages; no export data for %q", path)
		}
		return os.Open(file)
	})
	path := "hyvet.test/" + filepath.Base(dir)
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: tpkg, Info: info}
}

// wantRe matches one quoted expectation inside a `// want` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one want comment: a regexp expected to match a finding
// message on its line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants extracts the `// want "..."` expectations of a package.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// runWantTest runs the full driver pipeline over one testdata package with
// the given check policy and diffs findings against want comments.
func runWantTest(t *testing.T, dir string, policy *Policy) {
	t.Helper()
	pkg := loadTestdata(t, dir)
	// Point every policied check at the testdata package.
	for _, cp := range policy.Checks {
		cp.Packages = []string{pkg.Path}
	}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := collectWants(t, pkg)
	var unexpected []Finding
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, f)
		}
	}
	for _, f := range unexpected {
		t.Errorf("unexpected finding: %s", f)
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.pattern)
		}
	}
}

// singleCheckPolicy scopes one check (package list is filled in by
// runWantTest).
func singleCheckPolicy(check string) *Policy {
	return &Policy{Checks: map[string]*CheckPolicy{check: {Packages: []string{"placeholder"}}}}
}
