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
	"strings"
	"testing"
)

// loadSource type-checks one in-memory file as its own package (stdlib
// imports resolved via export data).
func loadSource(t *testing.T, path, src string) *Package {
	t.Helper()
	exports := stdlibExports(t)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	imp := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	info := newInfo()
	tpkg, err := conf(imp).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
}

func conf(imp types.Importer) *types.Config { return &types.Config{Importer: imp} }

const panickySrc = `package p

func Explode(ok bool) {
	if !ok {
		panic("boom")
	}
}
`

func TestDriverSuppression(t *testing.T) {
	src := strings.Replace(panickySrc, "panic(\"boom\")", "//hyvet:allow panicfree reviewed and unreachable\n\t\tpanic(\"boom\")", 1)
	pkg := loadSource(t, "example.com/p", src)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {Packages: []string{"example.com/p"}}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("suppressed finding leaked: %v", findings)
	}
}

func TestDriverUnsuppressedFinding(t *testing.T) {
	pkg := loadSource(t, "example.com/p", panickySrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {Packages: []string{"example.com/p"}}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 1 || findings[0].Check != "panicfree" {
		t.Fatalf("findings = %v, want one panicfree finding", findings)
	}
}

func TestDriverOutOfScopePackage(t *testing.T) {
	pkg := loadSource(t, "example.com/p", panickySrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {Packages: []string{"example.com/other"}}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("out-of-scope package produced findings: %v", findings)
	}
}

func TestDriverStaleSuppression(t *testing.T) {
	src := `package p

//hyvet:allow panicfree this panic was removed long ago
func Calm() {}
`
	pkg := loadSource(t, "example.com/p", src)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {Packages: []string{"example.com/p"}}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the stale-suppression finding", findings)
	}
	if findings[0].Check != "hyvet" || !strings.Contains(findings[0].Message, "stale suppression") {
		t.Errorf("finding = %+v", findings[0])
	}
}

func TestDriverMalformedDirectiveIsError(t *testing.T) {
	src := `package p

//hyvet:allow nosuchcheck reason
func F() {}
`
	pkg := loadSource(t, "example.com/p", src)
	policy := &Policy{Checks: map[string]*CheckPolicy{}}
	if _, err := runPackages([]*Package{pkg}, policy); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("err = %v, want unknown-check directive error", err)
	}

	src2 := `package p

//hyvet:allow panicfree
func F() {}
`
	pkg2 := loadSource(t, "example.com/p", src2)
	if _, err := runPackages([]*Package{pkg2}, policy); err == nil || !strings.Contains(err.Error(), "missing reason") {
		t.Fatalf("err = %v, want missing-reason directive error", err)
	}
}

func TestDriverStaleAllowance(t *testing.T) {
	pkg := loadSource(t, "example.com/p", `package p

func Tame() {}
`)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {
		Packages: []string{"example.com/p"},
		Allow:    []Allowance{{Site: "example.com/p.Tame", Reason: "used to panic"}},
	}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "stale allowance") {
		t.Fatalf("findings = %v, want one stale-allowance finding", findings)
	}
}

func TestDriverAllowanceOutsideRunNotStale(t *testing.T) {
	// An allowance for a package that was not loaded in this run must not
	// be reported stale: partial runs cannot see the site.
	pkg := loadSource(t, "example.com/p", panickySrc)
	policy := &Policy{Checks: map[string]*CheckPolicy{"panicfree": {
		Packages: []string{"example.com/..."},
		Allow: []Allowance{
			{Site: "example.com/q.Hidden", Reason: "q is not part of this run"},
		},
	}}}
	findings, err := runPackages([]*Package{pkg}, policy)
	if err != nil {
		t.Fatalf("runPackages: %v", err)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "stale allowance") {
			t.Errorf("allowance for unloaded package reported stale: %v", f)
		}
	}
}

func TestLoadBadPatternErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// A typo'd pattern must fail the run, not silently analyze nothing.
	if _, err := Load(root, "./nosuchpkg"); err == nil {
		t.Fatal("Load accepted a pattern matching no packages")
	}
}

// TestRunRepository is the acceptance gate in test form: the full suite
// over the real module with the committed policy must come back clean.
func TestRunRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("repository-wide analysis in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	policy, err := LoadPolicy(filepath.Join(root, "hyvet.policy.json"))
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	// The gate is only as strong as the policy's coverage: every analyzer of
	// the suite must be scoped, so a check silently dropped from the policy
	// fails here rather than going dark.
	for _, a := range Analyzers() {
		if _, ok := policy.Checks[a.Name]; !ok {
			t.Errorf("policy does not scope %s; the clean-tree gate is not covering it", a.Name)
		}
	}
	findings, err := Run(root, policy, "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding on clean tree: %s", f)
	}
}
