package analysis

import (
	"fmt"
	"sort"
)

// Run loads the patterns, runs every policied analyzer over the in-scope
// packages, applies //hyvet:allow suppressions, and reports stale
// suppressions and stale policy allowances as findings of the meta-check
// "hyvet". dir is the working directory for the go tool. The returned
// findings are sorted by position; an error means the run itself could not
// complete (load failure, malformed policy/directive), not that findings
// exist.
//
// Load type-checks in parallel; runPackages analyzes in dependency order.
// Type-checking only needs the export data of imports, never their source
// analysis, so the first step has no ordering constraints.
func Run(dir string, policy *Policy, patterns ...string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runPackages(pkgs, policy)
}

// runPackages runs the suite over pre-loaded packages — shared with tests
// that build packages without the go tool. Packages are processed in
// dependency order among themselves, in two sweeps: every package's
// directives, call-graph slice and facts hooks first, then every in-scope
// analyzer. So a Run sees the facts of every loaded package, not only of
// the packages below it — which is what a whole-program question such as
// "does any main reach this function?" needs.
func runPackages(pkgs []*Package, policy *Policy) ([]Finding, error) {
	st := &analyzeState{
		facts:     NewFactStore(),
		graph:     NewCallGraph(),
		analyzers: Analyzers(),
		policy:    policy,
		allowUsed: map[string]bool{},
	}
	order := topoPackages(pkgs)
	dirs := make([][]*Directive, len(order))
	var visited []string
	for i, pkg := range order {
		visited = append(visited, pkg.Path)
		ds, err := collectFacts(st, pkg)
		if err != nil {
			return nil, err
		}
		dirs[i] = ds
	}
	var findings []Finding
	for i, pkg := range order {
		findings = append(findings, analyzePackage(st, pkg, dirs[i])...)
	}
	findings = append(findings, staleAllowances(policy, visited, st.allowUsed)...)
	sortFindings(findings)
	return findings, nil
}

// analyzeState is the run-wide interprocedural state runPackages threads
// through every package.
type analyzeState struct {
	facts     *FactStore
	graph     *CallGraph
	analyzers []*Analyzer
	policy    *Policy
	allowUsed map[string]bool // "check:site" allowlist entries that fired
}

// collectFacts parses one package's directives, extends the call graph with
// it and runs every facts hook over it.
func collectFacts(st *analyzeState, pkg *Package) ([]*Directive, error) {
	var dirs []*Directive
	for _, f := range pkg.Files {
		ds, errs := parseDirectives(pkg.Fset, f)
		if len(errs) > 0 {
			return nil, errs[0]
		}
		dirs = append(dirs, ds...)
	}
	st.graph.addPackage(pkg)
	// Facts hooks run over every package, in scope or not: a server handler
	// can only be checked against ttdb's summaries if ttdb exported them,
	// whether or not ttdb itself is in the check's package list.
	for _, a := range st.analyzers {
		if a.Facts == nil {
			continue
		}
		cp, ok := st.policy.Checks[a.Name]
		if !ok {
			cp = &CheckPolicy{}
		}
		a.Facts(newPass(pkg, a, cp, st, func(Finding) {}, func(string) {}))
	}
	return dirs, nil
}

// analyzePackage runs every in-scope analyzer over one package and returns
// its post-suppression findings.
func analyzePackage(st *analyzeState, pkg *Package, dirs []*Directive) []Finding {
	var findings []Finding
	for _, a := range st.analyzers {
		cp, ok := st.policy.Checks[a.Name]
		if !ok || !cp.appliesTo(pkg.Path) {
			continue
		}
		check := a.Name
		report := func(f Finding) {
			f.Check = check
			findings = append(findings, f)
		}
		allow := func(entry string) { st.allowUsed[check+":"+entry] = true }
		a.Run(newPass(pkg, a, cp, st, report, allow))
	}
	// Directives only ever match findings in their own file, so applying
	// them per package is equivalent to applying them to the whole run.
	return applyDirectives(findings, dirs)
}

// newPass assembles a Pass for one (package, analyzer) pair.
func newPass(pkg *Package, a *Analyzer, cp *CheckPolicy, st *analyzeState, report func(Finding), allowUsed func(string)) *Pass {
	return &Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		Info:      pkg.Info,
		Check:     cp,
		Graph:     st.graph,
		check:     a.Name,
		facts:     st.facts,
		report:    report,
		allowUsed: allowUsed,
	}
}

// topoPackages orders pre-loaded packages so every package follows the
// packages it imports (within the given set). Ties break on import path for
// determinism.
func topoPackages(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	order := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return
		}
		state[p.Path] = 1
		var deps []string
		for _, imp := range p.Pkg.Imports() {
			if byPath[imp.Path()] != nil {
				deps = append(deps, imp.Path())
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			visit(byPath[dep])
		}
		state[p.Path] = 2
		order = append(order, p)
	}
	for _, path := range paths {
		visit(byPath[path])
	}
	return order
}

// sortFindings orders findings by position, then message.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// staleAllowances reports policy allowlist entries that matched no site in
// any package the check actually visited. An allowance for a package that
// was not part of this run's patterns is not stale — partial runs (e.g.
// `hyvet ./internal/tpg`) must not invalidate the rest of the policy.
func staleAllowances(policy *Policy, visited []string, used map[string]bool) []Finding {
	var names []string
	for name := range policy.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	for _, name := range names {
		cp := policy.Checks[name]
		for _, al := range cp.Allow {
			if used[name+":"+al.Site] {
				continue
			}
			if !allowanceVisited(cp, visited, al.Site) {
				continue
			}
			out = append(out, Finding{
				Check: "hyvet",
				File:  "hyvet.policy.json",
				Line:  1,
				Col:   1,
				Message: fmt.Sprintf("stale allowance: %s allowlists %q but no such site violates the check — delete it (reason was: %s)",
					name, al.Site, al.Reason),
			})
		}
	}
	return out
}

// allowanceVisited reports whether the allowlisted site's package was both
// part of this run and in the check's scope.
func allowanceVisited(cp *CheckPolicy, visited []string, site string) bool {
	for _, path := range visited {
		if sitePackage(site) == path && cp.appliesTo(path) {
			return true
		}
	}
	return false
}

// sitePackage extracts the import path from an allowlist site or a fact
// symbol, of the form "path/to/pkg.Func" or "path/to/pkg.Recv.Method".
func sitePackage(site string) string {
	// The package path is everything before the first dot after the last
	// slash (import paths may contain dots in earlier elements).
	slash := -1
	for i, r := range site {
		if r == '/' {
			slash = i
		}
	}
	for i := slash + 1; i < len(site); i++ {
		if site[i] == '.' {
			return site[:i]
		}
	}
	return site
}
