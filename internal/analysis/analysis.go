// Package analysis is hyvet's stdlib-only static-analysis framework: a
// package loader built on `go list` + export data, a small Analyzer/Pass API
// modelled after golang.org/x/tools/go/analysis (but with zero dependencies,
// matching the module's empty require list), suppression directives
// (//hyvet:allow), and a JSON policy file that scopes each check to the
// packages whose invariants it enforces.
//
// The analyzers themselves (lockdiscipline, maporderfold, walerrlatch,
// panicfree, nondeterminism) mechanically enforce invariants that earlier
// PRs established by convention: lock discipline in the storage engines,
// deterministic float folds, WAL write-error latching, panic-free mutators,
// and wall-clock/global-randomness bans in deterministic packages. See
// docs/STATIC_ANALYSIS.md for the invariant behind each check and the real
// bug it would have caught.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer diagnostic, positioned at a concrete source line.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Check is the per-check policy entry scoping this run (never nil; an
	// empty entry when the policy has no settings beyond the package list).
	Check *CheckPolicy

	// Graph is the run-wide call graph, populated for the current package
	// and everything analyzed before it (dependency order).
	Graph *CallGraph

	check string
	facts *FactStore

	report func(Finding)
	// allowUsed records that a policy allowlist entry matched a site, for
	// stale-entry detection across the whole run.
	allowUsed func(entry string)
}

// ExportFact attaches a fact to fn under this analyzer's check name. Facts
// survive to every later package in the run.
func (p *Pass) ExportFact(fn *types.Func, fact any) {
	p.ExportSymbolFact(FuncSymbol(fn), fact)
}

// ExportSymbolFact is ExportFact for non-function symbols (struct fields,
// FieldSymbol).
func (p *Pass) ExportSymbolFact(symbol string, fact any) {
	if p.facts != nil {
		p.facts.set(p.check, symbol, fact)
	}
}

// Fact returns the fact this analyzer attached to fn, if any — whether fn
// is the source-checked definition or an export-data view of it.
func (p *Pass) Fact(fn *types.Func) (any, bool) {
	return p.SymbolFact(FuncSymbol(fn))
}

// SymbolFact is Fact by symbol string.
func (p *Pass) SymbolFact(symbol string) (any, bool) {
	if p.facts == nil {
		return nil, false
	}
	return p.facts.get(p.check, symbol)
}

// Reportf emits a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// AllowUsed marks a policy allowlist entry as having matched a real site, so
// the driver can flag stale entries.
func (p *Pass) AllowUsed(entry string) {
	if p.allowUsed != nil {
		p.allowUsed(entry)
	}
}

// Analyzer is one hyvet check.
type Analyzer struct {
	// Name is the check name used in policy entries, //hyvet:allow
	// directives and finding output.
	Name string
	// Doc is the one-line invariant the check enforces.
	Doc string
	// Facts, when set, runs over EVERY loaded package — in scope or not —
	// before any Run, exporting function/field summaries the analyzer's Run
	// consumes interprocedurally. It must only export facts, never report.
	Facts func(*Pass)
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Analyzers returns the full hyvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockDiscipline,
		MapOrderFold,
		WALErrLatch,
		PanicFree,
		Nondeterminism,
		CtxFlow,
		AtomicMix,
		GoroutineLifetime,
		BoundedAlloc,
	}
}

// AnalyzerNames returns the names of the full suite, sorted.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// knownCheck reports whether name is an analyzer in the suite. The meta
// check name "hyvet" (used for stale-suppression and policy findings) is
// not a valid directive target.
func knownCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}
