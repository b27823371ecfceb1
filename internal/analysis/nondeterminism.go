package analysis

import (
	"go/ast"
	"go/types"
)

// Nondeterminism bans wall-clock reads and the global math/rand source in
// packages declared deterministic by the policy (storage, ts, core, faults).
// Those packages back replayable WALs, bit-identical parallel merges and
// reproducible fault schedules; a time.Now or global rand call hidden in
// one of them makes a replay or a -race rerun diverge in ways no test can
// pin down. Explicitly seeded sources (rand.New(rand.NewSource(seed))) are
// fine — the ban is on *ambient* nondeterminism, not on randomness.
// Timing/bench packages read the clock as their job; the policy exempts
// them with a reason rather than widening the rule.
//
// The check is interprocedural through DetFacts: a module function outside
// any deterministic scope that (transitively) reads the ambient clock or
// global rand carries a fact, and a deterministic package calling it is
// reported at the call site — the laundering helper one package over is the
// exact hole a per-package ban leaves open. Exempt packages are sanctioned
// users, so they neither report nor export facts: calling into obs from
// storage stays legal.
var Nondeterminism = &Analyzer{
	Name:  "nondeterminism",
	Doc:   "no time.Now or global math/rand in deterministic packages; inject clocks and seeded sources",
	Facts: nondeterminismFacts,
	Run:   runNondeterminism,
}

// DetFact marks a function that transitively reaches ambient
// nondeterminism; Source names what it reaches ("time.Now" or the symbol of
// the callee it reaches it through).
type DetFact struct {
	Source string
}

// wallClockFuncs are the time package functions that read the ambient clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand functions that build an explicit,
// seedable source instead of consuming the global one.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// ambientSource classifies a call as an ambient-nondeterminism read,
// returning "time.Now"-style names, or "".
func ambientSource(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "" // methods (e.g. (*rand.Rand).Float64) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			return fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return ""
}

// nondeterminismFacts computes DetFact for the package's functions, with a
// same-package fixpoint; exempt packages are sanctioned and export nothing.
func nondeterminismFacts(pass *Pass) {
	if pass.Check.exempts(pass.Pkg.Path()) {
		return
	}
	type fnInfo struct {
		fn    *types.Func
		sites []CallSite
	}
	var fns []fnInfo
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		src := ""
		inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
			if src != "" {
				return
			}
			if call, ok := n.(*ast.CallExpr); ok {
				src = ambientSource(pass.Info, call)
			}
		})
		if src != "" {
			pass.ExportFact(fn, &DetFact{Source: src})
			return
		}
		if node := pass.Graph.NodeFor(fn); node != nil {
			fns = append(fns, fnInfo{fn: fn, sites: node.Out})
		}
	})
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if _, ok := pass.Fact(info.fn); ok {
				continue
			}
			for _, site := range info.sites {
				if site.Callee == nil || site.InLit || !sameModule(pass.Pkg, site.Callee.Pkg()) {
					continue
				}
				if f, ok := pass.Fact(site.Callee); ok {
					if df, _ := f.(*DetFact); df != nil {
						pass.ExportFact(info.fn, &DetFact{Source: FuncSymbol(site.Callee)})
						changed = true
						break
					}
				}
			}
		}
	}
}

func runNondeterminism(pass *Pass) {
	// Direct ambient reads in the scoped package.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Float64) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(), "call to time.%s in a deterministic package: inject the clock so replays and tests control it", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					pass.Reportf(call.Pos(), "call to global %s.%s in a deterministic package: use an injected, seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
	// Indirect reads through module functions outside any deterministic
	// scope. Callees in scoped packages are skipped — their own package
	// reports the direct call; exempt callees export no facts at all.
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		node := pass.Graph.NodeFor(fn)
		if node == nil {
			return
		}
		for _, site := range node.Out {
			callee := site.Callee
			if callee == nil || callee.Pkg() == nil || !sameModule(pass.Pkg, callee.Pkg()) {
				continue
			}
			if pass.Check.appliesTo(callee.Pkg().Path()) {
				continue
			}
			if f, ok := pass.Fact(callee); ok {
				if df, _ := f.(*DetFact); df != nil {
					pass.Reportf(site.Pos, "call to %s reaches %s from a deterministic package: inject the clock or seeded source at this boundary", callee.Name(), df.Source)
				}
			}
		}
	})
}
