package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BoundedAlloc guards the persistence decode paths against hostile sizes: a
// length decoded from stored or transported bytes (varints, fixed-width
// reads) must pass a bound check before it sizes a make(). A corrupted or
// adversarial file with a 2^60 length field otherwise turns one ReadUvarint
// into an instant OOM — precisely the crash-on-open failure mode snapshot
// loading exists to survive.
//
// The analysis is a linear taint simulation per function body:
//
//   - sources: encoding/binary decoders (ReadUvarint/ReadVarint,
//     Uvarint/Varint, ByteOrder.Uint16/32/64) and in-module callees whose
//     AllocFact says they return decoded sizes;
//   - propagation: assignment, arithmetic, conversion. len()/cap() are never
//     tainted — sizing one allocation from another already-held object is
//     always fine;
//   - guards: an if condition comparing the tainted variable (<, <=, >, >=)
//     clears its taint — both the reject shape (`if n > max { return err }`)
//     and the clamp shape (`if n > max { n = max }`);
//   - sinks: make() with a tainted size or capacity.
//
// Two facts make it interprocedural: TaintedResults (the function returns a
// decoded value unguarded — callers treat the call as a source) and
// UncheckedParams (a parameter flows unguarded into a make size — callers
// passing decoded values into it are reported at the call site).
var BoundedAlloc = &Analyzer{
	Name:  "boundedalloc",
	Doc:   "sizes decoded from stored bytes must be bound-checked before sizing an allocation",
	Facts: boundedAllocFacts,
	Run:   runBoundedAlloc,
}

// AllocFact summarizes how decoded sizes flow through a function boundary.
type AllocFact struct {
	TaintedResults  []int
	UncheckedParams []int
}

// originDecoded marks a value derived from a decode source; non-negative
// origins are parameter indices.
const originDecoded = -1

func boundedAllocFacts(pass *Pass) {
	// Same-package helpers can be declared after their callers, so iterate
	// to a fixpoint (bounded: facts only grow).
	for changed := true; changed; {
		changed = false
		funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
			fact := boundedAllocSim(pass, fd, nil)
			if len(fact.TaintedResults) == 0 && len(fact.UncheckedParams) == 0 {
				return
			}
			if prev, ok := pass.Fact(fn); ok {
				if pf, _ := prev.(*AllocFact); pf != nil && intSliceEq(pf.TaintedResults, fact.TaintedResults) && intSliceEq(pf.UncheckedParams, fact.UncheckedParams) {
					return
				}
			}
			pass.ExportFact(fn, fact)
			changed = true
		})
	}
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runBoundedAlloc(pass *Pass) {
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		boundedAllocSim(pass, fd, pass.Reportf)
	})
}

// boundedAllocSim runs the linear taint simulation over one function body,
// reporting sinks through emit (nil during the fact pass) and returning the
// function's boundary fact.
func boundedAllocSim(pass *Pass, fd *ast.FuncDecl, emit func(token.Pos, string, ...any)) *AllocFact {
	sim := &allocSim{
		pass:  pass,
		taint: map[types.Object]map[int]bool{},
		emit:  emit,
		fact:  &AllocFact{},
		tres:  map[int]bool{},
		upar:  map[int]bool{},
	}
	// Integer parameters start tainted by their own index: if one reaches a
	// make unguarded, that is the UncheckedParams fact, and call sites decide
	// whether anything decoded actually flows in.
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok && isIntType(v.Type()) {
					sim.taint[v] = map[int]bool{idx: true}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	ast.Inspect(fd.Body, sim.visit)
	sim.fact.TaintedResults = sortedIntKeys(sim.tres)
	sim.fact.UncheckedParams = sortedIntKeys(sim.upar)
	return sim.fact
}

func sortedIntKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

type allocSim struct {
	pass  *Pass
	taint map[types.Object]map[int]bool
	emit  func(token.Pos, string, ...any)
	fact  *AllocFact
	tres  map[int]bool // tainted result indices
	upar  map[int]bool // unchecked parameter indices
}

// visit processes nodes in pre-order, which matches source order for the
// straight-line flows this simulation models (an if's condition clears taint
// before its body's sinks are seen).
func (s *allocSim) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		s.assign(n)
	case *ast.GenDecl:
		for _, spec := range n.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				s.declare(vs)
			}
		}
	case *ast.IfStmt:
		s.clearGuarded(n.Cond)
	case *ast.CallExpr:
		s.checkCall(n)
	case *ast.ReturnStmt:
		for i, res := range n.Results {
			if s.origins(res)[originDecoded] {
				s.tres[i] = true
			}
		}
	}
	return true
}

// origins computes the origin set of an expression: decoded if it contains a
// decode-source call, parameter indices from tainted variables it mentions.
// len()/cap() subtrees are opaque — their results are never tainted.
func (s *allocSim) origins(e ast.Expr) map[int]bool {
	out := map[int]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLenCap(s.pass.Info, n) {
				return false
			}
			if s.isDecodeSource(n) {
				out[originDecoded] = true
			}
		case *ast.Ident:
			for o := range s.taint[s.pass.Info.ObjectOf(n)] {
				out[o] = true
			}
		}
		return true
	})
	return out
}

func isLenCap(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// isDecodeSource matches the encoding/binary size decoders and in-module
// callees with a TaintedResults fact.
func (s *allocSim) isDecodeSource(call *ast.CallExpr) bool {
	fn := staticCallee(s.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "ReadUvarint", "ReadVarint", "Uvarint", "Varint",
			"Uint16", "Uint32", "Uint64":
			return true
		}
		return false
	}
	if !sameModule(s.pass.Pkg, fn.Pkg()) {
		return false
	}
	if f, ok := s.pass.Fact(fn); ok {
		if fact, _ := f.(*AllocFact); fact != nil && len(fact.TaintedResults) > 0 {
			return true
		}
	}
	return false
}

// assign propagates taint through an assignment. A clean right-hand side
// clears the target (reassignment launders the variable); compound ops
// (+=, <<=) merge with the existing taint.
func (s *allocSim) assign(n *ast.AssignStmt) {
	replace := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.pass.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		var org map[int]bool
		if len(n.Rhs) == len(n.Lhs) {
			org = s.origins(n.Rhs[i])
		} else if len(n.Rhs) == 1 {
			org = s.origins(n.Rhs[0])
		}
		if !replace {
			for o := range s.taint[obj] {
				org[o] = true
			}
		}
		if len(org) > 0 {
			s.taint[obj] = org
		} else {
			delete(s.taint, obj)
		}
	}
}

func (s *allocSim) declare(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		obj := s.pass.Info.ObjectOf(name)
		if obj == nil {
			continue
		}
		var org map[int]bool
		if len(vs.Values) == len(vs.Names) {
			org = s.origins(vs.Values[i])
		} else if len(vs.Values) == 1 {
			org = s.origins(vs.Values[0])
		}
		if len(org) > 0 {
			s.taint[obj] = org
		}
	}
}

// clearGuarded clears the taint of every tracked variable that appears in a
// magnitude comparison inside the condition.
func (s *allocSim) clearGuarded(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for obj := range s.taint {
			if mentionsObj(s.pass.Info, be.X, obj) || mentionsObj(s.pass.Info, be.Y, obj) {
				delete(s.taint, obj)
			}
		}
		return true
	})
}

// checkCall handles the two call-shaped sinks: make() with a tainted size,
// and a call passing a tainted value into a callee's unchecked parameter.
func (s *allocSim) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
			for _, arg := range call.Args[1:] {
				org := s.origins(arg)
				if org[originDecoded] && s.emit != nil {
					s.emit(call.Pos(), "make(%s) sized from decoded input with no bound check: validate or clamp the size before allocating", types.ExprString(call.Args[0]))
				}
				for o := range org {
					if o >= 0 {
						s.upar[o] = true
					}
				}
			}
			return
		}
	}
	fn := staticCallee(s.pass.Info, call)
	if fn == nil || !sameModule(s.pass.Pkg, fn.Pkg()) {
		return
	}
	f, ok := s.pass.Fact(fn)
	if !ok {
		return
	}
	fact, _ := f.(*AllocFact)
	if fact == nil {
		return
	}
	for _, idx := range fact.UncheckedParams {
		if idx >= len(call.Args) {
			continue
		}
		org := s.origins(call.Args[idx])
		if org[originDecoded] && s.emit != nil {
			s.emit(call.Pos(), "decoded, unchecked size flows into %s, which allocates from that parameter without a bound check", fn.Name())
		}
		for o := range org {
			if o >= 0 {
				s.upar[o] = true
			}
		}
	}
}
