package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces the storage engines' locking convention (see
// docs/PARALLELISM.md): types guarding state with a sync.Mutex/RWMutex field
// expose public methods that take the lock and *Locked internals that assume
// it is held. Three rules follow:
//
//  1. A function holding the lock must not call another method that takes
//     the same lock (nested acquisition; with RWMutex, a nested read lock
//     deadlocks against a waiting writer).
//  2. Holding only the read lock across a call that takes the write lock is
//     a guaranteed deadlock and is reported with a dedicated message.
//  3. A *Locked method may only be called with the lock held, and must not
//     take the lock itself.
//  4. Striped locks — multiple instances of one guarded type reached through
//     indexing (`db.shards[i].mu`) or stripe-local variables — must not be
//     held two at a time with no fixed order: acquiring a second stripe of
//     the same guarded type while one is held risks an ABBA deadlock against
//     a goroutine acquiring the same pair in the opposite order. Functions
//     whose name ends in "Ordered" are exempt — the suffix declares the body
//     acquires stripes in a canonical order (ascending index), which is the
//     blessed way to hold two stripes.
//
// The analysis is a linear, position-ordered simulation of each function
// body: acquire/release events on `x.mu` update a per-owner lock state, and
// method calls are checked against that state. Owner keys flatten
// identifier/selector/index chains ("db", "l.db", "db.shards[i]"), so two
// different stripe expressions of one striped store map to two different
// owners of the same guarded type. Function literals are simulated
// separately with an unlocked state (callbacks are assumed to run without
// the caller's lock unless they trip rule 3 on their own).
//
// Lock classes are interprocedural: a method that never touches the mutex
// itself but calls a sibling method that does still "takes the lock", so
// calling it with the lock held is the same nested acquisition one frame
// removed — the finding says which callee actually acquires ("via Set").
// The classes are computed to a fixpoint over receiver-self calls inside
// the package and exported as LockFacts, so a scoped package calling a
// guarded type it imported is checked against the callee's real locking
// behavior, not its name.
var LockDiscipline = &Analyzer{
	Name:  "lockdiscipline",
	Doc:   "lock-taking methods must not nest; *Locked internals require the lock held",
	Facts: lockDisciplineFacts,
	Run:   runLockDiscipline,
}

// LockFact is the cross-package form of a method's lock class.
type LockFact struct {
	Read  bool
	Write bool
	Via   string
}

// lockClass records which locks a method takes on its own receiver; via
// names the callee that actually acquires when the class is transitive.
type lockClass struct {
	read, write bool
	via         string
}

func (c lockClass) takesLock() bool { return c.read || c.write }

// lock states for the simulation.
const (
	stUnlocked = iota
	stRead
	stWrite
)

func runLockDiscipline(pass *Pass) {
	guarded := guardedTypes(pass)
	if len(guarded) == 0 {
		return
	}
	classes := classifyLockMethods(pass, guarded)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			simulateLockStates(pass, fd, guarded, classes)
		}
	}
}

// guardedTypes finds package-level struct types with a sync.Mutex or
// sync.RWMutex field, mapping the named type to the mutex field's name.
func guardedTypes(pass *Pass) map[*types.Named]string {
	out := map[*types.Named]string{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isSyncMutex(st.Field(i).Type()) {
				out[named] = st.Field(i).Name()
				break
			}
		}
	}
	return out
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// receiverNamed resolves a method's receiver to its named type, unwrapping
// one pointer.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// lockDisciplineFacts exports every guarded method's lock class so scoped
// importers can simulate calls into this package.
func lockDisciplineFacts(pass *Pass) {
	guarded := guardedTypes(pass)
	if len(guarded) == 0 {
		return
	}
	for fn, class := range classifyLockMethods(pass, guarded) {
		pass.ExportFact(fn, &LockFact{Read: class.read, Write: class.write, Via: class.via})
	}
}

// classifyLockMethods records, for every method of a guarded type, whether
// its body takes the receiver's lock (ignoring function literals) — first
// directly, then transitively to a fixpoint: a method calling a sibling on
// its own receiver inherits the sibling's class.
func classifyLockMethods(pass *Pass, guarded map[*types.Named]string) map[*types.Func]lockClass {
	classes := map[*types.Func]lockClass{}
	type methodDecl struct {
		fn   *types.Func
		fd   *ast.FuncDecl
		recv types.Object
	}
	var methods []methodDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			named := receiverNamed(fn)
			if named == nil {
				continue
			}
			muField, ok := guarded[named]
			if !ok {
				continue
			}
			md := methodDecl{fn: fn, fd: fd}
			if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				md.recv = pass.Info.Defs[fd.Recv.List[0].Names[0]]
			}
			methods = append(methods, md)
			var class lockClass
			inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if op, _, _, ok := mutexOp(pass, call, muField); ok {
					switch op {
					case "Lock":
						class.write = true
					case "RLock":
						class.read = true
					}
				}
			})
			if class.takesLock() {
				classes[fn] = class
			}
		}
	}
	// Transitive closure over receiver-self calls: SetAll calling s.Set
	// takes whatever Set takes.
	for changed := true; changed; {
		changed = false
		for _, md := range methods {
			if md.recv == nil {
				continue
			}
			class := classes[md.fn]
			inspectSkippingFuncLits(md.fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || pass.Info.ObjectOf(id) != md.recv {
					return
				}
				selection, ok := pass.Info.Selections[sel]
				if !ok || selection.Kind() != types.MethodVal {
					return
				}
				callee, ok := selection.Obj().(*types.Func)
				if !ok || callee == md.fn {
					return
				}
				cc, ok := classes[callee]
				if !ok {
					return
				}
				if (cc.read && !class.read) || (cc.write && !class.write) {
					class.read = class.read || cc.read
					class.write = class.write || cc.write
					if class.via == "" {
						if cc.via != "" {
							class.via = cc.via
						} else {
							class.via = callee.Name()
						}
					}
					changed = true
				}
			})
			if class.takesLock() {
				classes[md.fn] = class
			}
		}
	}
	return classes
}

// inspectSkippingFuncLits walks n calling fn on every node, without
// descending into function literals.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// mutexOp matches `<owner>.<muField>.Lock()` (and RLock/Unlock/RUnlock),
// returning the operation name, the owner key, and the owner's named type
// (for the cross-stripe rule).
func mutexOp(pass *Pass, call *ast.CallExpr, muField string) (op, owner string, typ *types.Named, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", nil, false
	}
	muSel, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || muSel.Sel.Name != muField || !isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return "", "", nil, false
	}
	owner, ok = exprKey(muSel.X)
	if !ok {
		return "", "", nil, false
	}
	return sel.Sel.Name, owner, namedOf(pass.Info.TypeOf(muSel.X)), true
}

// namedOf unwraps a pointer and returns the named type underneath, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// exprKey flattens an identifier/selector/index chain ("db", "l.db",
// "db.shards[i]") into a stable key for lock-state tracking. Two stripes of
// one striped store reached through different variables or indexes get
// different keys; callers must use one expression per stripe for the
// tracking to be sound.
func exprKey(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		idx, ok := indexKey(e.Index)
		if !ok {
			return "", false
		}
		return base + "[" + idx + "]", true
	case *ast.ParenExpr:
		return exprKey(e.X)
	}
	return "", false
}

// indexKey renders an index expression usable as part of an owner key:
// plain identifiers, literals, and selector chains. Computed indexes
// (i+1, f(x)) are not trackable and make the whole owner untracked.
func indexKey(e ast.Expr) (string, bool) {
	if lit, ok := e.(*ast.BasicLit); ok {
		return lit.Value, true
	}
	return exprKey(e)
}

// lockEvent is one acquire/release/call observed in a function body.
type lockEvent struct {
	pos      token.Pos
	owner    string
	typ      *types.Named // guarded type owning the mutex (stripe identity)
	op       string       // mutex op, or "" for method calls
	deferred bool         // inside a defer statement
	target   *types.Func  // callee, for method calls
	class    lockClass    // callee's lock class
	locked   bool         // callee has the *Locked suffix
}

// simulateLockStates runs the linear lock-state simulation over one
// function declaration, then over each nested function literal with a
// fresh (unlocked) state.
func simulateLockStates(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Named]string, classes map[*types.Func]lockClass) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	recvKey := ""
	isLockedFn := false
	if fn != nil && fd.Recv != nil {
		if named := receiverNamed(fn); named != nil {
			if _, ok := guarded[named]; ok {
				if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
					recvKey = fd.Recv.List[0].Names[0].Name
				}
				isLockedFn = strings.HasSuffix(fd.Name.Name, "Locked")
			}
		}
	}
	var lits []*ast.FuncLit
	events := collectLockEvents(pass, fd.Body, guarded, classes, &lits)
	runLockSim(pass, fd.Name.Name, recvKey, isLockedFn, events)
	for len(lits) > 0 {
		lit := lits[0]
		lits = lits[1:]
		litEvents := collectLockEvents(pass, lit.Body, guarded, classes, &lits)
		runLockSim(pass, fd.Name.Name+" (func literal)", "", false, litEvents)
	}
}

// collectLockEvents gathers the body's lock events in source order. Nested
// function literals are appended to lits for separate simulation.
func collectLockEvents(pass *Pass, body ast.Node, guarded map[*types.Named]string, classes map[*types.Func]lockClass, lits *[]*ast.FuncLit) []lockEvent {
	var events []lockEvent
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != body {
				*lits = append(*lits, n)
				return false
			}
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			if ev, ok := lockEventOf(pass, n, guarded, classes); ok {
				ev.deferred = deferred[n]
				events = append(events, ev)
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockEventOf classifies one call expression as a lock event, if it is one.
func lockEventOf(pass *Pass, call *ast.CallExpr, guarded map[*types.Named]string, classes map[*types.Func]lockClass) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	// Direct mutex operation on any guarded type's mutex field?
	for _, muField := range guarded {
		if op, owner, typ, ok := mutexOp(pass, call, muField); ok {
			return lockEvent{pos: call.Pos(), owner: owner, typ: typ, op: op}, true
		}
	}
	// Method call on a guarded type?
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return lockEvent{}, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return lockEvent{}, false
	}
	named := receiverNamed(fn)
	if named == nil {
		return lockEvent{}, false
	}
	var class lockClass
	if _, isGuarded := guarded[named]; isGuarded {
		class = classes[fn]
	} else if fn.Pkg() != nil && fn.Pkg() != pass.Pkg && sameModule(pass.Pkg, fn.Pkg()) {
		// A guarded type from an imported package: its lock classes arrive
		// as facts computed in its home package.
		if f, ok := pass.Fact(fn); ok {
			if lf, _ := f.(*LockFact); lf != nil {
				class = lockClass{read: lf.Read, write: lf.Write, via: lf.Via}
			}
		}
	} else {
		return lockEvent{}, false
	}
	locked := strings.HasSuffix(fn.Name(), "Locked")
	if !class.takesLock() && !locked {
		return lockEvent{}, false
	}
	owner, ok := exprKey(sel.X)
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{pos: call.Pos(), owner: owner, typ: named, target: fn, class: class, locked: locked}, true
}

// runLockSim replays the events, updating per-owner lock state and
// reporting rule violations.
func runLockSim(pass *Pass, fname, recvKey string, isLockedFn bool, events []lockEvent) {
	state := map[string]int{}
	ownerTyp := map[string]*types.Named{}
	// An ...Ordered function declares it acquires same-type stripes in a
	// canonical order, which makes holding two at once deadlock-free.
	ordered := strings.HasSuffix(strings.TrimSuffix(fname, " (func literal)"), "Ordered")
	// heldStripe returns a held owner of the same guarded type under a
	// different key — the ABBA hazard the cross-stripe rule reports. The
	// smallest matching key keeps the finding deterministic.
	heldStripe := func(ev lockEvent) (string, bool) {
		if ev.typ == nil || ordered {
			return "", false
		}
		best, found := "", false
		for o, st := range state {
			if st != stUnlocked && o != ev.owner && ownerTyp[o] == ev.typ && (!found || o < best) {
				best, found = o, true
			}
		}
		return best, found
	}
	if isLockedFn && recvKey != "" {
		// A *Locked method runs with its receiver's lock already held.
		state[recvKey] = stWrite
	}
	for _, ev := range events {
		switch ev.op {
		case "Lock", "RLock":
			if isLockedFn && ev.owner == recvKey {
				pass.Reportf(ev.pos, "%s must not take %s.mu: *Locked functions run with the lock already held", fname, ev.owner)
			}
			if other, ok := heldStripe(ev); ok {
				pass.Reportf(ev.pos, "cross-stripe acquisition: %s.mu taken while %s.mu is held (two stripes of %s); acquire stripes in a fixed order in a function named *Ordered", ev.owner, other, ev.typ.Obj().Name())
			}
			if ev.op == "Lock" {
				state[ev.owner] = stWrite
			} else {
				state[ev.owner] = stRead
			}
			ownerTyp[ev.owner] = ev.typ
		case "Unlock", "RUnlock":
			// A deferred unlock keeps the lock held to the end of the
			// function; only inline releases change the linear state.
			if !ev.deferred {
				state[ev.owner] = stUnlocked
			}
		default: // method call
			st := state[ev.owner]
			via := ""
			if ev.class.via != "" {
				via = " (via " + ev.class.via + ")"
			}
			switch {
			case ev.class.takesLock() && st == stRead && ev.class.write:
				pass.Reportf(ev.pos, "%s takes the write lock on %s.mu%s while the read lock is held: guaranteed deadlock", ev.target.Name(), ev.owner, via)
			case ev.class.takesLock() && st != stUnlocked:
				pass.Reportf(ev.pos, "nested lock acquisition: %s takes %s.mu%s which is already held", ev.target.Name(), ev.owner, via)
			case ev.locked && st == stUnlocked:
				pass.Reportf(ev.pos, "%s requires %s.mu to be held, but the caller does not hold it", ev.target.Name(), ev.owner)
			default:
				if ev.class.takesLock() {
					if other, ok := heldStripe(ev); ok {
						pass.Reportf(ev.pos, "cross-stripe acquisition: %s takes %s.mu while %s.mu is held (two stripes of %s); acquire stripes in a fixed order in a function named *Ordered", ev.target.Name(), ev.owner, other, ev.typ.Obj().Name())
					}
				}
			}
		}
	}
}
