package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLifetime requires every spawned goroutine to have a provable way
// to stop. In a served engine a goroutine with no join and no cancellation
// is a leak that compounds per request and a drain hazard at shutdown: the
// process exits while the goroutine is mid-write, or never exits at all.
// A `go` statement passes if any of these holds:
//
//   - join: the body calls Done on a sync.WaitGroup, or sends on / closes a
//     channel that the spawning function receives from or returns (or, for
//     channel fields, that some function in the package receives from);
//   - service loop: the body receives from a channel field whose send/close
//     side exists elsewhere in the package (the stop-channel shape);
//   - cancellation: the body observes a context (ctx.Done()/ctx.Err()), or
//     the spawned callee carries the Cancellable fact and is handed a ctx;
//   - lifecycle pairing: the spawn is `go x.Method(...)` and the spawning
//     function also calls x.Shutdown/Close/Stop/Wait/Drain — the callee's
//     own contract ties the goroutine to that call (http.Server.Serve
//     returning on Shutdown is the canonical case).
//
// Cancellable is interprocedural: a function that passes its ctx into a
// Cancellable callee is itself Cancellable, so `go w.run(ctx)` is accepted
// even when run's select on ctx.Done() sits two calls down in another
// package.
var GoroutineLifetime = &Analyzer{
	Name:  "goroutinelifetime",
	Doc:   "every goroutine needs a join, a stop channel, a ctx, or a lifecycle pairing",
	Facts: goroutineLifetimeFacts,
	Run:   runGoroutineLifetime,
}

// LifetimeFact marks a function that observes a context (directly or through
// a Cancellable callee it hands its ctx to).
type LifetimeFact struct {
	Cancellable bool
}

// lifecycleNames are method names that tie a spawned sibling goroutine to
// the spawning function's control flow.
var lifecycleNames = map[string]bool{
	"Shutdown": true, "Close": true, "Stop": true, "Wait": true, "Drain": true,
}

// goroutineLifetimeFacts computes Cancellable with a same-package fixpoint;
// imported packages' facts are already present (dependency order).
func goroutineLifetimeFacts(pass *Pass) {
	type fnInfo struct {
		fn    *types.Func
		sites []CallSite
	}
	var fns []fnInfo
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		if ctxObserved(pass.Info, fd.Body) {
			pass.ExportFact(fn, &LifetimeFact{Cancellable: true})
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
				if site.Callee == nil || !sameModule(pass.Pkg, site.Callee.Pkg()) {
					continue
				}
				if !callPassesCtx(pass.Info, site.Call) {
					continue
				}
				if cf, ok := pass.Fact(site.Callee); ok {
					if fact, _ := cf.(*LifetimeFact); fact != nil && fact.Cancellable {
						pass.ExportFact(info.fn, &LifetimeFact{Cancellable: true})
						changed = true
						break
					}
				}
			}
		}
	}
}

// ctxObserved reports whether the body calls .Done() or .Err() on a
// context-typed value.
func ctxObserved(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
			return true
		}
		if isContextType(info.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

// callPassesCtx reports whether any argument of the call is context-typed.
func callPassesCtx(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContextType(info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// chanFieldOps indexes, package-wide, which channel-typed struct fields are
// received from and which are sent to or closed. Field identity is the
// field's *types.Var, shared across every file of the package.
type chanFieldOps struct {
	recv map[types.Object]bool
	send map[types.Object]bool
}

func indexChanFieldOps(pass *Pass) *chanFieldOps {
	ops := &chanFieldOps{recv: map[types.Object]bool{}, send: map[types.Object]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := fieldObj(pass.Info, n.X); obj != nil {
						ops.recv[obj] = true
					}
				}
			case *ast.RangeStmt:
				if isChanType(pass.Info.TypeOf(n.X)) {
					if obj := fieldObj(pass.Info, n.X); obj != nil {
						ops.recv[obj] = true
					}
				}
			case *ast.SendStmt:
				if obj := fieldObj(pass.Info, n.Chan); obj != nil {
					ops.send[obj] = true
				}
			case *ast.CallExpr:
				if isCloseCall(pass.Info, n) {
					if obj := fieldObj(pass.Info, n.Args[0]); obj != nil {
						ops.send[obj] = true
					}
				}
			}
			return true
		})
	}
	return ops
}

// fieldObj resolves an expression to a struct-field object if it is a field
// selector, else nil.
func fieldObj(info *types.Info, e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	return selection.Obj()
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isCloseCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

func runGoroutineLifetime(pass *Pass) {
	ops := indexChanFieldOps(pass)
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineJoined(pass, fd, g, ops) {
				pass.Reportf(g.Pos(), "goroutine has no provable join or cancellation: add a WaitGroup/channel handshake, observe ctx in its body, or pair it with Shutdown/Close/Stop on the spawning path")
			}
			return true
		})
	})
}

// goroutineJoined checks one go statement against the four evidence rules.
func goroutineJoined(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt, ops *chanFieldOps) bool {
	call := g.Call
	var body *ast.BlockStmt
	var callee *types.Func
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if callee = staticCallee(pass.Info, call); callee != nil {
		if node := pass.Graph.NodeFor(callee); node != nil && node.Decl != nil {
			body = node.Decl.Body
		}
	}
	// Lifecycle pairing: go x.Method(...) + x.Shutdown/Close/Stop/... in the
	// spawning function (deferred or not).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if key, ok := exprKey(sel.X); ok && spawnerCallsLifecycle(pass, fd, key) {
			return true
		}
	}
	// Cancellable callee handed a ctx (works without the callee's source).
	if callee != nil && callPassesCtx(pass.Info, call) {
		if cf, ok := pass.Fact(callee); ok {
			if fact, _ := cf.(*LifetimeFact); fact != nil && fact.Cancellable {
				return true
			}
		}
	}
	if body == nil {
		return false
	}
	if waitGroupDone(pass.Info, body) || ctxObserved(pass.Info, body) {
		return true
	}
	return chanHandshake(pass, fd, g, body, ops)
}

// spawnerCallsLifecycle reports whether fd's body (function literals
// included — shutdowns often live in defers) calls a lifecycle method on the
// receiver identified by key.
func spawnerCallsLifecycle(pass *Pass, fd *ast.FuncDecl, key string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !lifecycleNames[sel.Sel.Name] {
			return true
		}
		if k, ok := exprKey(sel.X); ok && k == key {
			found = true
		}
		return true
	})
	return found
}

// waitGroupDone reports whether the body calls Done on a sync.WaitGroup.
func waitGroupDone(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
			found = true
		}
		return true
	})
	return found
}

// chanHandshake checks the channel-based evidence: the goroutine body sends
// on or closes a channel whose receive side exists — in the spawning
// function outside the go statement, in a return statement (the caller
// inherits the join), or package-wide when the channel is a struct field —
// or the body receives from a channel field whose send/close side exists in
// the package (the stop-channel service loop).
func chanHandshake(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt, body *ast.BlockStmt, ops *chanFieldOps) bool {
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			joined = chanReceiveExists(pass, fd, g, n.Chan, ops)
		case *ast.CallExpr:
			if isCloseCall(pass.Info, n) {
				joined = chanReceiveExists(pass, fd, g, n.Args[0], ops)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := fieldObj(pass.Info, n.X); obj != nil && ops.send[obj] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info.TypeOf(n.X)) {
				if obj := fieldObj(pass.Info, n.X); obj != nil && ops.send[obj] {
					joined = true
				}
			}
		}
		return true
	})
	return joined
}

// chanReceiveExists locates the receive side for a channel the goroutine
// body sends on or closes.
func chanReceiveExists(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt, ch ast.Expr, ops *chanFieldOps) bool {
	if obj := fieldObj(pass.Info, ch); obj != nil {
		return ops.recv[obj]
	}
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		// The goroutine's own subtree does not count as a join.
		if n == g {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && mentionsObj(pass.Info, n.X, obj) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info.TypeOf(n.X)) && mentionsObj(pass.Info, n.X, obj) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsObj(pass.Info, res, obj) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
