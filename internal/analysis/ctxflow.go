package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the deadline-threading contract of the served engine
// (docs/SERVICE.md): a request's context must flow from the HTTP spine
// through every blocking callee to the storage fan-outs, so the
// server-assigned budget actually cancels work. Four rules, over the call
// graph and cross-package facts:
//
//  1. (dropped) The error of an in-module call that takes a context — the
//     query path's Exec, any *Ctx method — must not be assigned to `_`.
//     That error is how a deadline miss, a degraded store or a lost
//     partition reaches the caller; discarding it turns a partial answer
//     into a silently wrong one.
//  2. (ambient) Scoped packages are request-path code: they must never
//     manufacture context.Background()/context.TODO(). A function that
//     needs a context accepts one.
//  3. (ambient, interprocedural) A function holding a ctx must not call an
//     in-module ctx-less callee that manufactures an ambient context
//     somewhere below it (the AmbientCtx fact) — the request deadline is
//     dropped on the floor one stack frame down.
//  4. (fan-out) A loop inside a ctx-holding function whose body does
//     blocking work — directly (channel ops, time.Sleep, sync waits, file
//     or network I/O) or through an in-module callee with the Blocking
//     fact — must observe ctx: check ctx.Err()/ctx.Done()/
//     faults.CheckCtx(ctx, ...) or pass ctx into the work. Unobserved
//     fan-out loops are exactly where expired requests keep burning the
//     engine.
var CtxFlow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "request contexts must thread into every blocking callee; no ambient contexts on request paths",
	Facts:    ctxFlowFacts,
	FactType: func() any { return new(CtxFact) },
	Run:      runCtxFlow,
}

// CtxFact summarizes a function for the interprocedural rules.
type CtxFact struct {
	// Ambient is non-empty when the function (transitively, through
	// ctx-less in-module calls) manufactures an ambient context; it names
	// the origin ("context.Background" or a callee symbol).
	Ambient string `json:"ambient,omitempty"`
	// Blocking is non-empty when the function can block (transitively); it
	// names the reason.
	Blocking string `json:"blocking,omitempty"`
}

// blockingPkgs are stdlib packages whose calls count as blocking work.
var blockingPkgs = map[string]bool{
	"net": true, "net/http": true, "os": true, "os/exec": true,
}

// blockingMethods are the method names that actually block on types from
// blockingPkgs (http.Client.Do, net.Listener.Accept, os.File.Read);
// everything else on those packages' types (http.Header.Set,
// url.Values.Encode) is pure data manipulation.
var blockingMethods = map[string]bool{
	"Do": true, "RoundTrip": true, "Serve": true, "ListenAndServe": true,
	"ListenAndServeTLS": true, "Shutdown": true, "Accept": true,
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Sync": true,
}

// ctxFlowFacts computes CtxFact for every function of the package, with a
// fixpoint over same-package calls; facts of imported packages are already
// in the store (dependency order).
func ctxFlowFacts(pass *Pass) {
	type fnInfo struct {
		fn      *types.Func
		ctxless bool
		sites   []CallSite
	}
	var fns []fnInfo
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return
		}
		node := pass.Graph.NodeFor(fn)
		info := fnInfo{fn: fn, ctxless: !sigHasCtx(sig)}
		if node != nil {
			info.sites = node.Out
		}
		// Direct reasons seed the fixpoint.
		fact := &CtxFact{Blocking: directBlockReason(pass.Info, fd.Body, true)}
		if info.ctxless {
			for _, site := range info.sites {
				if isAmbientCtxCall(site.Callee) {
					fact.Ambient = "context." + site.Callee.Name()
					break
				}
			}
		}
		if fact.Ambient != "" || fact.Blocking != "" {
			pass.ExportFact(fn, fact)
		}
		fns = append(fns, info)
	})
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			cur, _ := pass.Fact(info.fn)
			fact, _ := cur.(*CtxFact)
			if fact == nil {
				fact = &CtxFact{}
			}
			for _, site := range info.sites {
				callee := site.Callee
				if callee == nil || !sameModule(pass.Pkg, callee.Pkg()) {
					continue
				}
				cf, _ := pass.Fact(callee)
				calleeFact, _ := cf.(*CtxFact)
				if calleeFact == nil {
					continue
				}
				// Ambient taints only through ctx-less links: a ctx-bearing
				// frame re-anchors the chain (and is judged at its own site).
				if fact.Ambient == "" && info.ctxless && calleeFact.Ambient != "" && !sigHasCtxFn(callee) {
					fact.Ambient = FuncSymbol(callee)
					changed = true
				}
				// Blocking propagates through any synchronous call; a `go`
				// site does not block the caller.
				if fact.Blocking == "" && !site.Go && calleeFact.Blocking != "" {
					fact.Blocking = "calls " + FuncSymbol(callee)
					changed = true
				}
			}
			if fact.Ambient != "" || fact.Blocking != "" {
				pass.ExportFact(info.fn, fact)
			}
		}
	}
}

func sigHasCtxFn(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sigHasCtx(sig)
}

// isAmbientCtxCall reports whether fn is context.Background or context.TODO.
func isAmbientCtxCall(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

func runCtxFlow(pass *Pass) {
	funcDecls(pass, func(fd *ast.FuncDecl, fn *types.Func) {
		node := pass.Graph.NodeFor(fn)
		if node == nil {
			return
		}
		// Rule 2: no ambient contexts anywhere in a scoped package.
		for _, site := range node.Out {
			if isAmbientCtxCall(site.Callee) {
				pass.Reportf(site.Pos, "context.%s() manufactured on a request path: accept and thread the caller's context instead", site.Callee.Name())
			}
		}
		checkDroppedCtxErrors(pass, fd)
		ctxObj, ok := ctxParam(pass.Info, fd)
		if !ok {
			return
		}
		for _, site := range node.Out {
			callee := site.Callee
			if callee == nil || !sameModule(pass.Pkg, callee.Pkg()) || sigHasCtxFn(callee) {
				continue
			}
			// Rule 3: the ctx-less callee manufactures its own context.
			if cf, ok := pass.Fact(callee); ok {
				if fact, _ := cf.(*CtxFact); fact != nil && fact.Ambient != "" {
					pass.Reportf(site.Pos, "call to %s drops the request context: it manufactures an ambient context (via %s)", callee.Name(), fact.Ambient)
				}
			}
		}
		checkCtxLoops(pass, fd, ctxObj)
	})
}

// checkDroppedCtxErrors applies rule 1 to every assignment in the function.
func checkDroppedCtxErrors(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(pass.Info, call)
		if callee == nil || !sameModule(pass.Pkg, callee.Pkg()) || !sigHasCtxFn(callee) {
			return true
		}
		res := callee.Type().(*types.Signature).Results()
		last := res.Len() - 1
		if last < 0 || len(as.Lhs) != res.Len() || !types.Identical(res.At(last).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
		if id, ok := as.Lhs[last].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "error from %s is discarded with _: it carries the deadline miss or the degraded/partial answer the caller must see", callee.Name())
		}
		return true
	})
}

// checkCtxLoops applies rule 4 to every loop in the function body.
func checkCtxLoops(pass *Pass, fd *ast.FuncDecl, ctxObj *types.Var) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		reason := loopBlockReason(pass, body)
		if reason == "" {
			return true
		}
		if nodeMentionsObj(pass.Info, body, ctxObj) {
			return true
		}
		pass.Reportf(n.Pos(), "fan-out loop does blocking work (%s) without ever observing ctx: check ctx.Err()/faults.CheckCtx or pass ctx per item", reason)
		return true
	})
}

// loopBlockReason reports why a loop body blocks, or "". Function literals
// count: a loop that spawns blocking goroutines per item is the fan-out
// shape the rule exists for.
func loopBlockReason(pass *Pass, body *ast.BlockStmt) string {
	if r := directBlockReason(pass.Info, body, false); r != "" {
		return r
	}
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(pass.Info, call)
		if callee == nil || !sameModule(pass.Pkg, callee.Pkg()) {
			return true
		}
		if cf, ok := pass.Fact(callee); ok {
			if fact, _ := cf.(*CtxFact); fact != nil && fact.Blocking != "" {
				reason = callee.Name() + ": " + fact.Blocking
			}
		}
		return true
	})
	return reason
}

// directBlockReason scans a body for directly blocking constructs,
// optionally skipping nested function literals (facts describe what the
// function itself does; goroutine bodies block their own stack).
func directBlockReason(info *types.Info, body ast.Node, skipLits bool) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if skipLits && n != body {
				return false
			}
		case *ast.SendStmt:
			reason = "a channel send"
		case *ast.SelectStmt:
			reason = "a select"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = "a channel receive"
			}
		case *ast.CallExpr:
			if r := blockingCall(info, n); r != "" {
				reason = r
			}
		}
		return true
	})
	return reason
}

// blockingCall classifies one call as blocking: time.Sleep, sync waits and
// lock acquisitions, or anything in a blocking stdlib package.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	isMethod := false
	if sig, ok := fn.Type().(*types.Signature); ok {
		isMethod = sig.Recv() != nil
	}
	switch {
	case pkg == "time" && name == "Sleep":
		return "time.Sleep"
	case pkg == "sync" && (name == "Wait" || name == "Lock" || name == "RLock"):
		return "sync." + name
	case blockingPkgs[pkg] && (!isMethod || blockingMethods[name]):
		return pkg + "." + name
	}
	return ""
}

// nodeMentionsObj is mentionsObj over any AST node.
func nodeMentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
