package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockflow is the flow walker shared by lockheld and lockorder: an
// abstract interpretation of one function body that tracks the multiset
// of annotated locks held at each point and fires events for lock
// acquisitions, potentially-blocking operations, and calls to module
// functions. It is deliberately linear and branch-approximate — after
// an if/else the held set is the intersection of the branches (a
// branch ending in return/panic/break is discarded), loops and switch
// arms are assumed lock-balanced — which keeps it fast and nearly
// false-positive-free at the cost of under-approximating exotic
// control flow; the golden self-tests pin the required detections.
//
// Goroutine bodies and stray function literals are walked as
// independent roots with an empty held set: they do not run under the
// spawner's locks. Immediately-invoked literals run synchronously and
// inherit the current set. Operations covered by //lsvd:ignore fire no
// events at all, so they also stay out of call-graph summaries.

type flowEvents struct {
	// onBlocking fires for a potentially-blocking operation (backend
	// call, channel send/receive, select without default,
	// sync.WaitGroup.Wait, time.Sleep) while at least one annotated
	// lock is held.
	onBlocking func(pos token.Pos, desc string, held []string)
	// onAnyBlocking fires for every potentially-blocking operation on
	// the function's own goroutine (spawned-goroutine bodies excluded),
	// regardless of the held set. The interprocedural summaries use it
	// to decide whether a function can block at all.
	onAnyBlocking func(pos token.Pos, desc string)
	// onAcquire fires when an annotated lock is acquired; held is the
	// set before the acquisition.
	onAcquire func(pos token.Pos, lock string, held []string)
	// onCall fires for a resolved call to a module function: callee is
	// its Interproc.Funcs key, name what a message calls it. A call
	// through a func-typed struct field fires once per function the
	// module binds to that field (Interproc.Bound).
	onCall func(pos token.Pos, callee, name string, held []string)
	// onAnyCall fires for a resolved module call made on the function's
	// own goroutine (spawned bodies excluded), regardless of locks: the
	// call-graph edge set.
	onAnyCall func(pos token.Pos, callee string)
}

type lockWalker struct {
	pass      *Pass
	ev        flowEvents
	held      []string
	inComm    bool                  // inside a select comm clause: channel ops are the select's
	rootDepth int                   // >0 while inside a spawned/escaping literal body
	synced    map[*ast.FuncLit]bool // literals invoked in place: not independent roots
}

// walkFunc runs the walker over one function body with the given
// initial held set (nil for a normal entry; a single caller-held lock
// for summary computation).
func walkFunc(pass *Pass, body *ast.BlockStmt, initial []string, ev flowEvents) {
	w := &lockWalker{
		pass: pass, ev: ev,
		held:   append([]string(nil), initial...),
		synced: make(map[*ast.FuncLit]bool),
	}
	w.walkStmt(body)
}

func cloneHeld(h []string) []string { return append([]string(nil), h...) }

// intersectHeld keeps the elements of a also present in b (multiset,
// order of a preserved).
func intersectHeld(a, b []string) []string {
	avail := make(map[string]int, len(b))
	for _, n := range b {
		avail[n]++
	}
	var out []string
	for _, n := range a {
		if avail[n] > 0 {
			avail[n]--
			out = append(out, n)
		}
	}
	return out
}

func (w *lockWalker) removeHeld(name string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == name {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// terminates reports whether a statement always leaves the enclosing
// block (return, branch, panic).
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(s.List); n > 0 {
			return terminates(s.List[n-1])
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		before := cloneHeld(w.held)
		w.walkStmt(s.Body)
		bodyHeld, bodyTerm := w.held, terminates(s.Body)
		elseHeld, elseTerm := before, false
		if s.Else != nil {
			w.held = cloneHeld(before)
			w.walkStmt(s.Else)
			elseHeld, elseTerm = w.held, terminates(s.Else)
		}
		switch {
		case bodyTerm && elseTerm:
			w.held = before
		case bodyTerm:
			w.held = elseHeld
		case elseTerm:
			w.held = bodyHeld
		default:
			w.held = intersectHeld(bodyHeld, elseHeld)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		before := cloneHeld(w.held)
		w.walkStmt(s.Body)
		w.walkStmt(s.Post)
		w.held = before // loops are assumed lock-balanced
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		if tv, ok := w.pass.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blocking(s.Pos(), "range over channel")
			}
		}
		before := cloneHeld(w.held)
		w.walkStmt(s.Body)
		w.held = before
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		w.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		w.walkClauses(s.Body)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocking(s.Pos(), "select without default")
		}
		before := cloneHeld(w.held)
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			w.held = cloneHeld(before)
			w.inComm = true
			w.walkStmt(cc.Comm)
			w.inComm = false
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
		}
		w.held = before
	case *ast.SendStmt:
		if !w.inComm {
			w.blocking(s.Pos(), "channel send")
		}
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	case *ast.DeferStmt:
		if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") {
			if _, isLock := w.lockName(sel.X); isLock {
				// Deferred release: the lock stays held to the end of
				// the function, which is what the held set says.
				w.walkExpr(sel.X)
				return
			}
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// Deferred literal (defer func() { mu.Unlock(); ... }()):
			// the body runs at function exit under whatever is held
			// there, so walk it against a snapshot of the current held
			// set — a release inside it happens after the function's
			// own flow and must not drain the main walk's held set.
			for _, arg := range s.Call.Args {
				w.walkExpr(arg)
			}
			w.synced[lit] = true
			saved := cloneHeld(w.held)
			w.walkStmt(lit.Body)
			w.held = saved
			return
		}
		w.walkExpr(s.Call)
	case *ast.GoStmt:
		// Arguments are evaluated on the spawning goroutine.
		for _, arg := range s.Call.Args {
			w.walkExpr(arg)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkRoot(lit)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e)
					}
				}
			}
		}
	}
}

func (w *lockWalker) walkClauses(body *ast.BlockStmt) {
	before := cloneHeld(w.held)
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		w.held = cloneHeld(before)
		for _, e := range cc.List {
			w.walkExpr(e)
		}
		for _, st := range cc.Body {
			w.walkStmt(st)
		}
	}
	w.held = before
}

// walkRoot analyzes a function literal that runs on its own goroutine
// (or escapes to an unknown caller): fresh walker state, empty held.
func (w *lockWalker) walkRoot(lit *ast.FuncLit) {
	saved, savedComm := w.held, w.inComm
	w.held, w.inComm = nil, false
	w.rootDepth++
	w.walkStmt(lit.Body)
	w.rootDepth--
	w.held, w.inComm = saved, savedComm
}

func (w *lockWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !w.synced[n] {
				w.walkRoot(n)
			}
			return false
		case *ast.CallExpr:
			w.call(n)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !w.inComm {
				w.blocking(n.Pos(), "channel receive")
			}
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr) {
	if tv, ok := w.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs synchronously under the
		// current held set.
		w.synced[lit] = true
		w.walkStmt(lit.Body)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if name, isLock := w.lockName(sel.X); isLock {
				if w.ev.onAcquire != nil && !w.pass.Ann.IgnoredAt(call.Pos()) {
					w.ev.onAcquire(call.Pos(), name, cloneHeld(w.held))
				}
				w.held = append(w.held, name)
				return
			}
		case "Unlock", "RUnlock":
			if name, isLock := w.lockName(sel.X); isLock {
				w.removeHeld(name)
				return
			}
		}
	}
	fn := calleeOf(w.pass.Info, call.Fun)
	if fn == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			for _, key := range w.pass.IP.Bound[selectedField(w.pass.Info, sel)] {
				w.moduleCall(call.Pos(), key, sel.Sel.Name)
			}
		}
		return
	}
	if desc, isBlocking := blockingCallee(fn); isBlocking {
		w.blocking(call.Pos(), desc)
		return
	}
	if fn.Pkg() != nil && isModulePath(fn.Pkg().Path()) {
		w.moduleCall(call.Pos(), funcKey(fn), fn.Name())
	}
}

func (w *lockWalker) moduleCall(pos token.Pos, key, name string) {
	if w.pass.Ann.IgnoredAt(pos) {
		return
	}
	if w.ev.onAnyCall != nil && w.rootDepth == 0 {
		w.ev.onAnyCall(pos, key)
	}
	if w.ev.onCall != nil {
		w.ev.onCall(pos, key, name, cloneHeld(w.held))
	}
}

func (w *lockWalker) blocking(pos token.Pos, desc string) {
	if w.pass.Ann.IgnoredAt(pos) {
		return
	}
	if w.ev.onAnyBlocking != nil && w.rootDepth == 0 {
		w.ev.onAnyBlocking(pos, desc)
	}
	if w.ev.onBlocking != nil && len(w.held) > 0 {
		w.ev.onBlocking(pos, desc, cloneHeld(w.held))
	}
}

// lockName resolves an expression to an annotated lock's name: the
// expression must (syntactically) select or name a struct field
// carrying //lsvd:lock. Identity is the field object, so every
// instance of the struct shares the name. Lookup goes through the
// module-wide registry, so a target package manipulating another
// target package's annotated mutex resolves too (source-loaded
// packages share one type universe).
func (w *lockWalker) lockName(e ast.Expr) (string, bool) {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj = w.pass.Info.Uses[e.Sel]
	case *ast.Ident:
		obj = w.pass.Info.Uses[e]
	}
	if obj == nil {
		return "", false
	}
	if name, ok := w.pass.Ann.Locks[obj]; ok {
		return name, ok
	}
	name, ok := w.pass.Ann.Global.lockObj(obj)
	return name, ok
}

// calleeOf returns the function an expression statically names, if any
// (package functions, methods and method values, interface methods; nil
// for func values and builtins). Given a call's Fun it is the callee;
// calls through a func-typed struct field resolve through
// Interproc.Bound instead.
func calleeOf(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

const objstorePath = "lsvd/internal/objstore"

func isModulePath(path string) bool {
	return path == "lsvd" || strings.HasPrefix(path, "lsvd/")
}

// blockingCallee classifies callees that can block indefinitely:
// backend store operations (each may sleep through a whole retry
// schedule), sync.WaitGroup.Wait and time.Sleep. sync.Cond.Wait is
// deliberately NOT in the set: it releases the mutex it is
// conditioned on, and the blockstore's commit pipeline depends on
// exactly that idiom.
func blockingCallee(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup" {
			return "sync.WaitGroup.Wait", true
		}
	case objstorePath:
		switch fn.Name() {
		case "Put", "Get", "GetRange", "Delete", "List", "Size":
			return "objstore." + fn.Name(), true
		}
	}
	return "", false
}

// recvTypeName returns the name of a method's receiver type ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
