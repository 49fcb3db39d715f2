package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// spinwait flags sleep-poll loops: a for loop whose only way of
// waiting is time.Sleep between polls of some shared state, with a
// state-dependent exit. The shape works, which is why it ships — but
// wake latency is the poll interval, a missed state change costs a
// full period, and the sleeping goroutine cannot be interrupted by
// shutdown (the replication-lag bound waited out its poll interval on
// Kill until it was rebuilt on a broadcast channel). The fix is an
// event the waiter can block on: a close-broadcast channel or a
// sync.Cond.
//
// A loop is a spin-wait only when polling is ALL it does. Any real
// blocking construct (channel op, bare select, WaitGroup/Cond.Wait,
// backend call, or a module callee whose interprocedural summary says
// it can block) means the loop already waits on events. Any
// statement-position call doing real work (a module callee invoked
// for effect, an unresolvable function value) makes it a worker loop
// with pacing, not a wait — the write-cache group-commit leader
// batches under exactly that shape. Value-position calls are the poll
// itself and stay allowed when provably non-blocking: builtins,
// time.Now/Since/Until, sync/atomic loads, short mutex holds,
// invariant-checking helpers, and module functions with an empty
// blocking summary.
func newSpinwait() *Analyzer {
	a := &Analyzer{
		Name: "spinwait",
		Doc:  "no sleep-poll loops: waiting on state changes needs a channel or sync.Cond wakeup, not a time.Sleep poll",
	}
	a.Run = func(pass *Pass) {
		for _, fd := range declaredFuncs(pass) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if loop, ok := n.(*ast.ForStmt); ok {
					checkSpin(pass, loop)
				}
				return true
			})
		}
	}
	return a
}

func checkSpin(pass *Pass, loop *ast.ForStmt) {
	var sleeps []token.Pos
	disqualified := false
	hasExit := loop.Cond != nil

	disqualify := func() { disqualified = true }

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if disqualified {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			// A loop that spawns work, defers cleanup, or builds
			// closures is not a pure wait.
			disqualify()
			return false
		case *ast.SendStmt:
			disqualify()
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				disqualify()
				return false
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				disqualify()
				return false
			}
			// select with default: the comm expressions are a
			// non-blocking poll and stay out of the analysis, but the
			// clause bodies are ordinary loop code — a blocking op or
			// real work in one still changes the loop's nature.
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range cc.Body {
					ast.Inspect(st, visit)
				}
				// A break out of the select's enclosing loop counts as
				// an exit; a bare `return` in a clause body was already
				// seen by the walk above.
			}
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					disqualify()
					return false
				}
			}
		case *ast.ReturnStmt:
			hasExit = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				hasExit = true
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				switch classifySpinCall(pass, call, true) {
				case spinSleep:
					sleeps = append(sleeps, call.Pos())
				case spinBenign:
				default:
					disqualify()
				}
				if disqualified {
					return false
				}
				// Children handled; arguments are value position.
				for _, arg := range call.Args {
					ast.Inspect(arg, spinValueVisitor(pass, &sleeps, disqualify))
				}
				return false
			}
		case *ast.CallExpr:
			// Value position: the poll read.
			switch classifySpinCall(pass, n, false) {
			case spinSleep:
				sleeps = append(sleeps, n.Pos())
			case spinBenign:
			default:
				disqualify()
			}
			if disqualified {
				return false
			}
		}
		return true
	}
	// The condition and post statement are value position: the poll
	// read lives there as often as in the body (`for !s.ready()`), and
	// a blocking call there means the loop already waits on events.
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, spinValueVisitor(pass, &sleeps, disqualify))
	}
	if loop.Post != nil {
		ast.Inspect(loop.Post, spinValueVisitor(pass, &sleeps, disqualify))
	}
	ast.Inspect(loop.Body, visit)

	if disqualified || len(sleeps) == 0 || !hasExit {
		return
	}
	pass.Reportf(sleeps[0], "sleep-poll loop: the only wait here is time.Sleep between polls — wake latency is the poll interval and shutdown cannot interrupt it; block on a broadcast channel or sync.Cond instead")
}

// spinValueVisitor inspects an expression subtree in value position.
func spinValueVisitor(pass *Pass, sleeps *[]token.Pos, disqualify func()) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			disqualify()
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				disqualify()
				return false
			}
		case *ast.CallExpr:
			switch classifySpinCall(pass, n, false) {
			case spinSleep:
				*sleeps = append(*sleeps, n.Pos())
			case spinBenign:
			default:
				disqualify()
				return false
			}
		}
		return true
	}
}

type spinCallClass int

const (
	spinBenign spinCallClass = iota
	spinSleep
	spinWork
)

// classifySpinCall decides whether a call keeps a loop in the
// spin-wait shape. Benign: conversions, builtins, time.Now/Since/
// Until, sync/atomic, plain mutex lock/unlock, the invariant helpers,
// and — in value position only — module functions whose
// interprocedural summary cannot block (the poll read itself). A
// module call in STATEMENT position is invoked for its effect: that
// makes the loop a worker with pacing (the group-commit leader's
// shape), not a wait, whatever its summary says. Everything else —
// blocking callees, unresolvable function values, arbitrary work — is
// spinWork and disqualifies the loop.
func classifySpinCall(pass *Pass, call *ast.CallExpr, stmtPos bool) spinCallClass {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return spinBenign // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			return spinBenign
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
			return spinBenign
		}
	}
	fn := calleeOf(pass.Info, call.Fun)
	if fn == nil {
		return spinWork // func value / unresolvable: assume real work
	}
	if desc, isBlocking := blockingCallee(fn); isBlocking {
		if desc == "time.Sleep" {
			return spinSleep
		}
		return spinWork
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return spinWork
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return spinBenign
		}
		return spinWork
	case "sync/atomic":
		return spinBenign
	case "sync":
		// Cond.Wait and WaitGroup.Wait are real waits (Wait is
		// classified blocking above for WaitGroup; Cond deliberately is
		// not, but in a spin loop it still means event-waiting).
		if fn.Name() == "Wait" {
			return spinWork
		}
		return spinBenign
	case "lsvd/internal/invariant":
		return spinBenign
	}
	if isModulePath(pkg.Path()) && pass.IP != nil && !stmtPos {
		if len(pass.IP.AnyBlocking[funcKey(fn)]) == 0 {
			return spinBenign
		}
	}
	return spinWork
}
