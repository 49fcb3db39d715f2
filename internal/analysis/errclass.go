package analysis

import (
	"go/ast"
	"go/types"
)

// errclass enforces the failure-model contract from PR 2: inside the
// data-path packages, every objstore.Store operation must flow through
// a path that classifies transient-vs-terminal errors — the
// objstore.Retrier wrapper, a struct field annotated
// //lsvd:classifies-errors (the blockstore's Config.Store, wrapped by
// setDefaults), or an enclosing function so annotated because it does
// its own classification (ErrNotFound probes). A raw store call in
// these packages either retries nothing (one transient S3 hiccup fails
// a write) or retries forever (a terminal NoSuchKey loops), and both
// bugs ship silently because the happy path never exercises them.
func newErrclass() *Analyzer {
	scope := map[string]bool{
		"lsvd/internal/core":        true,
		"lsvd/internal/blockstore":  true,
		"lsvd/internal/host":        true,
		"lsvd/internal/consistency": true,
		"lsvd/vettest/errclass":     true, // the golden self-test package
	}
	a := &Analyzer{
		Name: "errclass",
		Doc:  "objstore calls in data-path packages must flow through error classification",
	}
	a.Run = func(pass *Pass) {
		if !scope[pass.Pkg.Path()] {
			return
		}
		for fn, fd := range declaredFuncs(pass) {
			classified := pass.Ann.Classifies[fn]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pass.Info, call.Fun)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != objstorePath {
					return true
				}
				if _, isOp := blockingCallee(callee); !isOp {
					return true
				}
				if classified || receiverClassified(pass, call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"raw objstore.%s call: route it through objstore.Retrier or an //lsvd:classifies-errors path",
					callee.Name())
				return true
			})
		}
	}
	return a
}

// receiverClassified reports whether the call's receiver is a
// classifying path: an objstore.Retrier value, or a selector resolving
// to an //lsvd:classifies-errors field.
func receiverClassified(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if tv, ok := pass.Info.Types[sel.X]; ok && isRetrier(tv.Type) {
		return true
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return pass.Ann.Classifies[pass.Info.Uses[x.Sel]]
	case *ast.Ident:
		return pass.Ann.Classifies[pass.Info.Uses[x]]
	}
	return false
}

func isRetrier(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Retrier" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == objstorePath
}
