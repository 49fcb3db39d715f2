package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockheld flags operations that can block indefinitely — backend
// store calls, channel sends/receives, selects without default,
// sync.WaitGroup.Wait, time.Sleep — reachable while a //lsvd:lock
// mutex is held. Blocking under such a lock turns one slow backend
// round-trip into a stall of every reader and writer behind the lock,
// which is exactly the serialization the PR-3/PR-4 work removed.
//
// Detection is interprocedural over the whole target set: the shared
// summaries (see interproc.go) record, for each function and annotated
// lock L, the blocking operations reachable while the caller's L is
// still held — modeling lock-drop protocols where the callee releases
// and re-acquires the caller's mutex — propagated bottom-up over the
// call-graph SCCs and across package boundaries. The reporting pass
// walks each function from its entry, holding its declared
// //lsvd:requires locks and nothing else, and fires on three shapes:
//
//   - a direct blocking operation with an annotated lock held;
//   - a call site whose callee's summary blocks under a held lock;
//   - a call site that fails the callee's //lsvd:requires contract —
//     the `fooLocked` helper invoked on a path where the mutex it
//     needs is not statically held, however many frames separate the
//     helper from the missing acquisition.
//
// A waived site carries an //lsvd:ignore annotation with its reason;
// ignored operations also stay out of the summaries, so a waiver at the
// origin covers every caller.
func newLockheld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "no potentially-blocking operation while holding an //lsvd:lock mutex; //lsvd:requires contracts hold at every call site",
	}
	a.Run = func(pass *Pass) {
		ip := pass.IP
		for fn, fd := range declaredFuncs(pass) {
			key := funcKey(fn)
			walkFunc(pass, fd.Body, ip.Requires[key], flowEvents{
				onBlocking: func(pos token.Pos, desc string, held []string) {
					pass.Reportf(pos, "%s while holding %s", desc, strings.Join(uniqStrings(held), ", "))
				},
				onCall: func(pos token.Pos, callee, name string, held []string) {
					heldSet := uniqStrings(held)
					for _, r := range ip.Requires[callee] {
						if !containsStr(heldSet, r) {
							pass.Reportf(pos, "call to %s requires %s held (//lsvd:requires), but it is not held here", name, r)
						}
					}
					for _, l := range heldSet {
						if e, ok := minBlockEntry(ip.Blocking[callee][l]); ok {
							pass.Reportf(pos, "call to %s may block while holding %s: reaches %s at %s",
								name, l, e.desc, pass.Fset.Position(e.pos))
						}
					}
				},
			})
		}
	}
	return a
}

func minBlockEntry(ents map[blockEntry]bool) (blockEntry, bool) {
	var best blockEntry
	found := false
	for e := range ents {
		if !found || e.pos < best.pos {
			best, found = e, true
		}
	}
	return best, found
}

// declaredFuncs maps the package's function objects to their
// declarations (bodies only).
func declaredFuncs(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

func uniqStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
