package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The interprocedural layer: a module-wide call graph over the loaded
// target packages plus per-function effect summaries, computed
// bottom-up over strongly-connected components. The summaries answer,
// for every function F the module declares:
//
//   - Blocking[F][L]: the potentially-blocking operations reachable
//     from F while the caller's annotated lock L is *still* held —
//     modeling F releasing and re-acquiring the caller's lock (the
//     blockstore's lock-drop protocol), which is why the summary is
//     per-lock rather than a single bit.
//   - Acquired[F][L]: the annotated locks F (transitively) acquires
//     while the caller's L is still held — the edge source for
//     lockorder's acquired-before graph.
//   - AnyBlocking[F]: the blocking operations reachable from F on
//     F's own goroutine with no assumptions about locks. Spawned
//     goroutine bodies are excluded: a function that starts a blocking
//     worker does not itself block.
//   - Requires[F]: the //lsvd:requires contract — locks the caller
//     must hold on entry.
//
// A call through a func-typed struct field (s.cfg.GCBackoff()) reaches
// every function the target set binds to that field, by composite-
// literal key or field assignment: a function literal, a method value
// or a named function (Bound). Bound literals are call-graph nodes of
// their own, summarized like declared functions. Other dynamic calls —
// through a local variable or parameter, a func value passed to another
// function, an interface method — stay unresolved, so no summary flows
// through them (callers must not assume they are pure — consumers that
// need soundness on that front, like spinwait, treat unresolvable calls
// as disqualifying). Function literals that escape or run on their own
// goroutine are walked as independent roots, exactly as in the flow
// walker. Calls into packages outside the analyzed target set resolve
// to empty summaries.
type Interproc struct {
	// Funcs indexes every declared function in the target set by its
	// stable key (types.Func.FullName), and every bound function
	// literal by its position.
	Funcs map[string]*ipFunc
	// Bound[field]: the Funcs keys bound to a func-typed struct field,
	// keyed by fieldKey.
	Bound map[string][]string
	// Requires: declared //lsvd:requires contracts, keyed like Funcs.
	Requires map[string][]string
	// Blocking[fn][lock]: blocking ops reachable while the caller's
	// lock is still held. Includes transitive reach through calls.
	Blocking map[string]map[string]map[blockEntry]bool
	// Acquired[fn][lock]: annotated locks acquired while the caller's
	// lock is still held. Includes transitive reach through calls.
	Acquired map[string]map[string]map[string]bool
	// AnyBlocking[fn]: blocking ops reachable from fn regardless of
	// locks, own-goroutine only. Includes transitive reach.
	AnyBlocking map[string]map[blockEntry]bool
	// Locks: the module-wide annotated lock names.
	Locks []string
	// SCCs: the call-graph components in bottom-up (callee-first)
	// order, for tests and debugging.
	SCCs [][]string
}

// blockEntry is one potentially-blocking operation in a summary.
type blockEntry struct {
	desc string
	pos  token.Pos
}

// ipFunc is one call-graph node.
type ipFunc struct {
	key  string
	body *ast.BlockStmt
	pass *Pass // bare per-package context for walking

	calls   map[string]bool // resolved module callees, own goroutine
	callPos map[string]token.Pos
	touches map[string]bool // locks whose Lock/Unlock the body may manipulate

	// Base facts (direct effects only; never mutated by propagation).
	acquires map[string]bool // locks acquired anywhere in the body
	anyBlock map[blockEntry]bool

	// Propagated facts. anyBlockAll is the transitive closure of
	// anyBlock over calls; it must stay separate from anyBlock because
	// the per-lock views below fall back to the *base* facts for
	// untouched locks — folding transitive entries into that fallback
	// would attribute a callee's blocking to "while L held" even when
	// the callee only reaches it after dropping L.
	anyBlockAll map[blockEntry]bool
	callsHeld   map[string]map[string]bool // lock -> callees invoked while it is held
	blockHeld   map[string]map[blockEntry]bool
	acqHeld     map[string]map[string]bool
}

func funcKey(fn *types.Func) string { return fn.FullName() }

// buildInterproc computes the call graph and effect summaries for the
// target packages. anns is parallel to pkgs.
func buildInterproc(l *Loader, pkgs []*Package, anns []*Annotations) *Interproc {
	ip := &Interproc{
		Funcs:       make(map[string]*ipFunc),
		Bound:       make(map[string][]string),
		Requires:    make(map[string][]string),
		Blocking:    make(map[string]map[string]map[blockEntry]bool),
		Acquired:    make(map[string]map[string]map[string]bool),
		AnyBlocking: make(map[string]map[blockEntry]bool),
	}
	if len(pkgs) > 0 {
		ip.Locks = append([]string(nil), anns[0].Global.LockNames...)
	}

	// Index every declared function and resolve its //lsvd:requires;
	// index every field binding. Both are complete before any walk, which
	// resolves field calls across packages through Bound.
	for i, p := range pkgs {
		pass := &Pass{Fset: l.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info, Ann: anns[i], IP: ip}
		for fn, fd := range declaredFuncs(pass) {
			key := funcKey(fn)
			ip.Funcs[key] = &ipFunc{key: key, body: fd.Body, pass: pass}
			if req := anns[i].Requires[fn]; len(req) > 0 {
				ip.Requires[key] = uniqStrings(req)
			}
		}
		ip.bindFields(pass)
	}

	// Base facts: one unlocked walk per function (call edges, blocking
	// ops, acquisitions, lock-field touches), then one extra walk per
	// (function, lock) pair for the locks the body actually
	// manipulates. For every untouched lock the base facts are exact:
	// a function that never names L cannot release the caller's L, so
	// "while L is held" covers its whole own-goroutine extent.
	for _, f := range ip.Funcs {
		f.calls = make(map[string]bool)
		f.callPos = make(map[string]token.Pos)
		f.acquires = make(map[string]bool)
		f.anyBlock = make(map[blockEntry]bool)
		f.callsHeld = make(map[string]map[string]bool)
		f.blockHeld = make(map[string]map[blockEntry]bool)
		f.acqHeld = make(map[string]map[string]bool)
		f.touches = touchedLocks(f.pass, f.body)

		walkFunc(f.pass, f.body, nil, flowEvents{
			onAnyBlocking: func(pos token.Pos, desc string) {
				f.anyBlock[blockEntry{desc, pos}] = true
			},
			onAnyCall: func(pos token.Pos, callee string) {
				f.calls[callee] = true
				if _, ok := f.callPos[callee]; !ok {
					f.callPos[callee] = pos
				}
			},
			onAcquire: func(pos token.Pos, lock string, held []string) {
				f.acquires[lock] = true
			},
		})

		for lock := range f.touches {
			lock := lock
			ents := make(map[blockEntry]bool)
			calls := make(map[string]bool)
			acq := make(map[string]bool)
			walkFunc(f.pass, f.body, []string{lock}, flowEvents{
				onBlocking: func(pos token.Pos, desc string, held []string) {
					if containsStr(held, lock) {
						ents[blockEntry{desc, pos}] = true
					}
				},
				onCall: func(pos token.Pos, callee, _ string, held []string) {
					if containsStr(held, lock) {
						calls[callee] = true
					}
				},
				onAcquire: func(pos token.Pos, acquired string, held []string) {
					if containsStr(held, lock) {
						acq[acquired] = true
					}
				},
			})
			f.blockHeld[lock] = ents
			f.callsHeld[lock] = calls
			f.acqHeld[lock] = acq
		}
		f.anyBlockAll = cloneEntrySet(f.anyBlock)
	}

	// Bottom-up propagation over the SCC condensation: Tarjan emits
	// components callee-first, so by the time a component is processed
	// every summary it imports from outside the component is final;
	// within a component we iterate to a fixpoint (recursion).
	ip.SCCs = tarjanSCC(ip.Funcs)
	for _, scc := range ip.SCCs {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				f := ip.Funcs[key]
				for callee := range f.calls {
					cf := ip.Funcs[callee]
					if cf == nil {
						continue
					}
					for e := range cf.anyBlockAll {
						if !f.anyBlockAll[e] {
							f.anyBlockAll[e] = true
							changed = true
						}
					}
				}
				for _, lock := range ip.Locks {
					for callee := range f.callsUnder(lock) {
						cf := ip.Funcs[callee]
						if cf == nil {
							continue
						}
						for e := range cf.blockUnder(lock) {
							if !f.ensureBlockHeld(lock)[e] {
								f.ensureBlockHeld(lock)[e] = true
								changed = true
							}
						}
						for acq := range cf.acqUnder(lock) {
							if !f.ensureAcqHeld(lock)[acq] {
								f.ensureAcqHeld(lock)[acq] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}

	// Publish. Untouched locks alias the base maps lazily via the
	// accessors, so materialize the per-lock views for consumers.
	for key, f := range ip.Funcs {
		ip.AnyBlocking[key] = f.anyBlockAll
		bl := make(map[string]map[blockEntry]bool)
		aq := make(map[string]map[string]bool)
		for _, lock := range ip.Locks {
			if ents := f.blockUnder(lock); len(ents) > 0 {
				bl[lock] = ents
			}
			if acq := f.acqUnder(lock); len(acq) > 0 {
				aq[lock] = acq
			}
		}
		ip.Blocking[key] = bl
		ip.Acquired[key] = aq
	}
	return ip
}

// callsUnder returns the callees invoked while the caller's lock is
// still held: the dedicated walk's result for touched locks, all calls
// otherwise.
func (f *ipFunc) callsUnder(lock string) map[string]bool {
	if f.touches[lock] {
		return f.callsHeld[lock]
	}
	return f.calls
}

func (f *ipFunc) blockUnder(lock string) map[blockEntry]bool {
	if f.touches[lock] {
		return f.blockHeld[lock]
	}
	return f.anyBlock
}

func (f *ipFunc) acqUnder(lock string) map[string]bool {
	if f.touches[lock] {
		return f.acqHeld[lock]
	}
	return f.acquires
}

// ensureBlockHeld forces a touched-style private map for the lock so
// propagation never mutates a shared base map through an alias.
func (f *ipFunc) ensureBlockHeld(lock string) map[blockEntry]bool {
	if !f.touches[lock] {
		if f.touches == nil {
			f.touches = make(map[string]bool)
		}
		f.touches[lock] = true
		f.blockHeld[lock] = cloneEntrySet(f.anyBlock)
		f.callsHeld[lock] = cloneStrSet(f.calls)
		f.acqHeld[lock] = cloneStrSet(f.acquires)
	}
	return f.blockHeld[lock]
}

func (f *ipFunc) ensureAcqHeld(lock string) map[string]bool {
	f.ensureBlockHeld(lock)
	return f.acqHeld[lock]
}

func cloneEntrySet(in map[blockEntry]bool) map[blockEntry]bool {
	out := make(map[blockEntry]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func cloneStrSet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// bindFields indexes what a package binds to struct fields, through
// composite-literal keys and field assignments: function literals,
// method values and named functions. A bound literal becomes a
// call-graph node of its own.
func (ip *Interproc) bindFields(pass *Pass) {
	bind := func(field string, v ast.Expr) {
		if field == "" {
			return
		}
		var key string
		if lit, ok := ast.Unparen(v).(*ast.FuncLit); ok {
			key = "func literal at " + pass.Fset.Position(lit.Pos()).String()
			ip.Funcs[key] = &ipFunc{key: key, body: lit.Body, pass: pass}
		} else if fn := calleeOf(pass.Info, v); fn != nil {
			key = funcKey(fn)
		}
		if key != "" && !containsStr(ip.Bound[field], key) {
			ip.Bound[field] = append(ip.Bound[field], key)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							bind(fieldKey(pass.Info.TypeOf(n), id.Name), kv.Value)
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							bind(selectedField(pass.Info, sel), n.Rhs[i])
						}
					}
				}
			}
			return true
		})
	}
}

// fieldKey names a struct field module-wide by its owning named type
// ("lsvd/internal/blockstore.Config.GCBackoff"): every package
// type-checks on its own, so an importer's field object is not the
// declaring package's, but the name is the same. "" when owner is not
// a named type.
func fieldKey(owner types.Type, name string) string {
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	n, ok := owner.(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + name
}

// selectedField returns the fieldKey of a selector naming a field the
// receiver declares itself; "" for any other selector, a field promoted
// from an embedded struct included.
func selectedField(info *types.Info, sel *ast.SelectorExpr) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return ""
	}
	return fieldKey(s.Recv(), sel.Sel.Name)
}

// touchedLocks prescans a body for identifiers resolving to annotated
// mutex fields: the locks whose held-state the body could change. A
// conservative superset — any mention counts.
func touchedLocks(pass *Pass, body *ast.BlockStmt) map[string]bool {
	touched := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if name, ok := pass.Ann.Locks[obj]; ok {
			touched[name] = true
		} else if name, ok := pass.Ann.Global.lockObj(obj); ok {
			touched[name] = true
		}
		return true
	})
	return touched
}

// tarjanSCC computes strongly-connected components of the call graph,
// emitted in bottom-up (callee-first) order. Iterative, so deep call
// chains cannot overflow the stack.
func tarjanSCC(funcs map[string]*ipFunc) [][]string {
	keys := make([]string, 0, len(funcs))
	for k := range funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := make(map[string]int, len(funcs))
	low := make(map[string]int, len(funcs))
	onStack := make(map[string]bool, len(funcs))
	var stack []string
	var sccs [][]string
	next := 0

	succOf := func(k string) []string {
		f := funcs[k]
		out := make([]string, 0, len(f.calls))
		for c := range f.calls {
			if _, ok := funcs[c]; ok {
				out = append(out, c)
			}
		}
		sort.Strings(out)
		return out
	}

	type frame struct {
		key  string
		succ []string
		i    int
	}
	for _, root := range keys {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{key: root, succ: succOf(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			if fr.i < len(fr.succ) {
				s := fr.succ[fr.i]
				fr.i++
				if _, seen := index[s]; !seen {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{key: s, succ: succOf(s)})
				} else if onStack[s] && low[fr.key] > index[s] {
					low[fr.key] = index[s]
				}
				continue
			}
			// Finished fr.key.
			if low[fr.key] == index[fr.key] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == fr.key {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].key
				if low[parent] > low[fr.key] {
					low[parent] = low[fr.key]
				}
			}
		}
	}
	return sccs
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
