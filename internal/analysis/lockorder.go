package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// lockorder builds the module-wide acquired-before graph over the
// //lsvd:lock mutexes and fails on cycles: two code paths taking the
// same pair of locks in opposite orders is a deadlock waiting for the
// right interleaving, and no test reliably produces it. Direct edges
// come from acquisitions with another lock held (including the locks a
// function declares via //lsvd:requires — its callers hold them);
// indirect edges come from the shared interprocedural summaries
// (Acquired[fn][L]: locks acquired while the caller's L is still
// held, propagated bottom-up over the call-graph SCCs and across
// packages, through calls via func-typed fields too), materialized only
// at call sites actually reached with L held — so a helper that takes
// its own private lock does not manufacture edges for callers that
// never hold anything. The walker's lock-drop modeling keeps
// release-then-call-then-reacquire protocols (blockstore header fetch,
// GC writeback) out of the graph.
func newLockorder() *Analyzer {
	return (&lockGraph{edges: make(map[lockEdge]token.Position)}).analyzer()
}

type lockEdge struct{ from, to string }

// lockGraph is lockorder's state: the edges found so far, each at the
// first position that established it, and the call sites made with a
// lock held, whose callees' summaries add edges once every package is
// walked.
type lockGraph struct {
	ip        *Interproc
	edges     map[lockEdge]token.Position
	rootCalls []lockRootCall
}

type lockRootCall struct {
	lock   string
	callee string // Interproc.Funcs key
	pos    token.Position
}

func (g *lockGraph) analyzer() *Analyzer {
	return &Analyzer{
		Name:   "lockorder",
		Doc:    "the acquired-before graph over //lsvd:lock mutexes must be acyclic",
		Run:    g.scan,
		Finish: g.finish,
	}
}

func (g *lockGraph) addEdge(e lockEdge, pos token.Position) {
	if _, ok := g.edges[e]; !ok {
		g.edges[e] = pos
	}
}

func (g *lockGraph) scan(pass *Pass) {
	g.ip = pass.IP
	for fn, fd := range declaredFuncs(pass) {
		walkFunc(pass, fd.Body, g.ip.Requires[funcKey(fn)], flowEvents{
			onAcquire: func(pos token.Pos, lock string, held []string) {
				for _, h := range uniqStrings(held) {
					g.addEdge(lockEdge{h, lock}, pass.Fset.Position(pos))
				}
			},
			onCall: func(pos token.Pos, callee, _ string, held []string) {
				for _, h := range uniqStrings(held) {
					g.rootCalls = append(g.rootCalls, lockRootCall{h, callee, pass.Fset.Position(pos)})
				}
			},
		})
	}
}

func (g *lockGraph) finish(report func(pos token.Position, format string, args ...any)) {
	// Materialize indirect edges only at call sites actually made with
	// the lock held from a normal entry: the summaries carry the
	// transitive acquired-while-held closure.
	for _, rc := range g.rootCalls {
		for acquired := range g.ip.Acquired[rc.callee][rc.lock] {
			g.addEdge(lockEdge{rc.lock, acquired}, rc.pos)
		}
	}

	succ := make(map[string][]string)
	for e := range g.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	reaches := func(from, to string) []string {
		if from == to {
			return []string{from}
		}
		seen := map[string]bool{from: true}
		var dfs func(n string, path []string) []string
		dfs = func(n string, path []string) []string {
			path = append(path, n)
			if n == to {
				return path
			}
			for _, m := range succ[n] {
				if !seen[m] {
					seen[m] = true
					if p := dfs(m, path); p != nil {
						return p
					}
				}
			}
			return nil
		}
		return dfs(from, nil)
	}

	var sorted []lockEdge
	for e := range g.edges {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].from != sorted[j].from {
			return sorted[i].from < sorted[j].from
		}
		return sorted[i].to < sorted[j].to
	})
	for _, e := range sorted {
		if e.from == e.to {
			report(g.edges[e], "lock %s acquired while already held", e.from)
			continue
		}
		if path := reaches(e.to, e.from); path != nil {
			report(g.edges[e], "lock order cycle: %s acquired while holding %s, but the reverse order %s -> %s is also established",
				e.to, e.from, strings.Join(path, " -> "), e.to)
		}
	}
}
