package analysis

import (
	"go/token"
	"testing"
)

// TestModuleLockGraph checks the module's acquired-before graph: no
// cycle, and the edges the code is known to take. The GC calls
// Config.GCBackoff and Config.FetchFromCache under bs.mu, and both
// reach write-cache methods that take wcache.mu: that edge exists only
// through calls via func-typed fields, so it pins their resolution;
// each field must reach wcache.mu on its own. core.wmu covers only the
// admission step, whose one nested lock is the ring's.
func TestModuleLockGraph(t *testing.T) {
	loader, pkgs := loadModule(t)
	g := &lockGraph{edges: make(map[lockEdge]token.Position)}
	if diags := Run(loader, pkgs, []*Analyzer{g.analyzer()}); len(diags) > 0 {
		t.Errorf("lockorder findings in the module: %v", diags)
	}
	for _, e := range []lockEdge{
		{"bs.mu", "iosched.gate"},
		{"bs.mu", "wcache.mu"},
		{"core.wmu", "wcache.mu"},
	} {
		if _, ok := g.edges[e]; !ok {
			t.Errorf("lock graph lacks %s -> %s", e.from, e.to)
		}
	}
	for e, pos := range g.edges {
		if e.from == "core.wmu" && e.to != "wcache.mu" {
			t.Errorf("core.wmu nests %s at %v", e.to, pos)
		}
	}
	for _, field := range []string{"GCBackoff", "FetchFromCache"} {
		key := "lsvd/internal/blockstore.Config." + field
		reached := false
		for _, fn := range g.ip.Bound[key] {
			reached = reached || g.ip.Acquired[fn]["bs.mu"]["wcache.mu"]
		}
		if !reached {
			t.Errorf("no function bound to %s takes wcache.mu (bound: %q)", key, g.ip.Bound[key])
		}
	}
}
