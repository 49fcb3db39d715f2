package analysis

import (
	"go/token"
	"testing"
)

// TestModuleLockGraph checks the module's acquired-before graph: no
// cycle, and the edges the code is known to take. The GC calls
// Config.GCBackoff and Config.FetchFromCache with bs.mu dropped, for
// the cache's lock may wait for a device write, so the graph has no
// bs.mu -> wcache.mu edge. Each field, resolved through the functions
// bound to it, must still take wcache.mu if called under bs.mu: were
// the resolution lost, a call back under bs.mu would go unseen. core.wmu covers only the
// admission step, whose one nested lock is the ring's.
func TestModuleLockGraph(t *testing.T) {
	loader, pkgs := loadModule(t)
	g := &lockGraph{edges: make(map[lockEdge]token.Position)}
	if diags := Run(loader, pkgs, []*Analyzer{g.analyzer()}); len(diags) > 0 {
		t.Errorf("lockorder findings in the module: %v", diags)
	}
	for _, e := range []lockEdge{
		{"bs.mu", "iosched.gate"},
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
		if e.from == "bs.mu" && e.to == "wcache.mu" {
			t.Errorf("bs.mu nests wcache.mu at %v", pos)
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
