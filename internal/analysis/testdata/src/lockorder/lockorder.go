// Package lockorder is the golden self-test for the lockorder
// analyzer: a direct two-lock cycle (a<->b), an indirect cycle closed
// through a call chain (a->c directly, c->a via a helper call), two
// cycles closed through calls via func-typed struct fields (one bound
// to a function literal, one to a method value), a re-acquisition
// self-edge, and a private helper lock that must NOT contribute edges
// because nobody calls it with another lock held.
package lockorder

import "sync"

type pair struct {
	a sync.Mutex //lsvd:lock order.a
	b sync.Mutex //lsvd:lock order.b
	c sync.Mutex //lsvd:lock order.c
}

func (p *pair) abOrder() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock() // want "lock order cycle"
	p.b.Unlock()
}

func (p *pair) baOrder() {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock() // want "lock order cycle"
	p.a.Unlock()
}

func (p *pair) aThenC() {
	p.a.Lock()
	defer p.a.Unlock()
	p.c.Lock() // want "lock order cycle"
	p.c.Unlock()
}

func (p *pair) lockA() {
	p.a.Lock()
	p.a.Unlock()
}

func (p *pair) cThenCallA() {
	p.c.Lock()
	defer p.c.Unlock()
	p.lockA() // want "lock order cycle"
}

// collector calls its hooks with its own lock held, the way the block
// store's GC calls Config.GCBackoff and Config.FetchFromCache under
// bs.mu.
type collector struct {
	mu    sync.Mutex //lsvd:lock order.gc
	poll  func() bool
	fetch func() bool
}

func (g *collector) pass() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.poll() { // want "lock order cycle"
		return
	}
	g.fetch() // want "lock order cycle"
}

type ring struct {
	mu sync.Mutex //lsvd:lock order.ring
}

func (r *ring) busy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return false
}

type cache struct {
	mu sync.Mutex //lsvd:lock order.cache
}

func (c *cache) read() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return true
}

// newCollector binds poll to a literal by composite-literal key and
// fetch to a method value by field assignment.
func newCollector(r *ring, c *cache) *collector {
	g := &collector{poll: func() bool { return r.busy() }}
	g.fetch = c.read
	return g
}

// The reverse orders, each taken directly.
func (r *ring) drainInto(g *collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g.mu.Lock() // want "lock order cycle"
	g.mu.Unlock()
}

func (c *cache) evictFrom(g *collector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g.mu.Lock() // want "lock order cycle"
	g.mu.Unlock()
}

type reentry struct {
	m sync.Mutex //lsvd:lock order.m
}

func (r *reentry) twice() {
	r.m.Lock()
	r.m.Lock() // want "lock order.m acquired while already held"
	r.m.Unlock()
	r.m.Unlock()
}

type inner struct {
	m sync.Mutex //lsvd:lock order.inner
}

// poke takes its private lock; because no caller holds another lock
// across the call, it must not put order.inner into the graph.
func (i *inner) poke() {
	i.m.Lock()
	i.m.Unlock()
}

func useInnerClean(i *inner) {
	i.poke()
}

// dropThenLock releases the caller's lock before taking its own: the
// walker's lock-drop modeling must not record order.b -> order.a here.
func (p *pair) dropThenLock() {
	p.b.Unlock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
}
