// Package iosched provides a shared backend-concurrency gate with
// per-user minimum shares. A multi-volume host bounds its total upload
// concurrency with ONE budget; a plain counting semaphore over that
// budget lets a single hot volume monopolize every slot and starve its
// neighbors' destage pipelines. The Gate keeps the global bound but
// guarantees each registered user a minimum share of it:
//
//	minShare = max(1, capacity / registeredUsers)
//
// A user below its minimum share is granted a slot whenever one is
// free. A user at or above its share may still borrow idle capacity —
// work conservation — but only while no under-share user is waiting,
// so a starved volume reclaims its guaranteed slots within one release.
//
// The gate, not the runtime, decides who runs: an acquisition that finds
// no slot free waits in one line, and each released slot is handed to
// exactly one waiter, so a release wakes one goroutine, never a crowd.
package iosched

import (
	"slices"
	"sync"

	"lsvd/internal/invariant"
)

// Gate is a capacity-bounded semaphore with per-user minimum shares.
type Gate struct {
	mu    sync.Mutex //lsvd:lock iosched.gate
	cap   int
	held  int
	users map[string]*gateUser

	// bg tracks background-class users (AcquireBackground): no share,
	// and they yield to ANY waiting foreground acquirer.
	bg map[string]*gateUser
	// line holds the acquisitions waiting for a slot, in arrival order;
	// it is empty whenever a slot is free.
	line []*Ticket

	// retired keeps unregistered users' counters for Stats (a
	// re-registered id resumes accumulating on top of them).
	retired map[string]UserStats
}

type gateUser struct {
	held    int
	waiting int
	grants  uint64 // slots granted within the minimum share
	borrows uint64 // slots granted beyond it, from idle capacity
	waits   uint64 // acquisitions that blocked at least once
}

// UserStats reports one registered user's gate activity.
type UserStats struct {
	Held    int
	Grants  uint64 // acquisitions granted within the minimum share
	Borrows uint64 // acquisitions granted beyond it (borrowed idle capacity)
	Waits   uint64 // acquisitions that blocked at least once
}

// Ticket is an acquisition's place in the gate's line (Queue). A nil
// Ticket was granted its slot at once.
type Ticket struct {
	u       *gateUser // nil: an anonymous borrower
	bg      bool
	granted chan struct{}
}

// Wait blocks until the ticket's slot is granted.
func (t *Ticket) Wait() {
	if t != nil {
		<-t.granted
	}
}

// NewGate builds a gate with the given slot capacity (minimum 1).
func NewGate(capacity int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	return &Gate{cap: capacity, users: make(map[string]*gateUser), bg: make(map[string]*gateUser), retired: make(map[string]UserStats)}
}

// Capacity returns the gate's total slot count.
func (g *Gate) Capacity() int { return g.cap }

// Register adds a user to the share computation. Registering an
// existing id is a no-op. Shares shrink as users register: with u
// users each is guaranteed max(1, capacity/u) slots.
func (g *Gate) Register(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.users[id] == nil {
		u := &gateUser{}
		if r, ok := g.retired[id]; ok {
			u.grants, u.borrows, u.waits = r.Grants, r.Borrows, r.Waits
			delete(g.retired, id)
		}
		g.users[id] = u
	}
}

// Unregister removes a user. Its held slots drain naturally through
// Release. Shares grow, but no waiter gains a slot by it: the line is
// empty whenever one is free.
func (g *Gate) Unregister(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.users[id]
	if u == nil {
		return
	}
	if u.waiting != 0 {
		invariant.Failf("iosched: unregistering %q with %d waiters", id, u.waiting)
	}
	g.retired[id] = UserStats{Grants: u.grants, Borrows: u.borrows, Waits: u.waits}
	delete(g.users, id)
}

// minShareLocked is each registered user's guaranteed slot count.
func (g *Gate) minShareLocked() int {
	n := len(g.users)
	if n == 0 {
		return g.cap
	}
	if s := g.cap / n; s > 1 {
		return s
	}
	return 1
}

// Acquire blocks until a slot is granted to id under the share policy.
// Unknown ids acquire as pure borrowers: they have no guaranteed share
// and always yield to starved registered users.
func (g *Gate) Acquire(id string) { g.Queue(id).Wait() }

// Queue takes a free slot for id, or else a place in the line, without
// blocking; the ticket's Wait returns once the slot is id's. What one
// caller queues in order (a block store's uploads) is granted in order.
func (g *Gate) Queue(id string) *Ticket {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queueLocked(g.users[id], false)
}

// AcquireBackground blocks until a slot is granted to the background
// class: only once no foreground acquirer waits. Background users are
// pure scavengers of idle capacity (the GC service and the shipper use
// this so their I/O never displaces a foreground upload).
func (g *Gate) AcquireBackground(id string) {
	g.mu.Lock()
	u := g.bg[id]
	if u == nil {
		u = &gateUser{}
		g.bg[id] = u
	}
	t := g.queueLocked(u, true)
	g.mu.Unlock()
	t.Wait()
}

// queueLocked takes a free slot for u, or puts a ticket for it at the end
// of the line.
func (g *Gate) queueLocked(u *gateUser, bg bool) *Ticket {
	if g.held < g.cap {
		invariant.Assert(len(g.line) == 0, "iosched: a slot is free while acquisitions wait")
		g.takeLocked(u, bg)
		return nil
	}
	t := &Ticket{u: u, bg: bg, granted: make(chan struct{})}
	g.line = append(g.line, t)
	if u != nil {
		u.waiting++
		u.waits++
	}
	return t
}

// takeLocked gives u one slot, counted as a grant within its share or a
// borrow beyond it.
func (g *Gate) takeLocked(u *gateUser, bg bool) {
	g.held++
	if u == nil {
		return
	}
	if !bg && u.held < g.minShareLocked() {
		u.grants++
	} else {
		u.borrows++
	}
	u.held++
}

// Release returns a slot taken by Acquire(id).
func (g *Gate) Release(id string) { g.release(id, false) }

// ReleaseBackground returns a slot taken by AcquireBackground(id).
func (g *Gate) ReleaseBackground(id string) { g.release(id, true) }

// release returns one of id's slots and hands it to one waiter: the
// first in line of the best class, a registered user below its minimum
// share, then any other foreground waiter, then the background class. A
// block store queues its uploads in object order, so within a store the
// grant follows object sequence, and across stores arrival.
func (g *Gate) release(id string, bg bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.users[id]
	if bg {
		u = g.bg[id]
	}
	if g.held <= 0 || u != nil && u.held <= 0 || bg && u == nil {
		invariant.Failf("iosched: %q releasing unheld slot", id)
	}
	g.held--
	if u != nil {
		u.held--
	}
	if len(g.line) == 0 {
		return
	}
	minShare, best := g.minShareLocked(), 0
	class := func(t *Ticket) int {
		if t.bg {
			return 2
		} else if t.u != nil && t.u.held < minShare {
			return 0
		}
		return 1
	}
	for i, t := range g.line {
		if class(t) < class(g.line[best]) {
			best = i
		}
	}
	t := g.line[best]
	g.line = slices.Delete(g.line, best, best+1)
	if t.u != nil {
		t.u.waiting--
	}
	g.takeLocked(t.u, t.bg)
	close(t.granted)
}

// Stats returns the per-user snapshot for id (zero if unregistered).
// Background-class ids (AcquireBackground) are looked up too; their
// grants all count as borrows by construction.
func (g *Gate) Stats(id string) UserStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.users[id]
	if u == nil {
		u = g.bg[id]
	}
	if u == nil {
		return g.retired[id]
	}
	return UserStats{Held: u.held, Grants: u.grants, Borrows: u.borrows, Waits: u.waits}
}
