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
package iosched

import (
	"sync"

	"lsvd/internal/invariant"
)

// Gate is a capacity-bounded semaphore with per-user minimum shares.
type Gate struct {
	mu    sync.Mutex //lsvd:lock iosched.gate
	cond  *sync.Cond
	cap   int
	held  int
	users map[string]*gateUser

	// bg tracks background-class users (AcquireBackground): no
	// guaranteed share, and they yield not just to starved registered
	// users but to ANY blocked foreground acquirer.
	bg map[string]*gateUser
	// fgWaiting counts foreground Acquire calls currently blocked; any
	// nonzero value suspends background grants entirely.
	fgWaiting int

	// retired keeps unregistered users' counters so Stats stays
	// meaningful after a volume closes (a re-registered id resumes
	// accumulating on top of them).
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

// NewGate builds a gate with the given slot capacity (minimum 1).
func NewGate(capacity int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	g := &Gate{cap: capacity, users: make(map[string]*gateUser), bg: make(map[string]*gateUser), retired: make(map[string]UserStats)}
	g.cond = sync.NewCond(&g.mu)
	return g
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
			// Resume the retired counters so an id's totals stay
			// monotonic across close/reopen cycles.
			u.grants, u.borrows, u.waits = r.Grants, r.Borrows, r.Waits
			delete(g.retired, id)
		}
		g.users[id] = u
		// Shares shrank; nobody new can run, no wakeup needed.
	}
}

// Unregister removes a user. Its held slots drain naturally through
// Release; pending Acquires on the id still complete (treated as an
// anonymous borrower). Shares grow, so waiters are re-examined.
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
	g.cond.Broadcast()
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

// starvedWaiterLocked reports whether some registered user is blocked
// below its minimum share — the condition that suspends borrowing.
func (g *Gate) starvedWaiterLocked(minShare int) bool {
	for _, u := range g.users {
		if u.waiting > 0 && u.held < minShare {
			return true
		}
	}
	return false
}

// Acquire blocks until a slot is available to id under the share
// policy, then takes it. Unknown ids acquire as pure borrowers: they
// have no guaranteed share and always yield to starved registered
// users.
func (g *Gate) Acquire(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.users[id]
	if u != nil {
		u.waiting++
	}
	blocked := false
	granted := func() {
		if blocked {
			g.fgWaiting--
			if u != nil {
				u.waits++
			}
		}
	}
	for {
		minShare := g.minShareLocked()
		if g.held < g.cap {
			if u != nil && u.held < minShare {
				// Within the guaranteed share: always runnable.
				g.held++
				u.held++
				u.waiting--
				u.grants++
				granted()
				return
			}
			if !g.starvedWaiterLocked(minShare) {
				// Idle capacity and nobody starved: borrow it.
				g.held++
				if u != nil {
					u.held++
					u.waiting--
					u.borrows++
				}
				granted()
				return
			}
		}
		if !blocked {
			blocked = true
			g.fgWaiting++
		}
		g.cond.Wait()
	}
}

// AcquireBackground blocks until a slot can be granted to the
// background class: only while capacity is idle, no foreground
// acquirer is blocked, and no registered user is starved below its
// share. Background users have no minimum share of their own — they
// are pure scavengers of idle capacity (the GC service uses this so
// its copy I/O never displaces a foreground upload).
func (g *Gate) AcquireBackground(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.bg[id]
	if u == nil {
		u = &gateUser{}
		g.bg[id] = u
	}
	u.waiting++
	blocked := false
	for {
		if g.held < g.cap && g.fgWaiting == 0 && !g.starvedWaiterLocked(g.minShareLocked()) {
			g.held++
			u.held++
			u.waiting--
			u.borrows++
			if blocked {
				u.waits++
			}
			return
		}
		blocked = true
		g.cond.Wait()
	}
}

// ReleaseBackground returns a slot taken by AcquireBackground(id).
func (g *Gate) ReleaseBackground(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.bg[id]
	if g.held <= 0 || u == nil || u.held <= 0 {
		invariant.Failf("iosched: background user %q releasing unheld slot", id)
	}
	g.held--
	u.held--
	g.cond.Broadcast()
}

// Release returns a slot taken by Acquire(id).
func (g *Gate) Release(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.users[id]
	if g.held <= 0 || u != nil && u.held <= 0 {
		invariant.Failf("iosched: user %q releasing unheld slot", id)
	}
	g.held--
	if u != nil {
		u.held--
	}
	g.cond.Broadcast()
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
