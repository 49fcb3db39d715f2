package iosched

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/testrec"
)

// settle waits until every goroutine of the test is parked.
func settle(t *testing.T) {
	t.Helper()
	if err := testrec.Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGateBoundsConcurrency: twenty acquirers of a 3-slot gate, each
// holding its slot until told to let go. Once they have all parked,
// exactly three hold; releasing one at a time, and settling after each,
// keeps three holding and never lets a fourth in.
func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(3)
	g.Register("a")
	var cur, max atomic.Int64
	letGo := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Acquire("a")
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			<-letGo
			cur.Add(-1)
			g.Release("a")
		}()
	}
	settle(t)
	if n := cur.Load(); n != 3 {
		t.Fatalf("%d of 20 acquirers hold a 3-slot gate once parked, want 3", n)
	}
	for left := 20; left > 0; left-- {
		letGo <- struct{}{}
		settle(t)
		if n := cur.Load(); n != int64(min(3, left-1)) {
			t.Fatalf("%d hold with %d acquirers left, capacity 3", n, left-1)
		}
	}
	wg.Wait()
	if m := max.Load(); m > 3 {
		t.Fatalf("gate admitted %d concurrent holders, capacity 3", m)
	}
	st := g.Stats("a")
	if st.Grants+st.Borrows != 20 {
		t.Fatalf("grants %d + borrows %d != 20 acquisitions", st.Grants, st.Borrows)
	}
	if st.Held != 0 {
		t.Fatalf("still holding %d after drain", st.Held)
	}
}

func TestGateMinimumShare(t *testing.T) {
	// Capacity 4, two users: each is guaranteed 2 slots. The hog takes
	// all 4 (2 guaranteed + 2 borrowed); the victim must still get a
	// slot as soon as one frees, even though the hog has more queued.
	// The hog queues last: a broadcast readies the waiters in queue
	// order, and the runtime runs the last one readied first, so without
	// the share rule the slot goes to a hog in about 49 runs of 50. Four
	// rounds make that a failure.
	for range 4 {
		minimumShareRound(t)
	}
}

func minimumShareRound(t *testing.T) {
	g := NewGate(4)
	g.Register("hog")
	g.Register("victim")

	for i := 0; i < 4; i++ {
		g.Acquire("hog")
	}
	victimGot := make(chan struct{})
	go func() {
		g.Acquire("victim")
		close(victimGot)
	}()
	settle(t)
	hogGot := make(chan struct{}, 8)
	for i := 0; i < 4; i++ {
		go func() {
			g.Acquire("hog")
			hogGot <- struct{}{}
		}()
	}

	// Once everyone has parked, free exactly one slot; once the waiters
	// have settled again, it must be the victim's.
	settle(t)
	g.Release("hog")
	settle(t)
	select {
	case <-victimGot:
	default:
		t.Fatal("victim starved: released slot went to the over-share hog")
	}
	select {
	case <-hogGot:
		t.Fatal("hog acquired past its share while the victim waited")
	default:
	}
	if st := g.Stats("victim"); st.Grants != 1 || st.Waits != 1 {
		t.Fatalf("victim stats %+v, want 1 grant after 1 wait", st)
	}

	// Drain: victim done, then hog's queued demand proceeds.
	g.Release("victim")
	for i := 0; i < 4; i++ {
		<-hogGot
		g.Release("hog")
	}
	for i := 0; i < 3; i++ {
		g.Release("hog")
	}
}

func TestGateBorrowsIdleCapacity(t *testing.T) {
	// Two registered users but only one active: it may exceed its
	// minimum share (2 of 4) and use the whole gate.
	g := NewGate(4)
	g.Register("busy")
	g.Register("idle")
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		go func() {
			g.Acquire("busy")
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("work conservation failed: idle capacity not borrowed")
		}
	}
	st := g.Stats("busy")
	if st.Borrows == 0 {
		t.Fatalf("stats %+v: expected borrowed slots beyond the share of 2", st)
	}
	for i := 0; i < 4; i++ {
		g.Release("busy")
	}
}

func TestGateUnknownUserBorrows(t *testing.T) {
	g := NewGate(2)
	g.Acquire("anon") // no registration: pure borrower, still bounded
	g.Acquire("anon")
	done := make(chan struct{})
	go func() {
		g.Acquire("anon")
		close(done)
	}()
	settle(t)
	select {
	case <-done:
		t.Fatal("gate exceeded capacity for anonymous users")
	default:
	}
	g.Release("anon")
	<-done
	g.Release("anon")
	g.Release("anon")
}

func TestGateUnregisterGrowsShares(t *testing.T) {
	g := NewGate(4)
	g.Register("a")
	g.Register("b")
	g.Unregister("b")
	if got := g.minShare(); got != 4 {
		t.Fatalf("share after unregister = %d, want full capacity 4", got)
	}
}

// TestGateUnregisterWithWaitersFails: a user is unregistered only with
// no waiters; Unregister with an Acquire of the id blocked fails its
// assert, and succeeds once the waiter has its slot and gives it back.
func TestGateUnregisterWithWaitersFails(t *testing.T) {
	g := NewGate(1)
	g.Register("a")
	g.Acquire("a")
	acquired := make(chan struct{})
	go func() {
		g.Acquire("a")
		close(acquired)
	}()
	settle(t)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "1 waiters") {
				t.Fatalf("Unregister with a waiter: %v, want an invariant failure", r)
			}
		}()
		g.Unregister("a")
	}()
	g.Release("a")
	<-acquired
	g.Release("a")
	g.Unregister("a")
}

// TestGateReleaseOfAnUnheldSlotFails: a release never frees a slot its
// user does not hold, foreground or background; the assert fails it.
func TestGateReleaseOfAnUnheldSlotFails(t *testing.T) {
	g := NewGate(2)
	g.Register("a")
	g.Register("b")
	g.Acquire("b") // another user's slot is not a's to free
	for name, release := range map[string]func(){
		"foreground": func() { g.Release("a") },
		"background": func() { g.ReleaseBackground("gc") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "releasing unheld slot") {
					t.Errorf("%s release of an unheld slot: %v, want an invariant failure", name, r)
				}
			}()
			release()
		}()
	}
	if st := g.Stats("b"); st.Held != 1 {
		t.Fatalf("b holds %d slots after the refused releases", st.Held)
	}
	g.Release("b")
}

func (g *Gate) minShare() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.minShareLocked()
}

// The release asserts are unconditional, so they must cost nothing
// while they hold: a foreground or background acquire/release pair
// allocates nothing.
func TestGateAcquireReleaseAllocatesNothing(t *testing.T) {
	// Ids built at run time, as volume names are: boxing a constant
	// string would not allocate and would hide an escaping argument.
	vol, other, gc := strings.Repeat("a", 2), strings.Repeat("b", 2), strings.Repeat("g", 2)
	g := NewGate(2)
	g.Register(vol)
	g.AcquireBackground(gc) // creates the background user once
	g.ReleaseBackground(gc)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"foreground", func() { g.Acquire(vol); g.Release(vol) }},
		{"borrower", func() { g.Acquire(other); g.Release(other) }},
		{"background", func() { g.AcquireBackground(gc); g.ReleaseBackground(gc) }},
	} {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s acquire/release: %.1f allocs, want 0", c.name, n)
		}
	}
}

// TestGateReleaseWakesOneWaiter: with eight acquirers blocked on a full
// gate, one Release makes exactly one of them runnable: the gate hands
// the slot to one waiter instead of waking them all to race for it.
// Counted from a stack dump taken on one P right after the Release,
// before any woken goroutine has run.
func TestGateReleaseWakesOneWaiter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := NewGate(1)
	g.Register("a")
	g.Acquire("a")
	const waiters = 8
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Acquire("a")
			g.Release("a")
		}()
	}
	settle(t)
	g.Release("a")
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	woken := 0
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(stanza, "iosched.TestGateReleaseWakesOneWaiter.func") && strings.Contains(stanza, "[runnable") {
			woken++
		}
	}
	wg.Wait()
	if woken != 1 {
		t.Fatalf("one Release made %d of %d blocked acquirers runnable, want 1", woken, waiters)
	}
}
