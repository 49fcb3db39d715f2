package testrec

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Gate holds every operation its Match picks, and every Hold of the
// test's own, until the test releases it. It is the scheduler of a
// schedule explorer: one scheduling goroutine waits for the program to
// settle (Settle), picks one held operation and releases it, and
// repeats, so the order it picks is the order the operations complete
// in, and one run is one schedule.
type Gate struct {
	c    *Clock
	stop func()

	mu   sync.Mutex
	held []*Held // in arrival order
	open bool
}

// Held is an operation a Gate holds, as logged on arrival.
type Held struct {
	Op
	out chan error
}

// Gate holds every operation m matches from now on; the hooks added
// after it run once the gate has released the operation.
func (r *recorder) Gate(m Match) *Gate {
	g := &Gate{c: r.Clock}
	g.stop = r.Do(m, g.wait)
	return g
}

func (g *Gate) wait(op Op) error {
	h := &Held{Op: op, out: make(chan error, 1)}
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return nil
	}
	g.held = append(g.held, h)
	g.mu.Unlock()
	return <-h.out
}

// Hold logs a note, label v, and holds the calling goroutine as an
// operation of the note's until it is released, with the error it is
// released with.
func (g *Gate) Hold(label string, v int64) error {
	return g.wait(g.c.add(Op{Kind: Note, Name: label, Off: v}))
}

// Held returns the operations the gate holds, in arrival order.
func (g *Gate) Held() []*Held {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.held)
}

// Release lets h go on with outcome err: nil sends it to the wrapped
// store or device, anything else fails it without reaching it.
func (g *Gate) Release(h *Held, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := slices.Index(g.held, h)
	if i < 0 {
		panic(fmt.Sprintf("testrec: %v is not held", h.Op))
	}
	g.held = slices.Delete(g.held, i, i+1)
	h.out <- err
}

// Open removes the gate: every held operation, and every later one,
// goes on.
func (g *Gate) Open() {
	g.stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = true
	for _, h := range g.held {
		h.out <- nil
	}
	g.held = nil
}

// Settle waits until every goroutine but the caller's is blocked on a
// channel, a lock, a condition variable or a wait group, so that none
// can move before the caller does something. It reads the goroutines'
// states (runtime.Stack), not a quiet period: one that is running,
// runnable, sleeping or in a system call keeps it waiting. A goroutine
// blocked in a select that includes a timer counts as blocked; the
// caller's program must not have one. Settle fails if the program has
// not settled within d.
//
// A dump stops the world and formats every goroutine's stack, so Settle
// takes none while the program visibly moves: while the number of
// goroutines or of recorded operations has changed since it last
// looked. That only saves dumps; the dump alone decides.
func Settle(d time.Duration) error {
	deadline := time.Now().Add(d)
	buf := dumpBufs.Get().(*[]byte)
	defer dumpBufs.Put(buf)
	last := activity()
	for spins := 16; ; spins = min(2*spins, 1024) {
		// Give the program its turns first.
		for range spins {
			runtime.Gosched()
		}
		now := activity()
		if now != last && spins < 1024 && time.Now().Before(deadline) {
			last = now
			continue
		}
		last = now
		n := runtime.Stack(*buf, true)
		if n == len(*buf) {
			*buf = make([]byte, 2*len(*buf))
			continue
		}
		busy := busyGoroutine((*buf)[:n])
		if busy == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("testrec: not settled within %v:\n%s", d, busy)
		}
	}
}

// dumpBufs keeps Settle's dump buffers: a schedule explorer settles tens
// of thousands of times, and a fresh 64 KiB buffer each time was most of
// its garbage.
var dumpBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// recorded counts the operations and notes of every Clock.
var recorded atomic.Uint64

// activity is what Settle watches between dumps: a goroutine that
// starts, exits or records an operation is not settled.
func activity() [2]uint64 { return [2]uint64{uint64(runtime.NumGoroutine()), recorded.Load()} }

// blockedStates are the goroutine states, as a stack dump prints them,
// in which only another goroutine can wake it. "semacquire" is not one:
// the runtime's own semaphores, such as a GC phase's, print it too.
var blockedStates = []string{
	"chan receive", "chan send", "select",
	"sync.Cond.Wait", "sync.Mutex.Lock", "sync.RWMutex.Lock", "sync.RWMutex.RLock", "sync.WaitGroup.Wait",
}

// idleLoops are the runtime's own loops that wait outside blockedStates
// and that nothing of the program's wakes: os/signal's, for a signal in
// a system call, and those of the test binary's CPU profiler and
// execution tracer (-cpuprofile, -trace), which sleep or read between
// samples.
var idleLoops = []string{"os/signal.signal_recv", "runtime/pprof.profileWriter", "runtime/trace.Start.func1"}

// busyGoroutine returns the first goroutine of a dump, after the
// caller's, that is not blocked, or nil.
func busyGoroutine(dump []byte) []byte {
	stanzas := bytes.Split(dump, []byte("\n\n"))
	for _, g := range stanzas[1:] {
		head, _, _ := bytes.Cut(g, []byte("\n"))
		_, state, _ := bytes.Cut(head, []byte(" ["))
		state, _, _ = bytes.Cut(state, []byte("]"))
		state, _, _ = bytes.Cut(state, []byte(","))
		if !slices.Contains(blockedStates, string(state)) && !slices.ContainsFunc(idleLoops, func(f string) bool { return bytes.Contains(g, []byte(f)) }) {
			return g
		}
	}
	return nil
}
