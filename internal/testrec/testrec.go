// Package testrec records what the code under test does to its backend
// store and its cache device, on one logical clock. A test wraps an
// objstore.Store in a Store and a simdev.Device in a Device: each
// operation is logged on arrival and on completion, beside the events
// the test notes itself; the Clock is also the product's objstore.Clock,
// so its timers can be held too. By a Match, a test can park, fail or
// tear any operation (the backend failure model of DESIGN.md §13), or
// hold them all at a Gate. On a Gate a Script plays as one schedule,
// which one search explores or samples (search.go). The log rebuilds the
// store (At) or the device (Image) as of any stamp. Only _test.go files
// import it.
package testrec

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"time"

	"lsvd/internal/invariant"
	"lsvd/internal/journal"
)

// Kind is what an operation does.
type Kind string

const (
	// Note is an event the test logged: Name is its label, Off its value.
	Note     Kind = "note"
	Put      Kind = "put"
	Get      Kind = "get"
	GetRange Kind = "get-range"
	Delete   Kind = "delete"
	List     Kind = "list"
	Size     Kind = "size"
	Write    Kind = "write"
	Flush    Kind = "flush"
	// Timer is a timer of the product's (Clock.AfterFunc) that a Gate
	// holds: Name is its name, Off its duration in nanoseconds.
	Timer Kind = "timer"
)

// ErrFault is the error the fault rules fail operations with; Faults
// counts them.
var ErrFault = errors.New("testrec: injected fault")

// Op is one log entry. An operation is logged on arrival and again on
// completion (Done), with the same fields plus Err and the bytes it
// wrote (Data): a completed PUT's or write's when kept, a torn PUT's
// prefix always.
type Op struct {
	Stamp uint64 // position in the log, from 1
	Kind  Kind
	Done  bool
	Name  string       // object name or List prefix; a note's label
	Off   int64        // range or device offset; a note's value
	Len   int64        // bytes written or asked for
	Type  journal.Type // a PUT's header type, 0 when it has none
	Late  bool         // the write of a PUT its caller saw fail (Store.ReleaseLate)
	Err   error
	Data  []byte
	src   *recorder
	bufs  [][]byte // a PUT's or write's bytes, seen by the hooks only
}

// String renders an entry as the ordering tests search for it: "put
// vol.super", "put-done vol.super", "delete-failed vol.00000004",
// "put-torn vol.00000005", "put-late vol.00000006", "destage 12".
func (op Op) String() string {
	switch {
	case op.Kind == Note:
		return fmt.Sprintf("%s %d", op.Name, op.Off)
	case op.Late && !op.Done:
		return string(op.Kind) + "-late " + op.Name
	case op.Done && op.Err != nil && op.Data != nil:
		return string(op.Kind) + "-torn " + op.Name
	case op.Done && op.Err != nil:
		return string(op.Kind) + "-failed " + op.Name
	case op.Done:
		return string(op.Kind) + "-done " + op.Name
	}
	return string(op.Kind) + " " + op.Name
}

// Clock stamps the entries of one log, shared by every Store and Device
// made with it.
type Clock struct {
	mu      sync.Mutex
	log     []Op
	changed chan struct{} // closed, and replaced, at every entry
	timers  *Gate         // the gate that holds the timers, or nil
}

// errStopped releases the goroutine of a held timer that was stopped.
var errStopped = errors.New("testrec: timer stopped")

// AfterFunc implements objstore.Clock, so the product finds it in a
// Store it is given (objstore.ClockOf). A timer runs in real time unless
// a Gate holds the clock's timers (Gate.Timers): then it is logged as an
// operation of Kind Timer, "timer NAME", held, and f runs once the gate
// releases it, logged "timer-done NAME"; stop drops it from the held set.
func (c *Clock) AfterFunc(what string, d time.Duration, f func()) (stop func() bool) {
	c.mu.Lock()
	g := c.timers
	c.mu.Unlock()
	if g == nil {
		return time.AfterFunc(d, f).Stop
	}
	h := g.hold(Op{Kind: Timer, Name: what, Off: int64(d)})
	invariant.Go("testrec-timer", func() {
		if <-h.out == nil {
			op := h.Op
			op.Done = true
			c.add(op)
			f()
		}
	})
	return func() bool { return g.drop(h) }
}

// NewClock returns an empty log.
func NewClock() *Clock { return &Clock{changed: make(chan struct{})} }

func (c *Clock) add(op Op) Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	recorded.Add(1)
	op.Stamp = uint64(len(c.log)) + 1
	c.log = append(c.log, op)
	close(c.changed)
	c.changed = make(chan struct{})
	return op
}

// Note logs an event of the test's, with a value, and returns its stamp.
func (c *Clock) Note(label string, v int64) uint64 {
	return c.add(Op{Kind: Note, Name: label, Off: v}).Stamp
}

// Now returns the stamp of the newest entry, 0 before the first.
func (c *Clock) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint64(len(c.log))
}

// Log returns a copy of the log.
func (c *Clock) Log() []Op { return slices.Clone(c.upTo(^uint64(0))) }

// Lines returns the log, one Op.String per entry.
func (c *Clock) Lines() []string {
	log := c.upTo(^uint64(0))
	lines := make([]string, len(log))
	for i, op := range log {
		lines[i] = op.String()
	}
	return lines
}

// upTo returns the entries stamped up to stamp. Entries are never
// changed once logged, so the caller reads them without the lock.
func (c *Clock) upTo(stamp uint64) []Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log[:min(stamp, uint64(len(c.log)))]
}

// Await reports whether an operation m matches completed, without
// error, after stamp from, waiting for one up to d. m must not count
// (Once, First, After, Every) or draw (Chance): it may see an entry twice.
func (c *Clock) Await(from uint64, m Match, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		c.mu.Lock()
		for ; from < uint64(len(c.log)); from++ {
			if op := c.log[from]; op.Done && op.Err == nil && m(op) {
				c.mu.Unlock()
				return true
			}
		}
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-changed:
		case <-timer.C:
			return false
		}
	}
}

// Match selects operations. A hook calls its Match once for each
// operation that arrives, in arrival order, so a Match may count.
type Match func(Op) bool

// Kinds matches operations of the given kinds.
func Kinds(ks ...Kind) Match { return func(op Op) bool { return slices.Contains(ks, op.Kind) } }

// Matches shared by the tests of several packages.
var (
	Any       = Match(func(Op) bool { return true })
	Puts      = Kinds(Put)
	Deletes   = Kinds(Delete)
	GetRanges = Kinds(GetRange)
	// DataObject, GCObject and CheckpointObject are PUTs of a block
	// store's objects, by their header types.
	DataObject       = Match(func(op Op) bool { return op.Kind == Put && op.Type == journal.TypeData })
	GCObject         = Match(func(op Op) bool { return op.Kind == Put && op.Type == journal.TypeGC })
	CheckpointObject = Match(func(op Op) bool { return op.Kind == Put && op.Type == journal.TypeCheckpoint })
	// Super is a PUT of a volume superblock.
	Super = Match(func(op Op) bool { return op.Kind == Put && strings.HasSuffix(op.Name, ".super") })
	// DataRead is a range GET of object data: object headers start at
	// offset 0, data never does.
	DataRead = Match(func(op Op) bool { return op.Kind == GetRange && op.Off > 0 })
)

// Named narrows m to one object.
func (m Match) Named(name string) Match { return func(op Op) bool { return m(op) && op.Name == name } }

// Prefixed narrows m to names with the prefix.
func (m Match) Prefixed(p string) Match {
	return func(op Op) bool { return m(op) && strings.HasPrefix(op.Name, p) }
}

// Once narrows m to the first operation it matches.
func (m Match) Once() Match { return m.First(1) }

// First narrows m to the first n operations it matches.
func (m Match) First(n int) Match { return m.count(func(i int) bool { return i <= n }) }

// After narrows m to the operations it matches after the first n.
func (m Match) After(n int) Match { return m.count(func(i int) bool { return i > n }) }

// Every narrows m to every nth operation it matches.
func (m Match) Every(n int) Match { return m.count(func(i int) bool { return i%n == 0 }) }

// count narrows m to the operations it matches whose count, from 1, keep
// accepts.
func (m Match) count(keep func(i int) bool) Match {
	i := 0
	return func(op Op) bool {
		if !m(op) {
			return false
		}
		i++
		return keep(i)
	}
}

// Chance narrows m to each operation it matches with probability p. The
// draw is a function of seed and of the operation: its kind, name,
// offset and length, and how many such operations arrived before it. So
// the same operations draw the same in any order of arrival, as when two
// goroutines race to issue theirs.
func (m Match) Chance(seed int64, p float64) Match {
	var mu sync.Mutex
	seen := map[string]uint64{}
	return func(op Op) bool {
		if !m(op) {
			return false
		}
		key := fmt.Sprintf("%s %s %d %d", op.Kind, op.Name, op.Off, op.Len)
		mu.Lock()
		n := seen[key]
		seen[key]++
		mu.Unlock()
		h := fnv.New64a()
		fmt.Fprintf(h, "%d %s %d", seed, key, n)
		return float64(mix64(h.Sum64())>>11)/(1<<53) < p
	}
}

// mix64 is SplitMix64's finalizer: it spreads an FNV hash's few changed
// bits over the whole word.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// recorder is what a Store and a Device share: the clock and the hooks.
type recorder struct {
	*Clock

	// Keep logs the bytes of every completed PUT or write, which At and
	// Image need; a Device always keeps them. Set it before the first
	// operation.
	Keep bool

	mu    sync.Mutex
	hooks []*hook

	store *Store // the Store this is the recorder of, nil for a Device's
}

type hook struct {
	match Match
	fn    func(Op) error
	gate  *Gate // instead of fn: the gate that holds what match picks
}

// Do runs fn before every operation m matches, once its arrival is
// logged. An error from fn fails the operation, which then never reaches
// the wrapped store or device. stop removes the hook.
func (r *recorder) Do(m Match, fn func(Op) error) (stop func()) {
	return r.hook(&hook{match: m, fn: fn})
}

func (r *recorder) hook(h *hook) (stop func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, h)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.hooks = slices.DeleteFunc(r.hooks, func(x *hook) bool { return x == h })
		r.mu.Unlock()
	}
}

// Fail fails every operation m matches with err. stop heals.
func (r *recorder) Fail(m Match, err error) (stop func()) {
	return r.Do(m, func(Op) error { return err })
}

// Faults counts, from the log, this recorder's operations that completed
// with ErrFault, and the torn PUTs among them.
func (r *recorder) Faults() (failed, torn int) {
	for _, op := range r.upTo(^uint64(0)) {
		if op.src == r && op.Done && errors.Is(op.Err, ErrFault) {
			failed++
			if op.Data != nil {
				torn++
			}
		}
	}
	return failed, torn
}

// Park holds every operation m matches until Release.
func (r *recorder) Park(m Match) *Parked {
	p := &Parked{arrived: make(chan Op, parkBuffer), released: make(chan struct{})}
	r.Do(m, p.wait)
	return p
}

// do logs op's arrival; runs the hooks it matches, in the order they
// were added, and then call, unless a hook failed it; and logs its
// completion with the outcome and the bytes it wrote: all of them when
// kept, a torn PUT's prefix always. An operation a Gate holds is logged,
// and stamped, only when the test first sees it held (Gate.Held), so
// operations that arrive together from several goroutines are logged in
// one order; the hooks added before the gate see it unstamped.
func (r *recorder) do(op Op, data [][]byte, call func() error) error {
	op.src = r
	var hs []*hook
	gated := false
	r.mu.Lock()
	for _, h := range r.hooks {
		if h.match(op) {
			hs = append(hs, h)
			gated = gated || h.gate != nil
		}
	}
	r.mu.Unlock()
	if !gated {
		op = r.add(op)
	}
	var err error
	op.bufs = data
	for _, h := range hs {
		if h.gate != nil {
			op, err = h.gate.wait(op)
			op.bufs = data
		} else {
			err = h.fn(op)
		}
		if err != nil {
			break
		}
	}
	op.bufs = nil
	if err == nil {
		err = call()
	}
	op.Done, op.Err = true, err
	var t torn
	switch {
	case err == nil && r.Keep:
		op.Data = bytes.Join(data, nil)
	case errors.As(err, &t):
		op.Data = t
	}
	r.add(op)
	return err
}

// parkBuffer is how many parked operations Arrived holds unread; one
// that finds it full stays parked until the test reads or releases.
const parkBuffer = 64

// Parked holds the operations a Park matches.
type Parked struct {
	arrived  chan Op
	released chan struct{}
	err      error // outcome, set before released closes
}

func (p *Parked) wait(op Op) error {
	select {
	case p.arrived <- op:
	case <-p.released:
	}
	<-p.released
	return p.err
}

// Arrived yields each operation as it parks.
func (p *Parked) Arrived() <-chan Op { return p.arrived }

// Release lets every parked operation, and every later one the park
// matches, go on with outcome err: nil sends it to the wrapped store or
// device, anything else fails it. Call it once.
func (p *Parked) Release(err error) {
	p.err = err
	close(p.released)
}
