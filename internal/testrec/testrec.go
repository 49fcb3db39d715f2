// Package testrec records what the code under test does to its backend
// store and its cache device, on one logical clock. A test wraps an
// objstore.Store in a Store and a simdev.Device in a Device: each store
// operation and device write or flush is logged on arrival and on
// completion, stamped from the Clock they share, beside the events the
// test notes itself. By a Match, the test can park, fail or delay any of
// them, or hold them all at a Gate and release them in an order of its
// choosing once the program has settled (Settle), a PUT perhaps failed
// to its caller and applied later (ReleaseLate); it can rebuild the
// store (At) or the device (Image) as of any stamp; and it states
// orderings over the log instead of wall-clock bounds. The backend failure model of DESIGN.md §13 is a set of its
// rules: Fail, or Tear, with ErrFault on the operations a Match picks by
// name, count or seeded chance. Only _test.go files import it.
package testrec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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

// Reproduce logs the newest n entries if t has failed when it ends: the
// reproducer of a torture failure.
func (c *Clock) Reproduce(t testing.TB, n int) {
	t.Cleanup(func() {
		if t.Failed() {
			lines := c.Lines()
			t.Logf("the newest %d log entries:\n\t%s", n, strings.Join(lines[max(0, len(lines)-n):], "\n\t"))
		}
	})
}

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

// Chance narrows m to each operation it matches with probability p,
// drawn from a stream seeded with seed: the same arrivals, in the same
// order, draw the same operations.
func (m Match) Chance(seed int64, p float64) Match {
	rng := rand.New(rand.NewSource(seed))
	return func(op Op) bool { return m(op) && rng.Float64() < p }
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
}

type hook struct {
	match Match
	fn    func(Op) error
}

// Do runs fn before every operation m matches, once its arrival is
// logged. An error from fn fails the operation, which then never reaches
// the wrapped store or device. stop removes the hook.
func (r *recorder) Do(m Match, fn func(Op) error) (stop func()) {
	h := &hook{m, fn}
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
// kept, a torn PUT's prefix always.
func (r *recorder) do(op Op, data [][]byte, call func() error) error {
	op.src = r
	op = r.add(op)
	var fns []func(Op) error
	r.mu.Lock()
	for _, h := range r.hooks {
		if h.match(op) {
			fns = append(fns, h.fn)
		}
	}
	r.mu.Unlock()
	var err error
	op.bufs = data
	for _, fn := range fns {
		if err = fn(op); err != nil {
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
