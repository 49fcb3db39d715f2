// Package testrec records what the code under test does to its backend
// store and its cache device, on one logical clock. A test wraps an
// objstore.Store in a Store and a simdev.Device in a Device: each store
// operation and device write or flush is logged on arrival and on
// completion, stamped from the Clock they share, beside the events the
// test notes itself. By a Match, the test can park, fail or delay any of
// them; it can rebuild the store (At) or the device (Image) as of any
// stamp; and it states orderings over the log instead of wall-clock
// bounds. Only _test.go files import it.
package testrec

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// Op is one log entry. An operation is logged on arrival and again on
// completion (Done), with the same fields plus Err and, when kept, the
// bytes it wrote (Data).
type Op struct {
	Stamp uint64 // position in the log, from 1
	Kind  Kind
	Done  bool
	Name  string       // object name or List prefix; a note's label
	Off   int64        // range or device offset; a note's value
	Len   int64        // bytes written or asked for
	Type  journal.Type // a PUT's header type, 0 when it has none
	Err   error
	Data  []byte
	src   *recorder
}

// String renders an entry as the ordering tests search for it: "put
// vol.super", "put-done vol.super", "delete-failed vol.00000004",
// "destage 12".
func (op Op) String() string {
	switch {
	case op.Kind == Note:
		return fmt.Sprintf("%s %d", op.Name, op.Off)
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
// (Once, After): it may see an entry twice.
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
func (m Match) Once() Match {
	seen := false
	return func(op Op) bool {
		hit := !seen && m(op)
		seen = seen || hit
		return hit
	}
}

// After narrows m to the operations it matches after the first n.
func (m Match) After(n int) Match {
	return func(op Op) bool {
		hit := m(op)
		if hit {
			n--
		}
		return hit && n < 0
	}
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

// Park holds every operation m matches until Release.
func (r *recorder) Park(m Match) *Parked {
	p := &Parked{arrived: make(chan Op, parkBuffer), released: make(chan struct{})}
	r.Do(m, p.wait)
	return p
}

// do logs op's arrival; runs the hooks it matches, in the order they
// were added, and then call, unless a hook failed it; and logs its
// completion with the outcome and, when kept, the bytes it wrote.
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
	for _, fn := range fns {
		if err = fn(op); err != nil {
			break
		}
	}
	if err == nil {
		err = call()
	}
	op.Done, op.Err = true, err
	if err == nil && r.Keep {
		op.Data = bytes.Join(data, nil)
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
