package blockstore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/iosched"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// Backend schedule explorer (DESIGN.md §11.3, Enumeration). A scripted
// workload keeps several block-store operations in flight at once over
// a recording store whose gate holds every PUT, DELETE and range GET.
// runSchedule releases one held operation at a time, once every goroutine
// has settled, so a run is one order of backend completions: a
// schedule. The default schedule releases the oldest held operation
// first, those that arrived together in label order. A schedule deviates
// from it at most enumBound times, each time releasing a younger
// operation (a preemption, as in CHESS), or failing before it applies
// the super PUT it would release next (once per schedule). Two deletes
// are never swapped: each is legal or not when it is sent
// (deleteOrderViolation), and the reaper takes their results together.
//
// Every distinct backend state of every schedule, cut before each
// completed PUT or DELETE and after the last, is opened and checked
// (enumOpen), and so is every state that open's own PUTs and DELETEs
// leave, released in one order (inOrder). A state whose open loads a
// checkpoint the super does not name is opened again with that open's
// super PUT failing, and written on until an object between the two
// checkpoints dies (owedSuper).

// enumSettle bounds each wait for the goroutines to settle: a schedule
// that takes longer fails.
const enumSettle = 10 * time.Second

// enumBound is the preemption bound: LSVD_FAULT_PREEMPT, else 2.
func enumBound(t *testing.T) int {
	v := os.Getenv("LSVD_FAULT_PREEMPT")
	if v == "" {
		return 2
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		t.Fatalf("LSVD_FAULT_PREEMPT=%q", v)
	}
	return n
}

type enumWrite struct {
	ext  block.Extent
	data []byte
}

// enumSlot is one slot's extent: a whole batch, so a write to it seals
// one object and kills the previous write to the slot whole.
func enumSlot(slot int) block.Extent {
	return block.Extent{LBA: block.LBA(slot) * 64, Sectors: 64}
}

const enumSlots = 6

// enumChoice is one deviation of a schedule from the default: at step,
// release the held operation labelled op, failed before it applies if
// fail, or, if late, failed to its caller and applied when the held
// "put-late" operation it leaves is released (testrec.Store.ReleaseLate).
type enumChoice struct {
	step int
	op   string
	fail bool
	late bool
}

func (c enumChoice) String() string {
	switch {
	case c.fail:
		return fmt.Sprintf("%d fail %s", c.step, c.op)
	case c.late:
		return fmt.Sprintf("%d late %s", c.step, c.op)
	}
	return fmt.Sprintf("%d %s", c.step, c.op)
}

// parseChoices reads a schedule printed by enumChoice.String.
func parseChoices(row []string) ([]enumChoice, error) {
	var sched []enumChoice
	for _, s := range row {
		n, op, _ := strings.Cut(s, " ")
		step, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("choice %q: %v", s, err)
		}
		op, fail := strings.CutPrefix(op, "fail ")
		op, late := strings.CutPrefix(op, "late ")
		sched = append(sched, enumChoice{step, op, fail, late})
	}
	return sched, nil
}

// enumRow prints a schedule as a row of enumRegressions.
func enumRow(sched []enumChoice) string {
	q := make([]string, len(sched))
	for i, c := range sched {
		q[i] = strconv.Quote(c.String())
	}
	return fmt.Sprintf(`{"name", []string{%s}, nil, false, nil},`, strings.Join(q, ", "))
}

// label names a held operation in a schedule; a range GET by its
// offset too.
func label(op testrec.Op) string {
	if op.Kind == testrec.GetRange {
		return fmt.Sprintf("%v@%d", op, op.Off)
	}
	return op.String()
}

// enumRun is one run of the script under one schedule.
type enumRun struct {
	rs      *testrec.Store
	g       *testrec.Gate
	s       *Store
	writes  []enumWrite // write w is writes[w-1]
	snap    int         // writes the snapshot holds
	pending []chan error
	shipMu  sync.Mutex
	unacked []ShipEvent // drained by the shipper, not acked
	shipped chan struct{}
	steps   [][]string // the labels held at each step, in release order by default
	failed  string     // the script's error: a violation
}

// runSchedule runs the script with workload play under sched. Its
// error is its own: a settle that did not come, a script stuck with
// nothing held, or a schedule the run diverged from.
func runSchedule(play func(*enumRun) error, sched []enumChoice) (*enumRun, error) {
	r := &enumRun{rs: testrec.NewStore(objstore.NewMem())}
	r.rs.Keep = true
	r.g = r.rs.Gate(testrec.Kinds(testrec.Put, testrec.Delete, testrec.GetRange))
	done := make(chan error, 1)
	go func() { done <- r.script(play) }()
	arrived := map[*testrec.Held]int{}
	for step := 0; ; {
		if err := testrec.Settle(enumSettle); err != nil {
			r.g.Open()
			return r, err
		}
		var order []*testrec.Held
		var script *testrec.Held
		for _, h := range r.g.Held() {
			if _, ok := arrived[h]; !ok {
				arrived[h] = step
			}
			if h.Kind == testrec.Note && h.Name == "script" {
				script = h
			} else {
				order = append(order, h)
			}
		}
		if script != nil {
			r.g.Release(script, nil) // the script asked to go on once settled
			continue
		}
		if len(order) == 0 {
			select {
			case err := <-done:
				if err != nil {
					r.failed = err.Error()
				}
				if len(sched) > 0 {
					return r, fmt.Errorf("the run ended at step %d, before the deviation %v", step, sched[0])
				}
				return r, nil
			default:
				r.g.Open()
				return r, fmt.Errorf("stuck at step %d: the script waits and nothing is held", step)
			}
		}
		slices.SortStableFunc(order, func(a, b *testrec.Held) int {
			if d := arrived[a] - arrived[b]; d != 0 {
				return d
			}
			return strings.Compare(label(a.Op), label(b.Op))
		})
		labels := make([]string, len(order))
		for i, h := range order {
			labels[i] = label(h.Op)
		}
		r.steps = append(r.steps, labels)
		pick, err := order[0], error(nil)
		if len(sched) > 0 && sched[0].step == step {
			c := sched[0]
			sched = sched[1:]
			i := slices.Index(labels, c.op)
			if i < 0 {
				r.g.Open()
				return r, fmt.Errorf("diverged at step %d: %q is not held, %q are", step, c.op, labels)
			}
			if pick = order[i]; c.fail {
				err = testrec.ErrFault
			}
			if c.late {
				r.rs.ReleaseLate(r.g, pick)
				step++
				continue
			}
		}
		r.g.Release(pick, err)
		step++
	}
}

// sync holds the script until every goroutine has settled.
// runSchedule releases a "script" hold with nil.
func (r *enumRun) sync() { _ = r.g.Hold("script", 0) }

// spawn runs op on an actor goroutine of its own, lets it run until it
// blocks, and returns where its error arrives (wait).
func (r *enumRun) spawn(op func() error) chan error {
	ch := make(chan error, 1)
	go func() { ch <- op() }()
	r.pending = append(r.pending, ch)
	r.sync()
	return ch
}

func (r *enumRun) wait(what string, ch chan error) error {
	r.pending = slices.DeleteFunc(r.pending, func(c chan error) bool { return c == ch })
	if err := <-ch; err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// enumPayloads holds the payloads the schedules write: every schedule
// writes the same ones, and making them afresh for each cost about a
// fifth of the explorer's CPU. The store never writes into an appended
// buffer.
var enumPayloads sync.Map // [2]int64{seed, n} → []byte

func enumPayload(seed int64, n int) []byte {
	key := [2]int64{seed, int64(n)}
	if b, ok := enumPayloads.Load(key); ok {
		return b.([]byte)
	}
	b := payload(seed, n)
	enumPayloads.Store(key, b)
	return b
}

// write appends write w, the next, to ext.
func (r *enumRun) write(ext block.Extent) error {
	w := uint64(len(r.writes) + 1)
	data := enumPayload(int64(1000+w), int(ext.Bytes()))
	r.writes = append(r.writes, enumWrite{ext, data})
	if err := r.s.Append(w, ext, data); err != nil {
		return fmt.Errorf("write %d: %w", w, err)
	}
	return nil
}

// retry runs a fence until it succeeds, at most three times: a schedule
// fails at most two super PUTs, the scripted one and a deviation.
func retry(what string, fence func() error) error {
	var err error
	for range 3 {
		if err = fence(); !errors.Is(err, testrec.ErrFault) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// ship is the replica's shipper. It drains the feed as objects commit,
// but acks only when the script says so (ack): until then the rows it
// has not acked stay pinned.
func (r *enumRun) ship(evs []ShipEvent) {
	defer close(r.shipped)
	for ok := true; ok; evs, ok = r.s.ShipNext() {
		r.shipMu.Lock()
		r.unacked = append(r.unacked, evs...)
		r.shipMu.Unlock()
	}
}

// ack acks every object the shipper has drained, re-driving what the
// shipped watermark pinned.
func (r *enumRun) ack() {
	r.shipMu.Lock()
	evs := r.unacked
	r.unacked = nil
	r.shipMu.Unlock()
	for _, ev := range evs {
		r.s.ShipAck(ev)
	}
}

// script plays the workload and audits the store once it has drained.
// On an error it kills the store; either way it returns only once every
// actor and the shipper have. A workload that ends in a crash leaves no
// store to audit.
func (r *enumRun) script(play func(*enumRun) error) error {
	err := play(r)
	if r.s == nil {
		return err
	}
	if err != nil {
		r.s.ShipClose(false)
		r.s.Abort()
	}
	for _, ch := range r.pending {
		<-ch
	}
	r.s.ShipClose(true)
	<-r.shipped
	if err != nil {
		return err
	}
	s := r.s
	if n := s.Stats().DeferredDeletes; n != 0 {
		return fmt.Errorf("drained with %d deletes owed", n)
	}
	if err := s.AuditUtilization(); err != nil {
		return err
	}
	return tableMismatch(s, r.rs)
}

// play is the workload: a few operations in flight together at a time,
// on a replicated volume whose shipper acks what has committed at the
// end of each paragraph, and once in flight with the rest. One fence
// waits at a time: of two woken by one failed super, the first to run
// fails and its retry re-arms the super, and whether a Checkpoint then
// retries with a marker of its own depends on which ran first, so
// sequence numbers, and with them the schedule's labels, would differ
// from run to run.
//
// The pipeline pairing is no door's (each door's depth is its gate's
// capacity). UploadDepth 1 keeps two sealed objects in flight, and the
// 16-slot gate never holds a PUT, so every PUT the pipeline issues
// reaches the explorer's gate, which alone orders them. Depth 1 with a
// 1-slot gate would queue the second object's PUT in iosched, where the
// explorer could not land it before the first; depth 16 with 16 slots
// would put 32 objects in flight and multiply the schedules.
func (r *enumRun) play() error {
	if err := retry("create", func() (err error) {
		r.s, err = Create(ctx, Config{
			Volume: "vol", Store: r.rs, VolSectors: volSectors,
			BatchBytes: enumSlot(0).Bytes(), UploadDepth: 1, UploadGate: iosched.NewGate(16),
			CheckpointEvery: 4, GCHighWater: 0.99, Retry: objstore.RetryPolicy{MaxAttempts: -1},
			Replicated: true, OnDestage: func(w uint64) { r.rs.Note("destage", int64(w)) },
		})
		return err
	}); err != nil {
		return err
	}
	s := r.s
	r.shipped = make(chan struct{})
	go r.ship(s.ShipAttach())
	writes := func(exts ...block.Extent) error {
		for _, ext := range exts {
			if err := r.write(ext); err != nil {
				return err
			}
		}
		return nil
	}

	// Four objects through the two-object pipeline (the third seal waits
	// for the first to commit), then a fence.
	if err := writes(enumSlot(0), enumSlot(1), enumSlot(2), enumSlot(3)); err != nil {
		return err
	}
	if err := retry("seal", s.Seal); err != nil {
		return err
	}
	r.ack()

	// Half of slot 2 and all of slot 0 are overwritten: the one object
	// becomes a GC victim, the other dies in the replay suffix. Slots 4
	// and 5 are written; the interval's fourth object queues a
	// checkpoint marker. A forced GC pass runs among them.
	if err := writes(block.Extent{LBA: enumSlot(2).LBA, Sectors: 32}, enumSlot(0), enumSlot(4), enumSlot(5)); err != nil {
		return err
	}
	if err := r.wait("gc", r.spawn(s.RunGC)); err != nil {
		return err
	}
	if err := retry("seal", s.Seal); err != nil {
		return err
	}
	r.ack()

	// A checkpoint whose super fails once and is retried, while slot 1's
	// object, below the named checkpoint, is killed, and the shipper's
	// ack of it is in flight.
	r.rs.Fail(testrec.Super.Once(), testrec.ErrFault)
	ckpt := r.spawn(func() error { return retry("checkpoint", s.Checkpoint) })
	if err := writes(enumSlot(1)); err != nil {
		return err
	}
	ship := r.spawn(func() error {
		_ = r.g.Hold("ship-ack", 0) // only super PUTs are released failed
		r.ack()
		return nil
	})
	if err := r.wait("checkpoint", ckpt); err != nil {
		return err
	}
	if err := r.wait("ship", ship); err != nil {
		return err
	}
	r.ack()

	// A snapshot of every slot.
	r.snap = len(r.writes)
	if err := retry("snapshot", func() error { _, err := s.CreateSnapshot("snap"); return err }); err != nil {
		return err
	}
	r.ack()

	// The snapshot is deleted while slot 5 is rewritten. The object that
	// write kills lies below the named checkpoint, and the snapshot the
	// durable super lists reads it until the super that drops it lands.
	drop := r.spawn(func() error { return retry("delete snapshot", func() error { return s.DeleteSnapshot("snap") }) })
	if err := writes(enumSlot(5)); err != nil {
		return err
	}
	if err := r.wait("delete snapshot", drop); err != nil {
		return err
	}
	r.ack()

	// Half of slot 3 is overwritten. A GC pass then reads its object's
	// header and live half with s.mu dropped while the write of the other
	// half kills it below the named checkpoint, so the reaper may delete
	// it under the pass, and the GC object may land behind that write.
	if err := writes(block.Extent{LBA: enumSlot(3).LBA, Sectors: 32}); err != nil {
		return err
	}
	if err := retry("seal", s.Seal); err != nil {
		return err
	}
	r.ack()
	s.mu.Lock()
	clear(s.hdrCache)
	s.mu.Unlock()
	gc := r.spawn(s.RunGC)
	if err := writes(block.Extent{LBA: enumSlot(3).LBA + 32, Sectors: 32}); err != nil {
		return err
	}
	if err := s.SealAsync(); err != nil {
		return err
	}
	if err := r.wait("gc", gc); err != nil {
		return err
	}
	if err := retry("checkpoint", s.Checkpoint); err != nil {
		return err
	}
	r.ack()
	return nil
}

// stalePutAfterList is the workload of a PUT that lands after the
// next open's LIST: a session dies with one object lost before a gap
// and the one behind it, which holds slot 1, still on its way; the next
// session opens, overwrites slot 1 and crashes. The schedule fails the
// first PUT and releases the second late. The workload ends in a crash,
// so it leaves no store for the script to audit.
func stalePutAfterList(r *enumRun) error {
	defer func() {
		if r.s != nil {
			r.s.Abort()
			r.s = nil
		}
	}()
	cfg := Config{ // play's pipeline pairing
		Volume: "vol", Store: r.rs, VolSectors: volSectors,
		BatchBytes: enumSlot(0).Bytes(), UploadDepth: 1, UploadGate: iosched.NewGate(16),
		CheckpointEvery: 1 << 30, Retry: objstore.RetryPolicy{MaxAttempts: -1},
		OnDestage: func(w uint64) { r.rs.Note("destage", int64(w)) },
	}
	var err error
	if r.s, err = Create(ctx, cfg); err != nil {
		return err
	}
	if err := r.write(enumSlot(0)); err != nil {
		return err
	}
	if err := r.s.Seal(); err != nil {
		return err
	}
	for _, slot := range []int{0, 1} {
		if err := r.write(enumSlot(slot)); err != nil {
			return err
		}
	}
	r.s.Abort()
	if r.s, err = Open(ctx, cfg); err != nil {
		return err
	}
	r.writes = r.writes[:r.s.DurableWriteSeq()]
	if err := r.write(enumSlot(1)); err != nil {
		return err
	}
	return r.s.Seal()
}

// landed reports whether op is a PUT or DELETE that completed: a crash
// point precedes it. A failed operation changes nothing.
func landed(op testrec.Op) bool {
	return op.Done && op.Err == nil && (op.Kind == testrec.Put || op.Kind == testrec.Delete)
}

// enumCheck checks crash states, each distinct one once.
type enumCheck struct {
	seen   map[uint64]bool
	points int // distinct crash states checked
	inOpen int // of them, states a check's open left with its own operations
	owed   int // continuations run with the open's super failing
}

func newEnumCheck() *enumCheck { return &enumCheck{seen: map[uint64]bool{}} }

// sum64 is the hash of states and contents: unseeded, so that one set of
// states has one digest in every run.
func sum64(b []byte) uint64 {
	h := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(h[:])
}

// fresh reports whether the state of objects (name → content hash),
// checked with tag, is new.
func (c *enumCheck) fresh(objects map[string]uint64, tag uint64) bool {
	names := make([]string, 0, len(objects))
	for name := range objects {
		names = append(names, name)
	}
	slices.Sort(names)
	var b []byte
	for _, name := range names {
		b = fmt.Appendf(b, "%s %x\n", name, objects[name])
	}
	key := sum64(fmt.Appendf(b, "%x", tag))
	if c.seen[key] {
		return false
	}
	c.seen[key] = true
	return true
}

// digest names the set of states checked, the same in every run that
// checks the same set.
func (c *enumCheck) digest() string {
	keys := make([]uint64, 0, len(c.seen))
	for key := range c.seen {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var b []byte
	for _, key := range keys {
		b = binary.LittleEndian.AppendUint64(b, key)
	}
	return fmt.Sprintf("%016x", sum64(b))
}

// memState hashes mem's objects, as fresh keys them.
func (c *enumCheck) memState(mem *objstore.Mem) map[string]uint64 {
	names, _ := mem.List(ctx, "")
	objects := map[string]uint64{}
	for _, name := range names {
		data, _ := mem.Get(ctx, name)
		objects[name] = c.content(data)
	}
	return objects
}

// content hashes an object's bytes, a checkpoint's table in sequence
// order: the table is a map, so one state encodes it in any order.
func (c *enumCheck) content(data []byte) uint64 {
	h, payload, _, err := journal.Decode(data, false)
	if err != nil || h.Type != journal.TypeCheckpoint {
		return sum64(data)
	}
	p, err := decodeCheckpoint(payload)
	if err != nil {
		return sum64(data)
	}
	slices.SortFunc(p.objects, func(a, b objInfo) int { return cmp.Compare(a.seq, b.seq) })
	slices.SortFunc(p.deferred, func(a, b deferredDelete) int { return cmp.Compare(a.Obj, b.Obj) })
	return sum64(fmt.Append(nil, p.prevCkpt, p.durableWriteSeq, p.nextSeq, p.objects, p.deferred, p.mapBytes))
}

// run checks one run: the script's own audit, the order of its
// deletes, and every distinct crash state. It returns the violations.
func (c *enumCheck) run(r *enumRun) []string {
	var vs []string
	if r.failed != "" {
		vs = append(vs, "script: "+r.failed)
	}
	if v := deleteOrderViolation(r.rs.Log()); v != "" {
		vs = append(vs, v)
	}
	objects := map[string]uint64{}
	var acked uint64 // the destage watermark noted so far
	published := false
	cut := func(stamp uint64) {
		if published && c.fresh(objects, acked) {
			vs = append(vs, c.crash(r, stamp, acked)...)
		}
	}
	for _, op := range r.rs.Log() {
		switch {
		case op.Kind == testrec.Note && op.Name == "destage":
			acked = max(acked, uint64(op.Off))
		case landed(op):
			cut(op.Stamp - 1)
			if op.Kind == testrec.Put {
				objects[op.Name] = c.content(op.Data)
			} else {
				delete(objects, op.Name)
			}
			published = published || op.Name == superName("vol")
		}
	}
	cut(r.rs.Now())
	return vs
}

// crash checks the backend as the run left it at stamp, with writes up
// to acked acknowledged, then every state its open's own operations
// leave; a suffix checkpoint also gets the owed-super continuation.
func (c *enumCheck) crash(r *enumRun, stamp, acked uint64) []string {
	var vs []string
	report := func(what, v string) {
		if v != "" {
			vs = append(vs, fmt.Sprintf("crash at stamp %d%s: %s", stamp, what, v))
		}
	}
	c.points++
	rec := testrec.NewStore(r.rs.At(stamp))
	rec.Keep = true
	var s *Store
	var v string
	if err := inOrder(rec, func() { s, v = enumOpen(rec, r.writes, r.snap, acked) }); err != nil {
		report("", err.Error())
		return vs
	}
	report("", v)
	if s == nil {
		return vs
	}
	for _, op := range rec.Log() {
		if !landed(op) {
			continue
		}
		state := rec.Apply(r.rs.At(stamp), op.Stamp)
		if c.fresh(c.memState(state), acked) {
			c.points++
			c.inOpen++
			_, v := enumOpen(state, r.writes, r.snap, acked)
			report(fmt.Sprintf(", then inside the open at its stamp %d", op.Stamp), v)
		}
	}
	raw, err := r.rs.At(stamp).Get(ctx, superName("vol"))
	super, derr := DecodeSuperInfo(raw)
	switch {
	case err != nil || derr != nil:
		report("", fmt.Sprintf("super: %v %v", err, derr))
	case s.lastCkpt != super.LastCheckpoint:
		report(", open's super failing", c.owedSuper(r, stamp, acked))
	}
	return vs
}

// owedSuper opens the state at stamp, whose open loads a checkpoint
// from the replay suffix, with the super PUT that open owes failing. The
// durable super then still names the older checkpoint. It writes over
// every live sector of a data object between the two, so the object
// dies, and checks each state that leaves: the object must stay until a
// super names a newer checkpoint, for a crash replays through it.
func (c *enumCheck) owedSuper(r *enumRun, stamp, acked uint64) string {
	rec := testrec.NewStore(r.rs.At(stamp))
	rec.Keep = true
	rec.Fail(testrec.Super.Once(), testrec.ErrFault)
	var s *Store
	var err error
	if err := inOrder(rec, func() {
		s, err = Open(ctx, Config{
			Volume: "vol", Store: rec, BatchBytes: enumSlot(0).Bytes(), Retry: objstore.RetryPolicy{MaxAttempts: -1},
			OnDestage: func(w uint64) { rec.Note("destage", int64(w)) },
		})
	}); err != nil {
		return err.Error()
	}
	if err != nil {
		return fmt.Sprintf("open: %v", err)
	}
	if n, _ := rec.Faults(); n != 1 {
		return "the open's super PUT did not fail"
	}
	raw, err := rec.Get(ctx, superName("vol"))
	if err != nil {
		return err.Error()
	}
	super, err := DecodeSuperInfo(raw)
	if err != nil {
		return err.Error()
	}
	named, loaded := super.LastCheckpoint, s.lastCkpt
	var victim uint32
	var exts []block.Extent
	for _, run := range s.Lookup(block.Extent{LBA: 0, Sectors: enumSlots * enumSlot(0).Sectors}) {
		if o := run.Target.Obj; run.Present && named < o && o < loaded && (victim == 0 || o == victim) {
			victim = o
			exts = append(exts, run.Extent)
		}
	}
	if victim == 0 {
		return "" // nothing between the two checkpoints is mapped
	}
	c.owed++
	writes := slices.Clone(r.writes[:s.DurableWriteSeq()])
	var v string
	if err := inOrder(rec, func() {
		for _, ext := range exts {
			w := uint64(len(writes) + 1)
			data := enumPayload(int64(5000+w), int(ext.Bytes()))
			writes = append(writes, enumWrite{ext, data})
			if err := s.Append(w, ext, data); err != nil {
				v = fmt.Sprintf("continuation write %d: %v", w, err)
				return
			}
		}
		if err := s.Seal(); err != nil {
			v = fmt.Sprintf("continuation seal: %v", err)
		}
	}); err != nil {
		return err.Error()
	}
	if v != "" {
		return v
	}
	s.mu.RLock()
	dead := died(s, victim)
	s.mu.RUnlock()
	if !dead {
		return fmt.Sprintf("the continuation did not kill object %d", victim)
	}
	cont := acked
	check := func(at uint64) string {
		state := rec.Apply(r.rs.At(stamp), at)
		if !c.fresh(c.memState(state), cont^1<<63) {
			return ""
		}
		c.points++
		_, v := enumOpen(state, writes, r.snap, cont)
		if v != "" {
			return fmt.Sprintf("continuation killing object %d (checkpoints %d, %d), crash at its stamp %d: %s", victim, named, loaded, at, v)
		}
		return ""
	}
	for _, op := range rec.Log() {
		switch {
		case op.Kind == testrec.Note && op.Name == "destage":
			cont = max(cont, uint64(op.Off))
		case landed(op):
			if v := check(op.Stamp - 1); v != "" {
				return v
			}
		}
	}
	return check(rec.Now())
}

// inOrder runs fn, a check's own open or continuation, with every PUT
// and DELETE of rec held, and releases them one at a time, in label
// order, whenever the program has settled. Open deletes and uploads
// several objects at once; in the order they happened to complete, the
// states they leave, which the checks go on to open, would differ from
// run to run.
func inOrder(rec *testrec.Store, fn func()) error {
	g := rec.Gate(testrec.Kinds(testrec.Put, testrec.Delete))
	defer g.Open()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		if err := testrec.Settle(enumSettle); err != nil {
			return err
		}
		held := g.Held()
		if len(held) == 0 {
			select {
			case <-done:
				return nil
			default:
				return errors.New("a check's open waits and nothing is held")
			}
		}
		g.Release(slices.MinFunc(held, func(a, b *testrec.Held) int { return strings.Compare(label(a.Op), label(b.Op)) }), nil)
	}
}

// enumOpen opens a crashed backend at which writes up to durable had
// been acknowledged, and returns the store and the first violation, or
// "". The volume must read as of the writes it recovered, every snapshot
// the super lists as of the first snap, the backend must hold exactly
// the object table and the utilization audit must pass.
func enumOpen(store objstore.Store, writes []enumWrite, snap int, durable uint64) (*Store, string) {
	s, err := Open(ctx, Config{Volume: "vol", Store: store, Retry: objstore.RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		return nil, fmt.Sprintf("open: %v", err)
	}
	r := s.DurableWriteSeq()
	if r < durable {
		return s, fmt.Sprintf("recovered through write %d, but %d was acknowledged durable", r, durable)
	}
	if v := readsAsOf(s, writes, int(r)); v != "" {
		return s, v
	}
	for _, sn := range s.Snapshots() {
		m, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: store, Retry: objstore.RetryPolicy{MaxAttempts: -1}}, sn.Name)
		if err != nil {
			return s, fmt.Sprintf("snapshot %q: %v", sn.Name, err)
		}
		if v := readsAsOf(m, writes, snap); v != "" {
			return s, fmt.Sprintf("snapshot %q: %s", sn.Name, v)
		}
	}
	if err := tableMismatch(s, store); err != nil {
		return s, err.Error()
	}
	if err := s.AuditUtilization(); err != nil {
		return s, err.Error()
	}
	return s, ""
}

// readsAsOf returns "" if s reads as of the first n writes, else what
// differs.
func readsAsOf(s *Store, writes []enumWrite, n int) string {
	vol := block.Extent{LBA: 0, Sectors: enumSlots * enumSlot(0).Sectors}
	if n > len(writes) {
		return fmt.Sprintf("recovered through write %d of %d", n, len(writes))
	}
	want := make([]byte, vol.Bytes())
	for _, w := range writes[:n] {
		copy(want[w.ext.LBA.Bytes():], w.data)
	}
	got := make([]byte, vol.Bytes())
	for _, run := range s.Lookup(vol) {
		if !run.Present {
			continue
		}
		if err := readRun(s, run, got[run.LBA.Bytes():]); err != nil {
			return fmt.Sprintf("read %v: %v", run.Extent, err)
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("the volume does not read as of write %d", n)
	}
	return ""
}

// enumRegressions are schedules that always run: the interleavings
// hand-placed tests once pinned, and any the explorer finds. saw lists
// log lines that must appear in this order, so the race the row exists
// for happened; owed asks that some crash state ran the owed-super
// continuation. Rows named group/case run as subtests of one group. The
// explorer prints a failing schedule as a row.
type enumRegression struct {
	name  string
	sched []string
	saw   []string
	owed  bool
	play  func(*enumRun) error // nil: the explorer's (*enumRun).play
}

var enumRegressions = []enumRegression{
	// DeleteSnapshot's checkpoint object lands and its super is held
	// while the write behind it commits, killing object 9, which the
	// snapshot reads below the named checkpoint: 9 is deleted only after
	// a super that drops the snapshot lands, and every crash before it
	// mounts the snapshot. In crash-first that super fails first, as if
	// the process died before it landed.
	{"snapshot-drop-owed-super/crash-first", []string{"30 fail put vol.super"}, []string{
		"put-done vol.00000015", "put vol.super", "put-done vol.00000016", "put-failed vol.super", "put-done vol.super", "delete vol.00000009"}, false, nil},
	{"snapshot-drop-owed-super/super-lands", nil, []string{
		"put-done vol.00000015", "put vol.super", "put-done vol.00000016", "put-done vol.super", "delete vol.00000009"}, false, nil},
	// Every crash state whose open loads a checkpoint the super does not
	// name reopens with that open's super failing and kills an object
	// between the two checkpoints.
	{"open-owed-super-fails", nil, nil, true, nil},
	// The GC pass's read of its victim's header, then of its live data,
	// is held while the write of the victim's other half commits and the
	// reaper deletes it: the read finds it gone and the pass goes on.
	{"gc-reads-across-reap/header", []string{"35 put vol.00000018", "36 delete vol.00000005"}, []string{
		"get-range vol.00000005", "put-done vol.00000018", "delete-done vol.00000005", "get-range-failed vol.00000005"}, false, nil},
	{"gc-reads-across-reap/source", []string{"37 delete vol.00000005"}, []string{
		"get-range-done vol.00000005", "get-range vol.00000005", "delete-done vol.00000005", "get-range-failed vol.00000005"}, false, nil},
	// The GC object lands while the data object ahead of it is held: it
	// commits, and its victim dies, only once that upload has.
	{"gc-object-behind-held-upload", []string{"36 get-range vol.00000005@16896", "37 put vol.00000019"}, []string{
		"put vol.00000019", "put-done vol.00000019", "put-done vol.00000018", "delete vol.00000005"}, false, nil},
	// A data object lands while the checkpoint object ahead of it is
	// held: the cut the commit walk's ordering exists for.
	{"data-behind-checkpoint-in-flight", []string{"28 put vol.00000016"}, []string{
		"put vol.00000015", "put-done vol.00000016", "put-done vol.00000015"}, false, nil},
	// A dead session's object past a gap lands after the next open's
	// LIST, behind the object that session then writes over the same
	// block before it crashes: recovery stops at the older epoch.
	{"stale-put-after-list", []string{"3 fail put vol.00000003", "4 late put vol.00000004"}, []string{
		"put-failed vol.00000003", "put-failed vol.00000004", "list vol.", "put-done vol.00000004", "put-done vol.00000003"}, false, stalePutAfterList},
}

// TestBackendCrashEnumeration runs the regression schedules, then
// explores every schedule of the script up to the preemption bound.
// Every crash state of every schedule must open with the acknowledged
// writes, a consistent prefix, every listed snapshot mountable as of its
// writes and a backend that matches its object table.
func TestBackendCrashEnumeration(t *testing.T) {
	t.Run("regression", func(t *testing.T) {
		var groups []string
		for _, row := range enumRegressions {
			if g, _, _ := strings.Cut(row.name, "/"); !slices.Contains(groups, g) {
				groups = append(groups, g)
			}
		}
		for _, g := range groups {
			t.Run(g, func(t *testing.T) {
				for _, row := range enumRegressions {
					if row.name == g {
						regress(t, row)
					} else if c, ok := strings.CutPrefix(row.name, g+"/"); ok {
						t.Run(c, func(t *testing.T) { regress(t, row) })
					}
				}
			})
		}
	})
	t.Run("explore", func(t *testing.T) {
		bound := enumBound(t)
		c := newEnumCheck()
		type job struct {
			sched []enumChoice
			fail  bool // a super PUT is released failed
		}
		stack := []job{{}}
		schedules, violations := 0, 0
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, err := runSchedule((*enumRun).play, j.sched)
			if err != nil {
				t.Fatalf("%s: %v", enumRow(j.sched), err)
			}
			schedules++
			if vs := c.run(r); len(vs) > 0 {
				if violations++; violations <= 3 {
					t.Errorf("%s\n\t%s\nthe newest log entries:\n\t%s", enumRow(j.sched), strings.Join(vs[:min(5, len(vs))], "\n\t"), tail(r.rs.Lines(), 64))
				}
			}
			if len(j.sched) == bound {
				continue
			}
			from := 0
			if n := len(j.sched); n > 0 {
				from = j.sched[n-1].step + 1
			}
			for k := from; k < len(r.steps); k++ {
				for i, op := range r.steps[k] {
					if i > 0 && !(isDelete(op) && isDelete(r.steps[k][0])) {
						stack = append(stack, job{append(slices.Clip(j.sched), enumChoice{step: k, op: op}), j.fail})
					}
					if i == 0 && !j.fail && op == "put "+superName("vol") {
						stack = append(stack, job{append(slices.Clip(j.sched), enumChoice{step: k, op: op, fail: true}), true})
					}
				}
			}
		}
		if c.owed == 0 {
			t.Error("no crash state left a checkpoint the super does not name with an object between the two")
		}
		t.Logf("preemption bound %d: %d schedules, %d distinct crash states (%d inside an open, %d owed-super continuations; digest %s), %d violating schedules",
			bound, schedules, c.points, c.inOpen, c.owed, c.digest(), violations)
	})
}

// regress runs one regression row: its schedule must pass every check,
// and its log must show the race the row exists for.
func regress(t *testing.T, row enumRegression) {
	sched, err := parseChoices(row.sched)
	if err != nil {
		t.Fatal(err)
	}
	play := row.play
	if play == nil {
		play = (*enumRun).play
	}
	r, err := runSchedule(play, sched)
	if err != nil {
		t.Fatalf("%s: %v", enumRow(sched), err)
	}
	c := newEnumCheck()
	if vs := c.run(r); len(vs) > 0 {
		t.Fatalf("%s:\n\t%s\nthe newest log entries:\n\t%s", enumRow(sched), strings.Join(vs[:min(5, len(vs))], "\n\t"), tail(r.rs.Lines(), 64))
	}
	if row.owed && c.owed == 0 {
		t.Fatal("no crash state ran the owed-super continuation")
	}
	lines := r.rs.Lines()
	i := 0
	for _, want := range row.saw {
		for i < len(lines) && lines[i] != want {
			i++
		}
		if i == len(lines) {
			t.Fatalf("the log has no %q after the lines before it: the race did not happen", want)
		}
	}
}

// isDelete reports whether a label is a DELETE's.
func isDelete(op string) bool { return strings.HasPrefix(op, "delete ") }

// tail returns the newest n lines, one per line.
func tail(lines []string, n int) string {
	return strings.Join(lines[max(0, len(lines)-n):], "\n\t")
}
