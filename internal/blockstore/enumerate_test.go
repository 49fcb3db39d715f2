package blockstore

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/consistency"
	"lsvd/internal/iosched"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// Backend schedule explorer (DESIGN.md §11.3, Enumeration). A scripted
// workload keeps several block-store operations in flight at once over
// a recording store whose gate holds every PUT, DELETE and range GET,
// and testrec.Explore runs it under every schedule within enumBound
// deviations (enumBranch); at every settled step the live store passes
// its audit (enumRun.audit). Every distinct backend state of every
// schedule, at each crash point, is opened and checked (enumOpen), and
// so is every state that open's own PUTs and DELETEs leave (inOrder),
// and, for one whose open loads a checkpoint the super does not name,
// every state of a continuation with that open's super failing
// (owedSuper). The workload writes a consistency.Writer's stamped
// blocks (volume).

// enumBound is the preemption bound: LSVD_FAULT_PREEMPT, else 3.
func enumBound(t *testing.T) int {
	n, err := strconv.Atoi(cmp.Or(os.Getenv("LSVD_FAULT_PREEMPT"), "3"))
	if err != nil || n < 0 {
		t.Fatalf("LSVD_FAULT_PREEMPT: %v", err)
	}
	return n
}

// enumSlot is one slot's extent: a whole batch, so a write to it seals
// one object and kills the previous write to the slot whole.
func enumSlot(slot int) block.Extent {
	return block.Extent{LBA: block.LBA(slot) * 64, Sectors: 64}
}

const enumSlots = 6

// enumRun is one run of the script under one schedule.
type enumRun struct {
	*testrec.Script
	rs      *testrec.Store
	mem     *objstore.Mem // rs's backend, which the audit reads unlogged
	names   []string      // objName("vol", seq) by seq, for the audit
	s       *Store
	live    atomic.Pointer[Store] // s while it runs, for the audit
	w       *consistency.Writer
	vol     *volume // w's disk
	snap    uint64  // the Writer's version the snapshot holds
	shipMu  sync.Mutex
	unacked []ShipEvent // drained by the shipper, not acked
	shipped chan struct{}
}

// runSchedule runs the script with workload play under sched.
func runSchedule(play func(*enumRun) error, sched []testrec.Choice) (*enumRun, *testrec.Schedule, error) {
	r := &enumRun{mem: objstore.NewMem(), vol: &volume{versions: []uint64{0}}}
	r.rs = testrec.NewStore(r.mem)
	r.rs.Keep = true
	r.Script = testrec.NewScript(r.rs.Clock)
	r.rs.Join(r.Gate, testrec.Kinds(testrec.Put, testrec.Delete, testrec.GetRange))
	r.Audit = r.audit
	r.w, _ = consistency.NewWriter(r.vol)
	r.vol.w = r.w
	s, err := r.Run(func() error { return r.script(play) }, sched, nil)
	return r, s, err
}

// open makes s the store the script writes and the audit reads.
func (r *enumRun) open(s *Store) {
	r.s, r.vol.s = s, s
	r.live.Store(s)
}

// crash kills the store, if there is one.
func (r *enumRun) crash() {
	if r.s != nil {
		r.live.Store(nil)
		r.s.Abort()
		r.open(nil)
	}
}

// audit checks the live store at a settled step: its utilization audit,
// and that each row of its table but one being deleted names an object
// the backend holds.
func (r *enumRun) audit() error {
	s := r.live.Load()
	if s == nil {
		return nil
	}
	if err := s.AuditUtilization(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for seq, o := range s.objects {
		for int(seq) >= len(r.names) { // formatting a name at every step was most of the audit's cost
			r.names = append(r.names, objName("vol", uint32(len(r.names))))
		}
		if _, err := r.mem.Size(ctx, r.names[seq]); err != nil && o.state != stateReaping {
			return fmt.Errorf("the table's %v row %d names no object: %w", o.state, seq, err)
		}
	}
	return nil
}

// volume is a Store as a consistency.Writer's disk. Its writes take the
// store's write sequence numbers in order: after a crash they go on
// from the last one recovered, as the core's do, while the Writer's
// versions never repeat. versions[n] is the version of write n, and
// versions[0] is 0.
type volume struct {
	s        *Store
	w        *consistency.Writer
	versions []uint64
}

// resume goes on after an open that recovered through write n: the
// next write is n+1, and the Writer forgets the writes lost.
func (v *volume) resume(n uint64) {
	v.w.Prune(v.versions[n])
	v.versions = v.versions[:n+1]
}

func (v *volume) Size() int64           { return volSectors.Bytes() }
func (v *volume) Flush() error          { return nil }
func (v *volume) Trim(_, _ int64) error { return nil }

func (v *volume) WriteAt(p []byte, off int64) error {
	v.versions = append(v.versions, v.w.Version())
	return v.s.Append(uint64(len(v.versions)-1), block.Extent{LBA: block.LBA(off >> block.SectorShift), Sectors: uint32(len(p) >> block.SectorShift)}, p)
}

func (v *volume) ReadAt(p []byte, off int64) error {
	ext := block.Extent{LBA: block.LBA(off >> block.SectorShift), Sectors: uint32(len(p) >> block.SectorShift)}
	clear(p)
	for _, run := range v.s.Lookup(ext) {
		if run.Present {
			if err := readRun(v.s, run, p[(run.LBA-ext.LBA).Bytes():]); err != nil {
				return fmt.Errorf("read %v: %w", run.Extent, err)
			}
		}
	}
	return nil
}

// write appends the next write to ext.
func (r *enumRun) write(ext block.Extent) error {
	if err := r.w.Write(int64(ext.LBA/8), int(ext.Sectors/8)); err != nil {
		return fmt.Errorf("write %d: %w", len(r.vol.versions)-1, err)
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
		r.live.Store(nil)
		r.s.Abort()
	}
	r.Drain()
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
	if err := retry("create", func() error {
		s, err := Create(ctx, Config{
			Volume: "vol", Store: r.rs, VolSectors: volSectors,
			BatchBytes: enumSlot(0).Bytes(), UploadDepth: 1, UploadGate: iosched.NewGate(16),
			CheckpointEvery: 4, GCHighWater: 0.99,
			Replicated: true, OnDestage: func(w uint64) { r.rs.Note("destage", int64(w)) },
		})
		r.open(s)
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
	if err := r.Wait("gc", r.Spawn(s.RunGC)); err != nil {
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
	ckpt := r.Spawn(func() error { return retry("checkpoint", s.Checkpoint) })
	if err := writes(enumSlot(1)); err != nil {
		return err
	}
	ship := r.Spawn(func() error {
		_ = r.Hold("ship-ack", 0) // only super PUTs are released failed
		r.ack()
		return nil
	})
	if err := r.Wait("checkpoint", ckpt); err != nil {
		return err
	}
	if err := r.Wait("ship", ship); err != nil {
		return err
	}
	r.ack()

	// A snapshot of every slot.
	r.snap = r.w.Version()
	if err := retry("snapshot", func() error { _, err := s.CreateSnapshot("snap"); return err }); err != nil {
		return err
	}
	r.ack()

	// The snapshot is deleted while slot 5 is rewritten. The object that
	// write kills lies below the named checkpoint, and the snapshot the
	// durable super lists reads it until the super that drops it lands.
	drop := r.Spawn(func() error { return retry("delete snapshot", func() error { return s.DeleteSnapshot("snap") }) })
	if err := writes(enumSlot(5)); err != nil {
		return err
	}
	if err := r.Wait("delete snapshot", drop); err != nil {
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
	gc := r.Spawn(s.RunGC)
	if err := writes(block.Extent{LBA: enumSlot(3).LBA + 32, Sectors: 32}); err != nil {
		return err
	}
	if err := s.SealAsync(); err != nil {
		return err
	}
	if err := r.Wait("gc", gc); err != nil {
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
	defer r.crash()
	cfg := Config{ // play's pipeline pairing
		Volume: "vol", Store: r.rs, VolSectors: volSectors,
		BatchBytes: enumSlot(0).Bytes(), UploadDepth: 1, UploadGate: iosched.NewGate(16),
		CheckpointEvery: 1 << 30,
		OnDestage:       func(w uint64) { r.rs.Note("destage", int64(w)) },
	}
	s, err := Create(ctx, cfg)
	if r.open(s); err != nil {
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
	r.crash()
	s, err = Open(ctx, cfg)
	if r.open(s); err != nil {
		return err
	}
	r.vol.resume(s.DurableWriteSeq())
	if err := r.write(enumSlot(1)); err != nil {
		return err
	}
	return r.s.Seal()
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

// cuts calls fn at each crash point of rec's log with the destage
// watermark noted up to its end, from acked on, and the objects its log
// left (name → content).
func (c *enumCheck) cuts(rec *testrec.Store, acked uint64, fn func(cut testrec.Cut, acked uint64, objects map[string]uint64)) {
	log := rec.Log()
	objects := map[string]uint64{}
	i := 0
	for _, cut := range rec.Cuts(nil) {
		for ; i < int(cut.To); i++ {
			switch op := log[i]; {
			case op.Kind == testrec.Note && op.Name == "destage":
				acked = max(acked, uint64(op.Off))
			case testrec.Lands(op) && op.Kind == testrec.Put:
				objects[op.Name] = c.content(op.Data)
			case testrec.Lands(op):
				delete(objects, op.Name)
			}
		}
		fn(cut, acked, objects)
	}
}

// run checks one run: the order of its deletes, and every distinct crash
// state once a super has landed. It returns the violations.
func (c *enumCheck) run(r *enumRun) []string {
	var vs []string
	if v := deleteOrderViolation(r.rs.Log()); v != "" {
		vs = append(vs, v)
	}
	c.cuts(r.rs, 0, func(cut testrec.Cut, acked uint64, objects map[string]uint64) {
		if _, published := objects[superName("vol")]; published && c.fresh(objects, acked) {
			vs = append(vs, c.crash(r, cut.To, acked)...)
		}
	})
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
	if err := inOrder(rec, func() { s, v = enumOpen(rec, r.vol, r.snap, acked) }); err != nil {
		report("", err.Error())
		return vs
	}
	report("", v)
	if s == nil {
		return vs
	}
	for _, cut := range rec.Cuts(nil)[1:] {
		state := rec.Apply(r.rs.At(stamp), cut.From)
		if c.fresh(c.memState(state), acked) {
			c.points++
			c.inOpen++
			_, v := enumOpen(state, r.vol, r.snap, acked)
			report(fmt.Sprintf(", then inside the open at its stamp %d", cut.From), v)
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
			Volume: "vol", Store: rec, BatchBytes: enumSlot(0).Bytes(),
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
	vol := &volume{s: s, w: r.w.Clone(), versions: slices.Clone(r.vol.versions)}
	vol.resume(s.DurableWriteSeq())
	_ = vol.w.Rebind(vol) // the same size
	var v string
	if err := inOrder(rec, func() {
		for _, ext := range exts {
			if err := vol.w.Write(int64(ext.LBA/8), int(ext.Sectors/8)); err != nil {
				v = fmt.Sprintf("continuation write %d: %v", len(vol.versions)-1, err)
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
	c.cuts(rec, acked, func(cut testrec.Cut, cont uint64, _ map[string]uint64) {
		state := rec.Apply(r.rs.At(stamp), cut.To)
		if v != "" || !c.fresh(c.memState(state), cont^1<<63) {
			return
		}
		c.points++
		if _, v = enumOpen(state, vol, r.snap, cont); v != "" {
			v = fmt.Sprintf("continuation killing object %d (checkpoints %d, %d), crash at its stamp %d: %s", victim, named, loaded, cut.To, v)
		}
	})
	return v
}

// inOrder runs fn, a check's own open or continuation, with every PUT
// and DELETE of rec held, and releases them one at a time, in label
// order, whenever the program has settled. Open deletes and uploads
// several objects at once; in the order they happened to complete, the
// states they leave, which the checks go on to open, would differ from
// run to run.
func inOrder(rec *testrec.Store, fn func()) error {
	sc := testrec.NewScript(rec.Clock)
	rec.Join(sc.Gate, testrec.Kinds(testrec.Put, testrec.Delete))
	defer sc.Open()
	_, err := sc.Run(func() error { fn(); return nil }, nil, func(step int, held []*testrec.Held) *testrec.Choice {
		return &testrec.Choice{Step: step, Op: slices.MinFunc(held, func(a, b *testrec.Held) int { return strings.Compare(a.Label, b.Label) }).Label}
	})
	return err
}

// enumOpen opens a crashed backend of vol at which writes up to durable
// had been acknowledged, and returns the store and the first violation,
// or "". The volume must read as of the writes it recovered, every
// snapshot the super lists as of version snap, the backend must hold
// exactly the object table and the utilization audit must pass.
func enumOpen(store objstore.Store, vol *volume, snap, durable uint64) (*Store, string) {
	s, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		return nil, fmt.Sprintf("open: %v", err)
	}
	r := s.DurableWriteSeq()
	if r < durable {
		return s, fmt.Sprintf("recovered through write %d, but %d was acknowledged durable", r, durable)
	}
	if r >= uint64(len(vol.versions)) {
		return s, fmt.Sprintf("recovered through write %d of %d", r, len(vol.versions)-1)
	}
	if v := readsAsOf(s, vol.w, vol.versions[r]); v != "" {
		return s, v
	}
	for _, sn := range s.Snapshots() {
		m, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: store}, sn.Name)
		if err != nil {
			return s, fmt.Sprintf("snapshot %q: %v", sn.Name, err)
		}
		if v := readsAsOf(m, vol.w, snap); v != "" {
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

// readsAsOf returns "" if s reads as the prefix of w's writes through
// version n (consistency.Writer.Check, which reads every byte), else
// what differs.
func readsAsOf(s *Store, w *consistency.Writer, n uint64) string {
	rep, err := w.Check(&volume{s: s})
	switch {
	case err != nil:
		return err.Error()
	case !rep.Mountable:
		return "not a prefix of the writes: " + strings.Join(rep.Violations, "; ")
	case rep.RecoveredVersion != n:
		return fmt.Sprintf("the volume reads as of version %d, not %d", rep.RecoveredVersion, n)
	}
	return ""
}

// mustRow reads a row as a failing schedule prints it.
func mustRow(s string) testrec.Row {
	r, err := testrec.ParseRow(s)
	if err != nil {
		panic(err)
	}
	return r
}

// enumRegressions are schedules that always run: the interleavings
// hand-placed tests once pinned, and any the explorer finds. saw lists
// log lines that must appear in this order, so the race the row exists
// for happened; owed asks that some crash state ran the owed-super
// continuation. Rows named group/case run as subtests of one group. The
// explorer prints a failing schedule as a row.
type enumRegression struct {
	testrec.Row
	saw  []string
	owed bool
	play func(*enumRun) error // nil: the explorer's (*enumRun).play
}

var enumRegressions = []enumRegression{
	// DeleteSnapshot's checkpoint object lands and its super is held
	// while the write behind it commits, killing object 9, which the
	// snapshot reads below the named checkpoint: 9 is deleted only after
	// a super that drops the snapshot lands, and every crash before it
	// mounts the snapshot. In crash-first that super fails first, as if
	// the process died before it landed.
	{mustRow(`{"snapshot-drop-owed-super/crash-first", 0, []string{"30 fail put vol.super"}}`), []string{
		"put-done vol.00000015", "put vol.super", "put-done vol.00000016", "put-failed vol.super", "put-done vol.super", "delete vol.00000009"}, false, nil},
	{mustRow(`{"snapshot-drop-owed-super/super-lands", 0, []string{}}`), []string{
		"put-done vol.00000015", "put vol.super", "put-done vol.00000016", "put-done vol.super", "delete vol.00000009"}, false, nil},
	// Every crash state whose open loads a checkpoint the super does not
	// name reopens with that open's super failing and kills an object
	// between the two checkpoints.
	{mustRow(`{"open-owed-super-fails", 0, []string{}}`), nil, true, nil},
	// The GC pass's read of its victim's header, then of its live data,
	// is held while the write of the victim's other half commits and the
	// reaper deletes it: the read finds it gone and the pass goes on.
	{mustRow(`{"gc-reads-across-reap/header", 0, []string{"35 put vol.00000018", "36 delete vol.00000005"}}`), []string{
		"get-range vol.00000005", "put-done vol.00000018", "delete-done vol.00000005", "get-range-failed vol.00000005"}, false, nil},
	{mustRow(`{"gc-reads-across-reap/source", 0, []string{"37 delete vol.00000005"}}`), []string{
		"get-range-done vol.00000005", "get-range vol.00000005", "delete-done vol.00000005", "get-range-failed vol.00000005"}, false, nil},
	// The GC object lands while the data object ahead of it is held: it
	// commits, and its victim dies, only once that upload has.
	{mustRow(`{"gc-object-behind-held-upload", 0, []string{"36 get-range vol.00000005@16896", "37 put vol.00000019"}}`), []string{
		"put vol.00000019", "put-done vol.00000019", "put-done vol.00000018", "delete vol.00000005"}, false, nil},
	// A data object lands while the checkpoint object ahead of it is
	// held: the cut the commit walk's ordering exists for.
	{mustRow(`{"data-behind-checkpoint-in-flight", 0, []string{"28 put vol.00000016"}}`), []string{
		"put vol.00000015", "put-done vol.00000016", "put-done vol.00000015"}, false, nil},
	// A dead session's object past a gap lands after the next open's
	// LIST, behind the object that session then writes over the same
	// block before it crashes: recovery stops at the older epoch.
	{mustRow(`{"stale-put-after-list", 0, []string{"3 fail put vol.00000003", "4 late put vol.00000004"}}`), []string{
		"put-failed vol.00000003", "put-failed vol.00000004", "list vol.", "put-done vol.00000004", "put-done vol.00000003"}, false, stalePutAfterList},
}

// TestBackendCrashEnumeration runs the regression schedules, then
// explores every schedule of the script up to the preemption bound.
// Every crash state of every schedule must open with the acknowledged
// writes, a consistent prefix, every listed snapshot mountable as of its
// writes and a backend that matches its object table.
func TestBackendCrashEnumeration(t *testing.T) {
	// The checks' own opens settle faster on one P too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Run("regression", func(t *testing.T) {
		var groups []string
		for _, row := range enumRegressions {
			if g, _, _ := strings.Cut(row.Name, "/"); !slices.Contains(groups, g) {
				groups = append(groups, g)
			}
		}
		for _, g := range groups {
			t.Run(g, func(t *testing.T) {
				for _, row := range enumRegressions {
					if row.Name == g {
						regress(t, row)
					} else if c, ok := strings.CutPrefix(row.Name, g+"/"); ok {
						t.Run(c, func(t *testing.T) { regress(t, row) })
					}
				}
			})
		}
	})
	t.Run("explore", func(t *testing.T) {
		row, replay := testrec.Replay(t)
		bound := enumBound(t)
		if replay {
			bound = len(row.Choices)
		}
		row.Name = t.Name()
		c := newEnumCheck()
		schedules, violating := testrec.Explore(t, row, bound, enumBranch, func(sched []testrec.Choice) (*testrec.Schedule, error) {
			r, s, err := runSchedule((*enumRun).play, sched)
			if err == nil {
				s.Violations = c.run(r)
			}
			return s, err
		})
		if c.owed == 0 && !replay {
			t.Error("no crash state left a checkpoint the super does not name with an object between the two")
		}
		t.Logf("preemption bound %d: %d schedules, %d distinct crash states (%d inside an open, %d owed-super continuations; digest %s), %d violating schedules",
			bound, schedules, c.points, c.inOpen, c.owed, c.digest(), violating)
	})
}

// enumBranch is the explorer's branch: a preemption, as in CHESS
// (Musuvathi et al., OSDI 2008), releasing any younger operation, and,
// once a schedule, the super PUT the default releases, failed. Two
// deletes are never swapped: each is legal or not when it is sent
// (deleteOrderViolation), and the reaper takes their results together.
func enumBranch(sched []testrec.Choice, step int, labels []string) []testrec.Choice {
	var cs []testrec.Choice
	if labels[0] == "put "+superName("vol") && !slices.ContainsFunc(sched, func(c testrec.Choice) bool { return c.Fail }) {
		cs = append(cs, testrec.Choice{Step: step, Op: labels[0], Fail: true})
	}
	for _, op := range labels[1:] {
		if !isDelete(op) || !isDelete(labels[0]) {
			cs = append(cs, testrec.Choice{Step: step, Op: op})
		}
	}
	return cs
}

// regress runs one regression row: its schedule must pass every check,
// and its log must show the race the row exists for.
func regress(t *testing.T, row enumRegression) {
	play := row.play
	if play == nil {
		play = (*enumRun).play
	}
	var r *enumRun
	c := newEnumCheck()
	named := row.Row
	named.Name = t.Name()
	if _, failed := testrec.Explore(t, named, len(row.Choices), nil, func(sched []testrec.Choice) (*testrec.Schedule, error) {
		var s *testrec.Schedule
		var err error
		if r, s, err = runSchedule(play, sched); err == nil {
			s.Violations = c.run(r)
		}
		return s, err
	}); failed > 0 {
		t.FailNow()
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
