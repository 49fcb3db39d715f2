package blockstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// Backend crash enumeration (ROADMAP item 1d, the backend half): a
// scripted workload runs once over the recording store, and the backend
// is then rebuilt as of every prefix of its completed PUTs and DELETEs
// and opened. Every backend operation that open itself completes is a
// second crash point, after which the volume is opened again.

// enumLag bounds how long a checkpoint object's PUT waits for a data
// object behind it to land first.
const enumLag = 20 * time.Millisecond

// enumScript is the workload: three checkpoint intervals of one-object
// writes over six extents, whose whole-dead objects are released at
// commit below the checkpoint the super names and by the next
// checkpoint above it; a marker whose super fails once and is retried
// by a fence while the object behind it commits; an object the named
// checkpoint's map still points at that dies whole and is deleted at
// once (killBelowNamed); a GC pass that copies a half-dead victim; a
// victim pinned by a snapshot and released by deleting it; and a GC
// object that lands behind a data upload held in flight and commits
// only after it, its victim below the named checkpoint dying and
// deleted only then.
type enumScript struct {
	t      *testing.T
	rs     *testrec.Store
	faulty *objstore.Faulty
	s      *Store
	writes []enumWrite // write w is writes[w-1]
	snap   int         // writes before the snapshot
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

// write appends a write to ext; wait waits for its commit.
func (e *enumScript) write(ext block.Extent, wait bool) {
	e.t.Helper()
	w := uint64(len(e.writes) + 1)
	data := payload(int64(1000+w), int(ext.Bytes()))
	if err := e.s.Append(w, ext, data); err != nil {
		e.t.Fatalf("write %d: %v", w, err)
	}
	e.writes = append(e.writes, enumWrite{ext, data})
	if wait {
		waitDurable(e.t, e.s, w)
	}
}

func (e *enumScript) must(what string, err error) {
	e.t.Helper()
	if err != nil {
		e.t.Fatalf("%s: %v", what, err)
	}
}

func (e *enumScript) run() {
	e.t.Helper()
	e.rs = testrec.NewStore(objstore.NewMem())
	e.rs.Keep = true
	// Every checkpoint object lands after the next data object PUT that
	// completes (or after enumLag when none follows), so the trace always
	// holds a data object that reached the backend behind a checkpoint
	// still in flight — the cut the commit walk's ordering exists for.
	e.rs.Do(testrec.CheckpointObject, func(op testrec.Op) error {
		e.rs.Await(op.Stamp, testrec.DataObject, enumLag)
		return nil
	})
	e.faulty = objstore.NewFaulty(e.rs)
	var err error
	e.s, err = Create(ctx, Config{
		Volume: "vol", Store: e.faulty, VolSectors: volSectors,
		BatchBytes: enumSlot(0).Bytes(), UploadDepth: 4, CheckpointEvery: 4,
		GCHighWater: 0.99, Retry: objstore.RetryPolicy{MaxAttempts: -1},
		OnDestage: func(w uint64) { e.rs.Note("destage", int64(w)) },
	})
	e.must("create", err)

	// First interval: objects 2–5.
	for slot := 0; slot < 4; slot++ {
		e.write(enumSlot(slot), true)
	}
	// Second: the first seal queues marker 6, then slot 0 is rewritten
	// and slot 4 written and rewritten whole; GC cleans both dead
	// objects, 8 newer than the checkpoint the super names.
	e.write(enumSlot(0), true)
	e.write(enumSlot(4), true)
	e.write(enumSlot(4), true)
	e.write(enumSlot(5), true)
	e.must("gc", e.s.RunGC())

	// Third: marker 11's super fails once. The object behind it is not
	// waited for (the parent holds it behind the marker); a fence
	// retries the super.
	e.faulty.FailPuts(superName("vol"), 1)
	e.write(enumSlot(1), false)
	waitFor(e.t, "the failed super", func() bool { return e.faulty.InjectedFaults() == 1 })
	for try := 0; ; try++ {
		err := e.s.Seal()
		if err == nil {
			break
		}
		if try == 2 {
			e.t.Fatalf("the super was not retried: %v", err)
		}
	}
	e.killBelowNamed(2)
	// Half of slot 2 is overwritten: GC copies the other half into a GC
	// object, which queues behind any marker queued.
	e.write(block.Extent{LBA: enumSlot(2).LBA, Sectors: 32}, false)
	e.must("seal", e.s.Seal())
	e.must("gc", e.s.RunGC())

	// A snapshot pins slot 3's object; killing and collecting it parks it
	// on the deferred list until the snapshot goes.
	_, err = e.s.CreateSnapshot("snap")
	e.must("snapshot", err)
	e.snap = len(e.writes)
	e.write(enumSlot(3), true)
	e.must("gc", e.s.RunGC())
	e.write(enumSlot(5), true)
	e.must("checkpoint", e.s.Checkpoint())
	e.must("delete snapshot", e.s.DeleteSnapshot("snap"))
	e.write(enumSlot(0), true)

	// Half of slot 1's object, below the named checkpoint, is
	// overwritten. GC copies the other half while the next data
	// object's PUT is held, so the GC object lands behind an upload in
	// flight: a crash before that upload lands strands it, so it commits,
	// and its victim dies, only once the upload has.
	victim := e.target(enumSlot(1))
	e.write(block.Extent{LBA: enumSlot(1).LBA, Sectors: 32}, false)
	e.must("seal", e.s.Seal())
	held := e.rs.Park(testrec.DataObject.Once())
	e.write(enumSlot(4), false)
	<-held.Arrived()
	from := e.rs.Now()
	gc := make(chan error, 1)
	go func() { gc <- e.s.RunGC() }()
	landed := e.rs.Await(from, testrec.GCObject, 10*time.Second)
	e.s.mu.RLock()
	dead := e.s.cleaned[victim]
	e.s.mu.RUnlock()
	held.Release(nil)
	e.must("gc", <-gc)
	switch {
	case !landed:
		e.t.Fatal("the GC object did not land behind the held upload")
	case dead:
		e.t.Fatalf("GC victim %d died before the upload ahead of its copy committed", victim)
	case !e.rs.Await(from, testrec.Deletes.Named(objName("vol", victim)), 10*time.Second):
		e.t.Fatalf("GC victim %d, below the named checkpoint, was not deleted once its copy committed", victim)
	}
	waitDurable(e.t, e.s, uint64(len(e.writes)))
	e.must("checkpoint", e.s.Checkpoint())

	st := e.s.Stats()
	if st.GCVictims < 2 || st.DeferredDeletes != 0 {
		e.t.Fatalf("script: %d victims, %d deletes owed", st.GCVictims, st.DeferredDeletes)
	}
	e.must("audit", e.s.AuditUtilization())
	e.must("table", tableMismatch(e.s, e.rs))
	if v := deleteOrderViolation(e.rs.Log()); v != "" {
		e.t.Fatalf("script: %s", v)
	}
}

// target returns the object ext's first sector maps to.
func (e *enumScript) target(ext block.Extent) uint32 {
	e.t.Helper()
	runs := e.s.Lookup(block.Extent{LBA: ext.LBA, Sectors: 1})
	if len(runs) != 1 || !runs[0].Present {
		e.t.Fatalf("%v is not mapped", ext)
	}
	return runs[0].Target.Obj
}

// killBelowNamed rewrites slot whole. Its object lies below the
// checkpoint the super names, whose map still points at it, so it dies
// at this commit and its delete lands before the script goes on.
func (e *enumScript) killBelowNamed(slot int) {
	e.t.Helper()
	victim := e.target(enumSlot(slot))
	e.s.mu.RLock()
	named := e.s.lastCkpt
	e.s.mu.RUnlock()
	if victim >= named {
		e.t.Fatalf("slot %d's object %d is not below the named checkpoint %d", slot, victim, named)
	}
	from := e.rs.Now()
	e.write(enumSlot(slot), true)
	if !e.rs.Await(from, testrec.Deletes.Named(objName("vol", victim)), 10*time.Second) {
		e.t.Fatalf("object %d was not deleted when it died", victim)
	}
	e.s.mu.RLock()
	defer e.s.mu.RUnlock()
	if e.s.lastCkpt != named {
		e.t.Fatalf("the named checkpoint moved from %d to %d", named, e.s.lastCkpt)
	}
}

// check opens a crashed backend at which writes up to durable had been
// acknowledged, and returns the store and the first violation, or "".
func (e *enumScript) check(store objstore.Store, durable uint64) (*Store, string) {
	s, err := Open(ctx, Config{Volume: "vol", Store: store, Retry: objstore.RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		return nil, fmt.Sprintf("open: %v", err)
	}
	r := s.DurableWriteSeq()
	if r < durable {
		return s, fmt.Sprintf("recovered through write %d, but %d was acknowledged durable", r, durable)
	}
	// Prefix consistency: the volume reads as of write r.
	if v := e.readsAsOf(s, int(r)); v != "" {
		return s, v
	}
	// Every snapshot the super lists mounts and reads as of its writes.
	for _, sn := range s.Snapshots() {
		m, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: store, Retry: objstore.RetryPolicy{MaxAttempts: -1}}, sn.Name)
		if err != nil {
			return s, fmt.Sprintf("snapshot %q: %v", sn.Name, err)
		}
		if v := e.readsAsOf(m, e.snap); v != "" {
			return s, fmt.Sprintf("snapshot %q: %s", sn.Name, v)
		}
	}
	if err := tableMismatch(s, store); err != nil {
		return s, err.Error()
	}
	if n := s.Stats().OrphanObjects; n != 0 {
		return s, fmt.Sprintf("%d orphans", n)
	}
	if err := s.AuditUtilization(); err != nil {
		return s, err.Error()
	}
	return s, ""
}

// readsAsOf returns "" if s reads as of the first n writes, else what
// differs.
func (e *enumScript) readsAsOf(s *Store, n int) string {
	vol := block.Extent{LBA: 0, Sectors: enumSlots * enumSlot(0).Sectors}
	want := make([]byte, vol.Bytes())
	for _, w := range e.writes[:n] {
		copy(want[w.ext.LBA.Bytes():], w.data)
	}
	got := make([]byte, vol.Bytes())
	for _, run := range s.Lookup(vol) {
		if !run.Present {
			continue
		}
		data, err := s.ReadRun(run)
		if err != nil {
			return fmt.Sprintf("read %v: %v", run.Extent, err)
		}
		copy(got[run.LBA.Bytes():], data)
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("the volume does not read as of write %d", n)
	}
	return ""
}

// TestBackendCrashEnumeration cuts the script's backend trace at every
// prefix of completed operations, opens it, then cuts again after each
// of that open's own operations and opens once more. Every open must
// succeed with the acknowledged writes, a consistent prefix, every
// listed snapshot mountable as of its writes, a backend that matches
// its object table and no orphan.
func TestBackendCrashEnumeration(t *testing.T) {
	e := &enumScript{t: t}
	e.run()

	// A crash point precedes each PUT or DELETE's completion, and one
	// follows the last.
	landed := func(op testrec.Op) bool {
		return op.Done && op.Err == nil && (op.Kind == testrec.Put || op.Kind == testrec.Delete)
	}
	var cuts []uint64
	for _, op := range e.rs.Log() {
		if landed(op) {
			cuts = append(cuts, op.Stamp-1)
		}
	}
	cuts = append(cuts, e.rs.Now())

	points, reopens, violations, suffixCkpts := 0, 0, 0, 0
	report := func(what string, v string) {
		if v == "" {
			return
		}
		if violations++; violations <= 5 {
			t.Errorf("%s: %s", what, v)
		}
	}
	for k, stamp := range cuts {
		var acked uint64 // the destage watermark noted so far
		published := false
		for _, op := range e.rs.Log()[:stamp] {
			if op.Kind == testrec.Note {
				acked = max(acked, uint64(op.Off))
			}
			published = published || (landed(op) && op.Name == superName("vol"))
		}
		if !published {
			continue // Create had not published the volume
		}
		rec := testrec.NewStore(e.rs.At(stamp))
		rec.Keep = true
		points++
		s, v := e.check(rec, acked)
		report(fmt.Sprintf("crash after %d of %d backend ops", k, len(cuts)-1), v)
		if s == nil {
			continue
		}
		if s.lastCkpt != backendSuper(t, e.rs.At(stamp)).LastCheckpoint {
			suffixCkpts++
		}
		for _, op := range rec.Log() {
			if landed(op) {
				points++
				reopens++
				_, v := e.check(rec.Apply(e.rs.At(stamp), op.Stamp), acked)
				report(fmt.Sprintf("crash after %d of %d backend ops, then inside the open", k, len(cuts)-1), v)
			}
		}
	}
	if suffixCkpts == 0 {
		t.Error("no crash point left a checkpoint the super does not name")
	}
	t.Logf("%d writes, %d backend ops: %d crash points (%d inside an open, %d with a suffix checkpoint), %d violations",
		len(e.writes), len(cuts)-1, points, reopens, suffixCkpts, violations)
}
