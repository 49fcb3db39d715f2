package blockstore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// churnExt is one batch wide, so every churn write seals an object and
// kills the previous one whole: the paced service's next pass cleans it
// without copying and the next checkpoint releases it.
var churnExt = block.Extent{LBA: 0, Sectors: 64}

func churnConfig(store objstore.Store) Config {
	return Config{
		Store: store, BatchBytes: churnExt.Bytes(), UploadDepth: 4, CheckpointEvery: 4,
		GCLowWater: 0.70, GCHighWater: 0.75,
		Retry: objstore.RetryPolicy{MaxAttempts: -1},
	}
}

// churn overwrites churnExt once, as write *w+1, and waits for the
// object to commit.
func churn(t *testing.T, s *Store, w *uint64) {
	t.Helper()
	*w++
	if err := s.Append(*w, churnExt, payload(int64(*w), int(churnExt.Bytes()))); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, s, *w)
}

// churnUntilParked churns until want of a checkpoint's deletes sit in
// the park.
func churnUntilParked(t *testing.T, s *Store, p *testrec.Parked, w *uint64, want int) {
	t.Helper()
	for i, parked := 0, 0; parked < want; {
		select {
		case <-p.Arrived():
			parked++
		default:
			if i++; i > 64 {
				t.Fatalf("%d deletes parked after %d objects, want %d", parked, i, want)
			}
			churn(t, s, w)
		}
	}
}

// mustReturn fails the test if fn is still running after 5 s — the
// symptom of a foreground call queued behind a reap.
func mustReturn(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a checkpoint's deletes", what)
	}
}

// backendMatchesTable: the backend holds exactly the objects the table
// names — nothing leaked, nothing lost.
func backendMatchesTable(t *testing.T, s *Store, store objstore.Store) {
	t.Helper()
	if err := tableMismatch(s, store); err != nil {
		t.Fatal(err)
	}
}

func tableMismatch(s *Store, store objstore.Store) error {
	names, err := store.List(ctx, "vol.")
	if err != nil {
		return err
	}
	backend := sortedSeqs("vol", names)
	s.mu.RLock()
	var table []uint32
	for seq := range s.objects {
		table = append(table, seq)
	}
	s.mu.RUnlock()
	sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
	if fmt.Sprint(backend) != fmt.Sprint(table) {
		return fmt.Errorf("backend holds %v, object table names %v", backend, table)
	}
	return nil
}

// TestReapDoesNotStallPipeline: while a checkpoint's victim deletes
// are stuck in the backend, the store lock is free and the commit walk
// has moved past the marker — appends, seals and fetches return, and
// an object sealed after the checkpoint commits.
func TestReapDoesNotStallPipeline(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	var destaged atomic.Uint64
	cfg := churnConfig(rs)
	cfg.OnDestage = func(w uint64) {
		for {
			cur := destaged.Load()
			if w <= cur || destaged.CompareAndSwap(cur, w) {
				return
			}
		}
	}
	s := newVolume(t, nil, cfg)
	p := rs.Park(testrec.Deletes)
	var w uint64
	churnUntilParked(t, s, p, &w, 1)
	deleted := s.Stats().ObjectsDeleted

	half := block.Extent{LBA: 0, Sectors: churnExt.Sectors / 2}
	w++
	mustReturn(t, "Append", func() error { return s.Append(w, half, payload(int64(w), int(half.Bytes()))) })
	mustReturn(t, "SealAsync", s.SealAsync)
	mustReturn(t, "FetchSpan", func() error {
		runs := s.Lookup(block.Extent{LBA: block.LBA(half.Sectors), Sectors: 8})
		f, err := s.FetchSpan(runs, 0)
		if err == nil {
			f.Release()
		}
		return err
	})
	waitDurable(t, s, w)
	waitFor(t, "OnDestage for the object behind the checkpoint", func() bool { return destaged.Load() >= w })
	if rs.Await(0, testrec.Deletes, 0) {
		t.Fatal("the deletes were not held for the duration of the test")
	}
	if got := s.Stats().ObjectsDeleted; got != deleted {
		t.Fatalf("%d objects retired while their deletes were held", got-deleted)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatalf("audit mid-reap: %v", err)
	}

	p.Release(nil)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeferredDeletes != 0 || st.ObjectsDeleted != st.GCVictims {
		t.Fatalf("after the fence: %d deferred, %d deleted of %d victims", st.DeferredDeletes, st.ObjectsDeleted, st.GCVictims)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	backendMatchesTable(t, s, mem)
}

// TestCheckpointOrdersPutsBeforeDeletes proves rules 1 and 2 from the
// backend's point of view, for periodic markers, an explicit Checkpoint
// and a snapshot's creation and deletion alike: a super PUT starts only
// after the checkpoint object it names has landed, no victim's delete
// reaches the backend before the super PUT of the first checkpoint that
// lists it has completed, and what a snapshot pinned goes only after
// the super that drops the snapshot.
func TestCheckpointOrdersPutsBeforeDeletes(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, nil, churnConfig(rs))
	var w uint64
	churn(t, s, &w)
	churn(t, s, &w)
	if _, err := s.CreateSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ { // four marker checkpoints
		churn(t, s, &w)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	markerDeletes := s.Stats().ObjectsDeleted
	if markerDeletes == 0 {
		t.Fatal("marker checkpoints released nothing")
	}
	for i := 0; i < 3; i++ { // victims for the explicit checkpoint
		churn(t, s, &w)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ObjectsDeleted == markerDeletes {
		t.Fatal("the explicit checkpoint released nothing")
	}
	s.mu.RLock()
	pinned := append([]deferredDelete(nil), s.deferred...)
	s.mu.RUnlock()
	if len(pinned) == 0 {
		t.Fatal("the snapshot pinned nothing")
	}
	unpinnedAt := int(rs.Now())
	if err := s.DeleteSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeferredDeletes != 0 || st.ObjectsDeleted != st.GCVictims {
		t.Fatalf("after DeleteSnapshot: %d deferred, %d deleted of %d victims", st.DeferredDeletes, st.ObjectsDeleted, st.GCVictims)
	}

	log := rs.Lines()
	index := func(entry string, from int) int { return logIndex(log, entry, from) }
	// superDone[v]: log index at which the super PUT that releases victim
	// v completed — the first checkpoint listing it, or for a pinned one
	// DeleteSnapshot's.
	superDone := make(map[string]int)
	for _, d := range pinned {
		superDone[objName("vol", d.Obj)] = index("put-done vol.super", unpinnedAt)
	}
	s.mu.RLock()
	var ckpts []uint32
	for seq, o := range s.objects {
		if o.typ == journal.TypeCheckpoint {
			ckpts = append(ckpts, seq)
		}
	}
	s.mu.RUnlock()
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	for _, c := range ckpts {
		name := objName("vol", c)
		objDone := index("put-done "+name, 0)
		if objDone < 0 {
			t.Fatalf("checkpoint %d never landed", c)
		}
		if super := index("put vol.super", index("put "+name, 0)); super < objDone {
			t.Fatalf("super PUT started at %d, before checkpoint %d landed at %d", super, c, objDone)
		}
		done := index("put-done vol.super", objDone)
		p, _, err := s.readCheckpointObject(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range p.deferred {
			if _, listed := superDone[objName("vol", d.Obj)]; !listed {
				superDone[objName("vol", d.Obj)] = done
			}
		}
	}
	deletes := 0
	for i, e := range log {
		v, ok := strings.CutPrefix(e, "delete ")
		if !ok {
			continue
		}
		deletes++
		if done, released := superDone[v]; !released || done < 0 || i < done {
			t.Fatalf("delete of %s at %d, but the super of the checkpoint releasing it completed at %d (released=%v)", v, i, done, released)
		}
	}
	if uint64(deletes) != s.Stats().ObjectsDeleted {
		t.Fatalf("%d backend deletes for %d retired objects", deletes, s.Stats().ObjectsDeleted)
	}
}

// TestAbortWaitsForReap: Abort with deletes in flight returns only
// once they finished, and from then on the backend does not change.
func TestAbortWaitsForReap(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s := newVolume(t, nil, churnConfig(rs))
	p := rs.Park(testrec.Deletes)
	var w uint64
	churnUntilParked(t, s, p, &w, 1)

	aborted := make(chan struct{})
	go func() {
		s.Abort()
		close(aborted)
	}()
	select {
	case <-aborted:
		t.Fatal("Abort returned with deletes still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	p.Release(nil)
	<-aborted
	// A delete still in flight when Abort returned would land below.
	before, _ := mem.List(ctx, "vol.")
	ops := rs.Now()
	time.Sleep(50 * time.Millisecond)
	after, _ := mem.List(ctx, "vol.")
	if fmt.Sprint(before) != fmt.Sprint(after) || rs.Now() != ops {
		t.Fatalf("backend changed after Abort: %v -> %v", before, after)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// TestKillMidReapRedrivenAtOpen: a crash after some of a checkpoint's
// victims were deleted and before the rest were loses nothing — open
// re-drives the checkpoint's deferred list.
func TestKillMidReapRedrivenAtOpen(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s := newVolume(t, nil, churnConfig(rs))
	p := rs.Park(testrec.Deletes.After(1)) // one victim's delete lands
	var w uint64
	churnUntilParked(t, s, p, &w, 1)
	if !rs.Await(0, testrec.Deletes, 10*time.Second) {
		t.Fatal("the first delete never landed")
	}
	killMidReapAndReopen(t, s, p, mem, w)
}

// killMidReapAndReopen kills s while p holds its deletes — they die
// with the process — and reopens the volume on mem: the kill must have
// stranded victims, open must re-drive every one of them, and the data
// of write w must read back.
func killMidReapAndReopen(t *testing.T, s *Store, p *testrec.Parked, mem *objstore.Mem, w uint64) *Store {
	t.Helper()
	killed := make(chan struct{})
	go func() {
		s.Abort()
		close(killed)
	}()
	// context.Canceled keeps any retry layer from reissuing the deletes.
	p.Release(fmt.Errorf("killed mid-reap: %w", context.Canceled))
	<-killed
	stranded := s.Stats().DeferredDeletes
	if stranded == 0 {
		t.Fatal("the kill stranded no victim")
	}

	s2, err := Open(ctx, Config{Volume: "vol", Store: mem, Retry: objstore.RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DeferredDeletes != 0 || st.ObjectsDeleted < uint64(stranded) {
		t.Fatalf("open re-drove %d deletes and left %d deferred; the kill stranded %d", st.ObjectsDeleted, st.DeferredDeletes, stranded)
	}
	backendMatchesTable(t, s2, mem)
	if err := s2.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s2, churnExt); string(got) != string(payload(int64(w), int(churnExt.Bytes()))) {
		t.Fatal("data wrong after kill mid-reap + reopen")
	}
	return s2
}

// TestReapDeleteFailureRedefers: every victim's first delete fails.
// Each goes back on the pending list, the next checkpoint retries it,
// and in the end every victim is deleted exactly once.
func TestReapDeleteFailureRedefers(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, nil, churnConfig(faulty))
	for seq := uint32(1); seq < 64; seq++ {
		faulty.FailDeletes(objName("vol", seq), 1)
	}
	var w uint64
	for i := 0; i < 18; i++ {
		churn(t, s, &w)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatalf("audit with re-deferred deletes: %v", err)
	}
	if s.Stats().DeferredDeletes == 0 {
		t.Fatal("no failed delete was re-deferred")
	}
	// Two more checkpoints: the first retries what is pending and fails
	// the newest victims once, the second retries those.
	for i := 0; i < 2; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DeferredDeletes != 0 {
		t.Fatalf("%d deletes still deferred", st.DeferredDeletes)
	}
	if st.ObjectsDeleted != st.GCVictims || faulty.InjectedFaults() != st.GCVictims {
		t.Fatalf("%d victims, %d retired, %d first deletes failed: want all equal",
			st.GCVictims, st.ObjectsDeleted, faulty.InjectedFaults())
	}
	backendMatchesTable(t, s, faulty.Inner)
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// pinnedVolume returns a store with a snapshot "pin" that alone pins at
// least one cleaned object, and no periodic checkpoint to disturb it.
func pinnedVolume(t *testing.T, rs objstore.Store) (*Store, uint64) {
	t.Helper()
	cfg := churnConfig(rs)
	cfg.CheckpointEvery = 1 << 30
	s := newVolume(t, nil, cfg)
	var w uint64
	churn(t, s, &w)
	if _, err := s.CreateSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	churn(t, s, &w)
	churn(t, s, &w)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ObjectsDeleted == s.Stats().GCVictims {
		t.Fatal("the snapshot pinned nothing")
	}
	return s, w
}

// backendSuper decodes the superblock the backend holds for "vol".
func backendSuper(t *testing.T, store objstore.Store) *SuperInfo {
	t.Helper()
	raw, err := store.Get(ctx, superName("vol"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := DecodeSuperInfo(raw)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestDeleteSnapshotReapsOffLock: DeleteSnapshot is a checkpoint. The
// super that drops the snapshot lands before any object the snapshot
// pinned is deleted, and those deletes run with the store lock released.
func TestDeleteSnapshotReapsOffLock(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s, w := pinnedVolume(t, rs)
	if err := s.DeleteSnapshot("nope"); err == nil {
		t.Fatal("deleting an unknown snapshot succeeded")
	}

	p := rs.Park(testrec.Deletes)
	start := rs.Now()
	done := make(chan error, 1)
	go func() { done <- s.DeleteSnapshot("pin") }()
	<-p.Arrived()
	if got := backendSuper(t, mem).Snapshots; len(got) != 0 {
		t.Fatalf("deletes issued while the super still lists %+v", got)
	}
	half := block.Extent{LBA: 0, Sectors: churnExt.Sectors / 2}
	w++
	mustReturn(t, "Append", func() error { return s.Append(w, half, payload(int64(w), int(half.Bytes()))) })
	select {
	case err := <-done:
		t.Fatalf("DeleteSnapshot returned (%v) with its deletes held", err)
	default:
	}
	p.Release(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	superDone := false
	for _, e := range rs.Lines()[start:] {
		switch {
		case e == "put-done vol.super":
			superDone = true
		case strings.HasPrefix(e, "delete ") && !superDone:
			t.Fatalf("%s before the super that drops the snapshot landed", e)
		}
	}
	if st := s.Stats(); st.DeferredDeletes != 0 || st.ObjectsDeleted != st.GCVictims {
		t.Fatalf("%d deferred, %d deleted of %d victims", st.DeferredDeletes, st.ObjectsDeleted, st.GCVictims)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	backendMatchesTable(t, s, mem)
}

// TestKillAfterDeleteSnapshotSuperRedrivenAtOpen: a crash between the
// super that drops a snapshot and the deletes of what it pinned reopens
// with the snapshot gone and the deferred list re-driven.
func TestKillAfterDeleteSnapshotSuperRedrivenAtOpen(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s, w := pinnedVolume(t, rs)
	p := rs.Park(testrec.Deletes)
	done := make(chan error, 1)
	go func() { done <- s.DeleteSnapshot("pin") }()
	<-p.Arrived()
	s2 := killMidReapAndReopen(t, s, p, mem, w)
	<-done
	if got := s2.Snapshots(); len(got) != 0 {
		t.Fatalf("reopened with snapshots %+v", got)
	}
}
