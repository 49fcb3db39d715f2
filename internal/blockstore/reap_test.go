package blockstore

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// churnExt is one batch wide, so every churn write seals an object and
// kills the previous one whole: the commit releases it once it lies
// below the named checkpoint, else the next checkpoint does.
var churnExt = block.Extent{LBA: 0, Sectors: 64}

func churnConfig(store objstore.Store) Config {
	return Config{
		Store: store, BatchBytes: churnExt.Bytes(), UploadDepth: 4, CheckpointEvery: 4,
		GCLowWater: 0.70, GCHighWater: 0.75,
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
		f, err := s.FetchSpan(runs, 0, false)
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
	garbageGone(t, s, mem)
}

// garbageGone: no delete is owed — every list is empty, so by the
// audit no dead object is left in the table — and the backend holds
// exactly the table.
func garbageGone(t *testing.T, s *Store, store objstore.Store) {
	t.Helper()
	if n := s.Stats().DeferredDeletes; n != 0 {
		t.Fatalf("%d deletes still owed", n)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	backendMatchesTable(t, s, store)
}

// deleteOrderViolation reads one session's kept op log and returns the
// first PUT or DELETE that rules 1 and 2 forbid, or "". Rule 1: a super
// PUT starts only once the checkpoint it names has landed. Rule 2: a
// deleted object lies below the checkpoint the last completed super
// names; a deleted checkpoint also lies below the one the oldest
// snapshot that super lists loads; no deleted object lies in a listed
// snapshot's replay suffix, after the checkpoint it loads; and none is
// still mapped as of a listed snapshot — the [Obj, GCSeq) pin. The log
// shows that last case when a checkpoint landed after the snapshot still
// maps the object: the map only loses references as objects install, so
// it mapped the object as of the snapshot too.
func deleteOrderViolation(log []testrec.Op) string {
	landed := map[uint32]int{}             // checkpoint seq → log index it landed at
	var ckpts []uint32                     // landed checkpoints, ascending
	mapped := map[uint32]map[uint32]bool{} // checkpoint seq → the objects its map points at
	loads := func(snap uint32) uint32 {
		var c uint32
		for _, seq := range ckpts {
			if seq <= snap {
				c = seq
			}
		}
		return c
	}
	var named, keep uint32
	var snaps []SnapshotInfo
	superStart := -1
	for i, op := range log {
		seq, numbered := parseSeq("vol", op.Name)
		switch {
		case op.Kind == testrec.Put && op.Name == superName("vol") && !op.Done:
			superStart = i
		case op.Kind == testrec.Put && op.Name == superName("vol") && op.Err == nil:
			info, err := DecodeSuperInfo(op.Data)
			if err != nil {
				return fmt.Sprintf("super at %d: %v", i, err)
			}
			if at, ok := landed[info.LastCheckpoint]; !ok || at > superStart {
				return fmt.Sprintf("super PUT at %d names checkpoint %d, which had not landed", superStart, info.LastCheckpoint)
			}
			named, keep, snaps = info.LastCheckpoint, info.LastCheckpoint, info.Snapshots
			for _, sn := range snaps {
				keep = min(keep, loads(sn.Seq))
			}
		case op.Kind == testrec.Put && op.Done && op.Err == nil && op.Type == journal.TypeCheckpoint:
			landed[seq] = i
			ckpts = append(ckpts, seq)
			sort.Slice(ckpts, func(a, b int) bool { return ckpts[a] < ckpts[b] })
			_, raw, _, err := journal.Decode(op.Data, false)
			if err != nil {
				return fmt.Sprintf("checkpoint %d at %d: %v", seq, i, err)
			}
			p, err := decodeCheckpoint(raw)
			if err != nil {
				return fmt.Sprintf("checkpoint %d at %d: %v", seq, i, err)
			}
			mapped[seq] = map[uint32]bool{}
			for _, o := range p.objects {
				if o.liveSectors > 0 {
					mapped[seq][o.seq] = true
				}
			}
		case op.Kind == testrec.Delete && !op.Done && numbered:
			if seq >= named {
				return fmt.Sprintf("delete of %s at %d, but the durable super names checkpoint %d", op.Name, i, named)
			}
			if _, ckpt := landed[seq]; ckpt && seq >= keep {
				return fmt.Sprintf("delete of checkpoint %d at %d, but a snapshot's chain walk reads down to %d", seq, i, keep)
			}
			for _, sn := range snaps {
				if c := loads(sn.Seq); c < seq && seq <= sn.Seq {
					return fmt.Sprintf("delete of %s at %d, in snapshot %q's replay suffix (%d, %d]", op.Name, i, sn.Name, c, sn.Seq)
				}
				for c, objs := range mapped {
					if c > sn.Seq && seq <= sn.Seq && objs[seq] {
						return fmt.Sprintf("delete of %s at %d, which snapshot %q reads: checkpoint %d, taken after it, maps it", op.Name, i, sn.Name, c)
					}
				}
			}
		}
	}
	return ""
}

// TestCheckpointOrdersPutsBeforeDeletes proves rules 1 and 2 from the
// backend's point of view, for deaths released by a commit, periodic
// markers, an explicit Checkpoint and a snapshot's creation and
// deletion alike: a super PUT starts only after the checkpoint object
// it names has landed, no object is deleted unless it lies below the
// checkpoint a completed super names (deleteOrderViolation), and what a
// snapshot pinned goes only after the super that drops the snapshot.
func TestCheckpointOrdersPutsBeforeDeletes(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	rs.Keep = true
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
		t.Fatal("nothing was deleted")
	}
	for i := 0; i < 3; i++ { // deaths for the explicit checkpoint
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
	var pinned []uint32
	s.mu.RLock()
	for seq, o := range s.objects {
		if o.state == stateHeld {
			pinned = append(pinned, seq)
		}
	}
	s.mu.RUnlock()
	if len(pinned) == 0 {
		t.Fatal("the snapshot pinned nothing")
	}
	unpinnedAt := int(rs.Now())
	if err := s.DeleteSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	garbageGone(t, s, rs)

	log := rs.Log()
	if v := deleteOrderViolation(log); v != "" {
		t.Fatal(v)
	}
	lines := rs.Lines()
	superDone := logIndex(lines, "put-done vol.super", unpinnedAt)
	for _, seq := range pinned {
		if i := logIndex(lines, "delete "+objName("vol", seq), 0); i < superDone {
			t.Fatalf("pinned object %d deleted at %d, before the super that drops the snapshot landed at %d", seq, i, superDone)
		}
	}
	deletes := 0
	for _, e := range lines {
		if strings.HasPrefix(e, "delete ") {
			deletes++
		}
	}
	if uint64(deletes) != s.Stats().ObjectsDeleted {
		t.Fatalf("%d backend deletes for %d retired objects", deletes, s.Stats().ObjectsDeleted)
	}
}

// TestAbortWaitsForReap: Abort with deletes in flight returns only
// once they finished, and from then on the backend does not change.
func TestAbortWaitsForReap(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, nil, churnConfig(rs))
	p := rs.Park(testrec.Deletes)
	var w uint64
	churnUntilParked(t, s, p, &w, 1)

	aborted := make(chan struct{})
	go func() {
		s.Abort()
		rs.Note("abort returned", 0)
		close(aborted)
	}()
	waitAborting(t, s)
	p.Release(nil)
	<-aborted
	abortReturnedLast(t, rs)
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// abortReturnedLast waits for every goroutine to settle, then reads the
// log: each PUT or delete that arrived before the note "abort returned"
// completed before it, and nothing is logged after it.
func abortReturnedLast(t *testing.T, rs *testrec.Store) {
	t.Helper()
	if err := testrec.Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	log := rs.Log()
	at := slices.IndexFunc(log, func(op testrec.Op) bool { return op.Kind == testrec.Note && op.Name == "abort returned" })
	if at < 0 {
		t.Fatal("Abort never returned")
	}
	open := map[string]int{} // kind and name → arrived and not completed
	for _, op := range log[:at] {
		if op.Kind != testrec.Put && op.Kind != testrec.Delete {
			continue
		}
		key := string(op.Kind) + " " + op.Name
		if op.Done {
			open[key]--
		} else {
			open[key]++
		}
	}
	for key, n := range open {
		if n > 0 {
			t.Fatalf("%s arrived before Abort returned and had not completed", key)
		}
	}
	if after := rs.Lines()[at+1:]; len(after) > 0 {
		t.Fatalf("the backend changed after Abort returned: %q", after)
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

	s2, err := Open(ctx, Config{Volume: "vol", Store: mem})
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

// TestReapDeleteFailureRedefers: every delete the churn issues fails
// once. Each failed entry goes back on the pending list, the next
// checkpoint retries it, and in the end every dead object is deleted
// exactly once.
func TestReapDeleteFailureRedefers(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, nil, churnConfig(rs))
	deleted := map[string]bool{}
	heal := rs.Fail(func(op testrec.Op) bool {
		first := op.Kind == testrec.Delete && !deleted[op.Name]
		deleted[op.Name] = true
		return first
	}, testrec.ErrFault)
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
	if failed, _ := rs.Faults(); s.Stats().DeferredDeletes == 0 || failed == 0 {
		t.Fatal("no failed delete was re-deferred")
	}
	heal()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	garbageGone(t, s, rs)
	if st := s.Stats(); st.ObjectsDeleted != uint64(int(st.NextSeq)-1-st.Objects) {
		t.Fatalf("%d objects retired, but %d of the %d written are gone", st.ObjectsDeleted, int(st.NextSeq)-1-st.Objects, st.NextSeq-1)
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
	if s.Stats().DeferredDeletes == 0 {
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
	garbageGone(t, s, mem)
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

// backendCkpts returns the checkpoint objects the backend holds for
// "vol", by their header type.
func backendCkpts(t *testing.T, store objstore.Store) []uint32 {
	t.Helper()
	names, err := store.List(ctx, "vol.")
	if err != nil {
		t.Fatal(err)
	}
	var out []uint32
	for _, seq := range sortedSeqs("vol", names) {
		probe, err := store.GetRange(ctx, objName("vol", seq), 0, block.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if h, _, err := journal.DecodeHeader(probe); err == nil && h.Type == journal.TypeCheckpoint {
			out = append(out, seq)
		}
	}
	return out
}

// TestSupersededCheckpointsDeleted: a checkpoint no snapshot mount's
// chain walk reads is deleted once a super names a newer one. With no
// snapshot that is every checkpoint below the named one; a snapshot
// keeps the checkpoints from the one it loads upward, so it still mounts
// and clones, and deleting it lets them go.
func TestSupersededCheckpointsDeleted(t *testing.T) {
	mem := objstore.NewMem()
	s := newVolume(t, mem, Config{CheckpointEvery: 1})
	ext := block.Extent{LBA: 0, Sectors: 64}
	var w uint64
	write := func(n int) {
		for i := 0; i < n; i++ {
			w++
			if err := s.Append(w, ext, payload(int64(w), int(ext.Bytes()))); err != nil {
				t.Fatal(err)
			}
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	atMostTwo := func(when string) {
		t.Helper()
		if got := backendCkpts(t, mem); len(got) == 0 || len(got) > 2 {
			t.Fatalf("%s: the backend holds checkpoints %v, want the named one and at most one from the suffix", when, got)
		}
		garbageGone(t, s, mem)
	}

	write(10)
	if n := s.Stats().Checkpoints; n < 10 {
		t.Fatalf("%d checkpoints, want 10", n)
	}
	atMostTwo("after 10 checkpoints")

	if _, err := s.CreateSnapshot("snap"); err != nil {
		t.Fatal(err)
	}
	snapData := payload(int64(w), int(ext.Bytes()))
	write(10)
	if got := backendCkpts(t, mem); len(got) < 10 {
		t.Fatalf("the snapshot kept checkpoints %v, want every one from the snapshot's upward", got)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	backendMatchesTable(t, s, mem)
	snap, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: mem}, "snap")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, snap, ext); !bytes.Equal(got, snapData) {
		t.Fatal("the snapshot does not read as of its creation")
	}
	if err := Clone(ctx, Config{Volume: "vol", Store: mem}, "snap", "clone"); err != nil {
		t.Fatal(err)
	}
	clone, err := Open(ctx, Config{Volume: "clone", Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clone.Abort)
	if got := readAll(t, clone, ext); !bytes.Equal(got, snapData) {
		t.Fatal("the clone does not read as of the snapshot")
	}

	if err := s.DeleteSnapshot("snap"); err != nil {
		t.Fatal(err)
	}
	atMostTwo("after the snapshot was deleted")
}

// TestCleanReopenDeletesNothing: a clean shutdown (seal, checkpoint,
// abort, as core's Close does) deletes every object it released, the
// superseded checkpoint included, so the open that follows finds
// nothing to delete. The checkpoint it loads was taken before those
// deletes ran and still lists them; open retires the entries its LIST
// shows gone without a backend call.
func TestCleanReopenDeletesNothing(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s := newVolume(t, nil, churnConfig(rs))
	var w uint64
	for i := 0; i < 12; i++ {
		churn(t, s, &w)
	}
	s.StopGC()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if !rs.Await(0, testrec.Deletes, 0) {
		t.Fatal("the churn deleted nothing, so the reopen proves nothing")
	}

	from := rs.Now()
	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Abort)
	for _, op := range rs.Log() {
		if op.Stamp > from && op.Kind == testrec.Delete {
			t.Errorf("open after a clean close issued %v", op)
		}
	}
	backendMatchesTable(t, s2, mem)
	if err := s2.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s2, churnExt); string(got) != string(payload(int64(w), int(churnExt.Bytes()))) {
		t.Fatal("data wrong after a clean close and reopen")
	}
}

// TestDeleteSnapshotFailureKeepsName: a DeleteSnapshot whose super
// fails leaves the snapshot listed, as the durable super still lists it
// and still mounts it, so the caller can retry; the retry that lands
// deletes what the snapshot pinned.
func TestDeleteSnapshotFailureKeepsName(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s, _ := pinnedVolume(t, rs)
	heal := rs.Fail(testrec.Super, testrec.ErrFault)
	if err := s.DeleteSnapshot("pin"); err == nil {
		t.Fatal("DeleteSnapshot succeeded without its super")
	}
	if got := s.Snapshots(); len(got) != 1 || got[0].Name != "pin" {
		t.Fatalf("after the failed delete the volume lists %+v, want pin", got)
	}
	if got := backendSuper(t, mem).Snapshots; len(got) != 1 || got[0].Name != "pin" {
		t.Fatalf("the durable super lists %+v, want pin", got)
	}
	heal()
	if err := s.DeleteSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshots(); len(got) != 0 {
		t.Fatalf("after the retry the volume lists %+v", got)
	}
	garbageGone(t, s, mem)
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestLifecycleEdges: transition takes every edge of the object
// lifecycle without allocating, and panics on every other pair of
// states and on a row that is not in the state it is moved from.
func TestLifecycleEdges(t *testing.T) {
	legal := map[[2]objState]bool{
		{stateLive, stateDead}:    true,
		{stateDead, stateHeld}:    true,
		{stateHeld, stateReaping}: true,
		{stateReaping, stateHeld}: true,
	}
	for from := stateLive; from < numStates; from++ {
		for to := stateLive; to < numStates; to++ {
			s := &Store{}
			move := func() {
				o := objInfo{seq: 7, typ: journal.TypeData, state: from}
				s.transition(&o, from, to)
			}
			if !legal[[2]objState{from, to}] {
				if !panics(move) {
					t.Errorf("illegal edge %d→%d taken", from, to)
				}
				continue
			}
			if n := testing.AllocsPerRun(100, move); n != 0 {
				t.Errorf("edge %d→%d allocates %.0f times", from, to, n)
			}
		}
	}
	if !panics(func() {
		o := objInfo{seq: 7, typ: journal.TypeData, state: stateHeld}
		(&Store{}).transition(&o, stateLive, stateDead)
	}) {
		t.Error("a held row was moved as if it were live")
	}
}

// TestLoadCheckpointDeferredListAsDecoded: a checkpoint's deferred list
// is decoded input. One that names a row the table lacks and names a
// row twice loads without a panic, into a table that audits clean.
func TestLoadCheckpointDeferredListAsDecoded(t *testing.T) {
	mapBytes, err := extmap.New().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeCheckpoint(encodeCheckpointForFuzz(&checkpointPayload{
		prevCkpt: 3, durableWriteSeq: 99, nextSeq: 7,
		objects: []objInfo{
			{seq: 4, typ: journal.TypeData, totalBytes: 4096, hdrSectors: 1, dataSectors: 7, liveSectors: 5, writeSeq: 80},
			{seq: 5, typ: journal.TypeCheckpoint, totalBytes: 512},
			{seq: 6, typ: journal.TypeGC, totalBytes: 8192, hdrSectors: 1, dataSectors: 15, writeSeq: 99},
		},
		deferred: []deferredDelete{{Obj: 2, GCSeq: 6}, {Obj: 6, GCSeq: 6}, {Obj: 6, GCSeq: 6}},
		mapBytes: mapBytes,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Volume: "vol", Store: objstore.NewMem()}
	cfg.setDefaults()
	s := newStore(ctx, cfg)
	s.mu.Lock()
	err = s.loadCheckpointLocked(7, p, 512)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Objects != 4 || st.DeferredDeletes != 1 {
		t.Fatalf("loaded %d rows with %d deletes owed, want 4 and 1", st.Objects, st.DeferredDeletes)
	}
}
