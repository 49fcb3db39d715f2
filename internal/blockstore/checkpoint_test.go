package blockstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// The commit walk waits for a marker's checkpoint object and never for
// its superblock (checkpoint.go). These tests state that, and the
// failure contract of a checkpoint owed its super, as orderings over
// the recording store's op log.

// logIndex returns the index of the first entry at or after from, or -1.
func logIndex(log []string, entry string, from int) int {
	for i := from; i < len(log); i++ {
		if log[i] == entry {
			return i
		}
	}
	return -1
}

// waitAborting waits until Abort has begun on s.
func waitAborting(t *testing.T, s *Store) {
	t.Helper()
	waitFor(t, "Abort to begin", func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.aborting
	})
}

// markerVolume is a churn volume with collected victims pending and one
// interval of objects committed, so the next churn queues a marker that
// releases them. It returns the marker's sequence number.
func markerVolume(t *testing.T, store objstore.Store, cfg func(*Config)) (*Store, uint64, uint32) {
	t.Helper()
	c := churnConfig(store)
	c.GCLowWater, c.GCHighWater = 0, 0.99 // RunGC alone collects: no idle marker
	if cfg != nil {
		cfg(&c)
	}
	s := newVolume(t, nil, c)
	var w uint64
	for i := 0; i < c.CheckpointEvery; i++ {
		churn(t, s, &w)
	}
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DeferredDeletes == 0 {
		t.Fatal("no victim is waiting for the next checkpoint")
	}
	return s, w, s.Stats().NextSeq
}

// TestWalkPassesMarkerBeforeItsSuper: with the marker's super PUT
// parked, the object sealed behind the marker commits — DurableWriteSeq
// and OnDestage advance — before put-done of the super, the super PUT
// starts only after the checkpoint object landed, and no victim the
// checkpoint releases is deleted before its super landed.
func TestWalkPassesMarkerBeforeItsSuper(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s, w, ckpt := markerVolume(t, rs, func(c *Config) { c.OnDestage = func(w uint64) { rs.Note("destage", int64(w)) } })
	super := superName("vol")
	p := rs.Park(testrec.Super)
	churn(t, s, &w) // queues the marker, then seals object ckpt+1 behind it
	<-p.Arrived()

	log := rs.Lines()
	landed := logIndex(log, "put-done "+objName("vol", ckpt), 0)
	destaged := logIndex(log, fmt.Sprintf("destage %d", w), 0)
	switch {
	case landed < 0:
		t.Fatalf("checkpoint %d never landed: %v", ckpt, log)
	case logIndex(log, "put "+super, logIndex(log, "put "+objName("vol", ckpt), 0)) < landed:
		t.Fatal("the super PUT started before its checkpoint object landed")
	case destaged < 0 || logIndex(log, "put-done "+objName("vol", ckpt+1), 0) < 0:
		t.Fatalf("object %d did not commit behind the parked super: %v", ckpt+1, log[landed:])
	case logIndex(log, "put-done "+super, landed) >= 0:
		t.Fatal("the parked super landed")
	}
	if st := s.Stats(); st.InflightObjects != 0 || st.DurableWriteSeq != w {
		t.Fatalf("%d objects in flight, durable %d: want 0 and %d", st.InflightObjects, st.DurableWriteSeq, w)
	}

	p.Release(nil)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	log = rs.Lines()
	superDone := logIndex(log, "put-done "+super, landed)
	deletes := 0
	for i, e := range log[landed:] {
		if strings.HasPrefix(e, "delete ") {
			deletes++
			if landed+i < superDone {
				t.Fatalf("%s at %d, before the super releasing it landed at %d", e, landed+i, superDone)
			}
		}
	}
	if deletes == 0 || superDone < destaged {
		t.Fatalf("%d victims deleted; super landed at %d, the object behind the marker destaged at %d", deletes, superDone, destaged)
	}
	backendMatchesTable(t, s, rs)
}

// TestFailedSuperIsOwedNotQueued: a checkpoint whose super PUT fails is
// owed that super. Objects behind it keep committing, no second marker
// is queued however many intervals pass, no victim is released, and the
// next fence retries the super and surfaces its error. A reopen from
// the old super replays through the checkpoint it does not name.
func TestFailedSuperIsOwedNotQueued(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s, w, ckpt := markerVolume(t, rs, nil)
	rs.Fail(testrec.Super, testrec.ErrFault)
	from, deleted := rs.Now(), s.Stats().ObjectsDeleted

	const behind = 9 // past two more checkpoint intervals
	for i := 0; i < behind; i++ {
		churn(t, s, &w)
	}
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if failed, _ := rs.Faults(); st.NextSeq != ckpt+1+behind || st.ObjectsDeleted != deleted || failed != 1 {
		t.Fatalf("next seq %d (want %d), %d objects deleted, %d super PUTs failed: want one marker, no release, no retry",
			st.NextSeq, ckpt+1+behind, st.ObjectsDeleted-deleted, failed)
	}
	for _, e := range rs.Lines()[from:] {
		if strings.HasPrefix(e, "delete ") {
			t.Fatalf("%s while the checkpoint releasing it is owed its super", e)
		}
	}
	if typ, ok := objectType(s, ckpt); !ok || typ != journal.TypeCheckpoint {
		t.Fatalf("checkpoint %d is not in the table", ckpt)
	}

	if err := s.Seal(); !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("the fence did not surface the owed super: %v", err)
	}
	if n, _ := rs.Faults(); n != 2 {
		t.Fatalf("%d super PUTs failed: the fence should have retried once", n)
	}
	s.Abort()

	s2, err := Open(ctx, Config{Volume: "vol", Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	if s2.lastCkpt != ckpt || s2.Stats().NextSeq != ckpt+1+behind {
		t.Fatalf("reopen loaded checkpoint %d and replayed to %d: want %d and %d",
			s2.lastCkpt, s2.Stats().NextSeq, ckpt, ckpt+1+behind)
	}
	if got := readAll(t, s2, churnExt); !bytes.Equal(got, payload(int64(w), int(churnExt.Bytes()))) {
		t.Fatal("the newest write does not read back")
	}
	if got := backendSuper(t, mem).LastCheckpoint; got != ckpt {
		t.Fatalf("after open the super names %d, want the checkpoint it owed (%d)", got, ckpt)
	}
	backendMatchesTable(t, s2, mem)
}

// TestAbortWaitsForParkedSuper: Abort with a super PUT in flight
// returns only after it has landed, and the backend does not change
// afterwards — the victims the checkpoint released stay.
func TestAbortWaitsForParkedSuper(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s, w, _ := markerVolume(t, rs, nil)
	p := rs.Park(testrec.Super)
	churn(t, s, &w)
	<-p.Arrived()

	parkedAt := int(rs.Now())
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
	for _, e := range rs.Lines()[parkedAt:] {
		if strings.HasPrefix(e, "delete ") {
			t.Fatalf("%s after Abort began", e)
		}
	}
	if st := s.Stats(); st.DeferredDeletes == 0 {
		t.Fatal("the released victims were deleted")
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// TestShipFeedCheckpointBeforeObjectsBehindIt: on a replicated store
// the checkpoint object enters the feed when it lands — before every
// object committed behind it — and its super event when the super
// lands.
func TestShipFeedCheckpointBeforeObjectsBehindIt(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s, w, ckpt := markerVolume(t, rs, func(c *Config) { c.Replicated = true })
	s.ShipAttach()
	p := rs.Park(testrec.Super)
	churn(t, s, &w)
	churn(t, s, &w)
	<-p.Arrived()
	p.Release(nil)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.ShipClose(true)
	var feed []string
	for {
		evs, ok := s.ShipNext()
		if !ok {
			break
		}
		for _, ev := range evs {
			feed = append(feed, fmt.Sprintf("%v %d", ev.Typ, ev.Seq))
		}
	}
	pos := func(typ journal.Type, seq uint32) int { return logIndex(feed, fmt.Sprintf("%v %d", typ, seq), 0) }
	c := pos(journal.TypeCheckpoint, ckpt)
	if c < 0 || c > pos(journal.TypeData, ckpt+1) || c > pos(journal.TypeData, ckpt+2) {
		t.Fatalf("checkpoint %d is not ahead of the objects behind it in the feed %v", ckpt, feed)
	}
	if sup := pos(journal.TypeSuper, 0); sup < pos(journal.TypeData, ckpt+2) {
		t.Fatalf("super event at %d, ahead of an object committed while the super was parked: %v", sup, feed)
	}
}

// TestFenceReturnsWhenAbortLandsOnOwedSuper: a fence retrying a failed
// super returns once Abort has landed. Its re-arm then fails at once
// and wakes no one, so the fence must not wait for a wake-up.
func TestFenceReturnsWhenAbortLandsOnOwedSuper(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, objstore.NewRetrier(rs, objstore.RetryPolicy{MaxAttempts: 3}), Config{CheckpointEvery: 1 << 30})
	p := rs.Park(testrec.Super)
	fenced := make(chan error, 1)
	go func() { fenced <- s.Checkpoint() }()
	<-p.Arrived()
	aborted := make(chan struct{})
	go func() {
		s.Abort()
		close(aborted)
	}()
	waitAborting(t, s)
	// context.Canceled keeps the retry layer from reissuing the PUT.
	p.Release(fmt.Errorf("killed: %w", context.Canceled))
	<-aborted
	select {
	case err := <-fenced:
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("fence returned %v, want the re-arm refused after Abort", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the fence hung retrying a super Abort will not let it PUT")
	}
}
