package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// TestCheckpointFailureKeepsOldPointer: if the superblock update
// fails, the previous checkpoint must stay authoritative so recovery
// still works. The checkpoint, whose object landed, is owed its super:
// the marker has left the commit walk, an object sealed behind it
// commits, and the next Checkpoint on the same store lands the owed
// super before writing a checkpoint of its own.
func TestCheckpointFailureKeepsOldPointer(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{CheckpointEvery: 1 << 30})
	ext, ext2 := block.Extent{LBA: 0, Sectors: 64}, block.Extent{LBA: 64, Sectors: 64}
	data, data2 := payload(2, int(ext.Bytes())), payload(12, int(ext2.Bytes()))
	_ = s.Append(1, ext, data)
	_ = s.Seal()
	faulty.FailPuts(superName("vol"), -1)
	if err := s.Checkpoint(); !errors.Is(err, objstore.ErrInjected) {
		t.Fatalf("super failure not surfaced: %v", err)
	}
	failedAt := s.Stats().NextSeq - 1
	_ = s.Append(2, ext2, data2)
	if err := s.SealAsync(); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, s, 2)
	if st := s.Stats(); st.InflightObjects != 0 {
		t.Fatalf("%d objects in flight behind the owed super", st.InflightObjects)
	}
	// Recovery from the old superblock replays through the checkpoint it
	// does not name (its own super PUT fails too, so it reaps nothing).
	s2, err := Open(ctx, Config{Volume: "vol", Store: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, s2, ext), data) || !bytes.Equal(readAll(t, s2, ext2), data2) {
		t.Fatal("data lost after failed checkpoint")
	}

	// The fault clears: the same store's next fence lands the owed super
	// naming the number the checkpoint already holds, so the log stays
	// dense and the object whose PUT did land is the checkpoint, not an
	// orphan.
	faulty.FailPuts(superName("vol"), 0)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the fault cleared: %v", err)
	}
	if st := s.Stats(); st.InflightObjects != 0 || st.NextSeq != failedAt+3 {
		t.Fatalf("after the retry: %d in flight, next seq %d, want 0 and %d", st.InflightObjects, st.NextSeq, failedAt+3)
	}
	s3, err := Open(ctx, Config{Volume: "vol", Store: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, s3, ext), data) || !bytes.Equal(readAll(t, s3, ext2), data2) {
		t.Fatal("data lost after the retried checkpoint")
	}
	if st := s3.Stats(); st.RecoveredObjects != 0 || st.NextSeq != failedAt+3 || st.OrphanObjects != 0 {
		t.Fatalf("reopen replayed %d objects to seq %d with %d orphans, want 0, %d, 0",
			st.RecoveredObjects, st.NextSeq, st.OrphanObjects, failedAt+3)
	}
	backendMatchesTable(t, s3, faulty)
}

// TestFailedCreateSnapshotNotPublishedByRetry: a CreateSnapshot whose
// super PUT fails returns the error and takes its entry back; the
// checkpoint it wrote is owed a super encoded per attempt, so the retry
// the next fence drives publishes a super without the snapshot.
func TestFailedCreateSnapshotNotPublishedByRetry(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	_ = s.Append(1, ext, payload(6, int(ext.Bytes())))
	if _, err := s.CreateSnapshot("kept"); err != nil {
		t.Fatal(err)
	}
	faulty.FailPuts(superName("vol"), -1)
	if _, err := s.CreateSnapshot("lost"); !errors.Is(err, objstore.ErrInjected) {
		t.Fatalf("super failure not surfaced: %v", err)
	}
	faulty.FailPuts(superName("vol"), 0)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	info := backendSuper(t, faulty)
	if got := s.Snapshots(); len(got) != 1 || got[0].Name != "kept" {
		t.Fatalf("store lists %+v, want only \"kept\"", got)
	}
	if len(info.Snapshots) != 1 || info.Snapshots[0] != s.Snapshots()[0] {
		t.Fatalf("super lists %+v, the store %+v", info.Snapshots, s.Snapshots())
	}
	if info.LastCheckpoint != s.Stats().NextSeq-1 {
		t.Fatalf("super names checkpoint %d, the newest is %d", info.LastCheckpoint, s.Stats().NextSeq-1)
	}
}

var errProbe = errors.New("backend unreachable")

// TestCreateAndCloneProbeErrorIsNotAbsence: only ErrNotFound from the
// existence probe means the volume name is free. A probe that failed
// any other way must fail Create and Clone, not let them rewrite the
// super of a volume that is there.
func TestCreateAndCloneProbeErrorIsNotAbsence(t *testing.T) {
	mem := objstore.NewMem()
	gs := testrec.NewStore(mem)
	probe := func(vol string) testrec.Match { return testrec.Kinds(testrec.Get).Named(superName(vol)).Once() }
	noRetry := objstore.RetryPolicy{MaxAttempts: -1}
	s := newVolume(t, gs, Config{Retry: noRetry})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(7, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	if _, err := s.CreateSnapshot("golden"); err != nil {
		t.Fatal(err)
	}
	stillThere := func(what string) {
		t.Helper()
		s2, err := Open(ctx, Config{Volume: "vol", Store: gs, Retry: noRetry})
		if err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if got := readAll(t, s2, ext); !bytes.Equal(got, data) {
			t.Fatalf("%s emptied the existing volume", what)
		}
	}

	gs.Fail(probe("vol"), errProbe)
	if _, err := Create(ctx, Config{Volume: "vol", Store: gs, VolSectors: volSectors, Retry: noRetry}); !errors.Is(err, errProbe) {
		t.Fatalf("Create over a failed probe: %v", err)
	}
	stillThere("Create")

	if err := Clone(ctx, Config{Volume: "vol", Store: gs, Retry: noRetry}, "golden", "twin"); err != nil {
		t.Fatal(err)
	}
	twin, err := mem.Get(ctx, superName("twin"))
	if err != nil {
		t.Fatal(err)
	}
	gs.Fail(probe("twin"), errProbe)
	if err := Clone(ctx, Config{Volume: "vol", Store: gs, Retry: noRetry}, "golden", "twin"); !errors.Is(err, errProbe) {
		t.Fatalf("Clone over a failed probe: %v", err)
	}
	if after, _ := mem.Get(ctx, superName("twin")); !bytes.Equal(after, twin) {
		t.Fatal("Clone rewrote the super of an existing volume")
	}
	if err := Clone(ctx, Config{Volume: "vol", Store: gs, Retry: noRetry}, "golden", "twin"); err == nil {
		t.Fatal("Clone over an existing volume accepted")
	}
}

// TestRecoveryWithNewerCheckpointObject: a checkpoint whose PUT
// completed but whose superblock update did not must be picked up
// during replay (the replayObject TypeCheckpoint path).
func TestRecoveryWithNewerCheckpointObject(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(3, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	_ = s.Seal()
	// Checkpoint object lands; superblock write fails.
	faulty.FailPuts(superName("vol"), -1)
	_ = s.Checkpoint()
	faulty.FailPuts(superName("vol"), 0)
	s2, err := Open(ctx, Config{Volume: "vol", Store: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s2, ext); !bytes.Equal(got, data) {
		t.Fatal("data lost when replaying a stranded checkpoint")
	}
	// The stranded checkpoint became the authoritative one, and the
	// table names it like every other object in the backend.
	if s2.lastCkpt != 3 {
		t.Fatalf("recovered from checkpoint %d, want the stranded one (3)", s2.lastCkpt)
	}
	backendMatchesTable(t, s2, faulty)
}

// TestSecondCrashAfterSuffixCheckpointKeepsPrefix: checkpoint 3 is
// named by the super; victim 4 dies under object 5 and is collected;
// checkpoint 6 lands with its super failing; crash. Open loads 6 from
// the suffix, and 6 releases victim 4. Open must not delete 4 while the
// super still names 3 — a second crash would reopen from 3, stop at the
// hole at 4 and delete 5 and 6 as stranded, losing the acknowledged
// write in 5. Open PUTs the owed super first; when that PUT fails too,
// the delete waits for the session's first checkpoint.
func TestSecondCrashAfterSuffixCheckpointKeepsPrefix(t *testing.T) {
	for _, openSuperFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("open-super-fails=%v", openSuperFails), func(t *testing.T) {
			mem := objstore.NewMem()
			rs := testrec.NewStore(mem)
			faulty := objstore.NewFaulty(rs)
			cfg := Config{Volume: "vol", Store: faulty, Retry: objstore.RetryPolicy{MaxAttempts: -1}}
			s := newVolume(t, nil, Config{Store: faulty, CheckpointEvery: 1 << 30, GCHighWater: 0.99, Retry: cfg.Retry})
			extA, extB := block.Extent{LBA: 0, Sectors: 64}, block.Extent{LBA: 64, Sectors: 64}
			dataA, dataB := payload(41, int(extA.Bytes())), payload(43, int(extB.Bytes()))
			steps := []func() error{
				func() error { return s.Append(1, extA, dataA) }, s.Seal, // 2
				s.Checkpoint, // 3
				func() error { return s.Append(2, extB, payload(42, int(extB.Bytes()))) }, s.Seal, // 4
				func() error { return s.Append(3, extB, dataB) }, s.Seal, // 5: 4 dies whole
				s.RunGC, // 4 is cleaned, pending the next checkpoint
			}
			for i, step := range steps {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			faulty.FailPuts(superName("vol"), -1)
			if err := s.Checkpoint(); !errors.Is(err, objstore.ErrInjected) {
				t.Fatalf("checkpoint 6 with its super failing: %v", err)
			}
			s.Abort()
			if got := backendSuper(t, mem).LastCheckpoint; got != 3 || s.Stats().NextSeq != 7 {
				t.Fatalf("super names %d with next seq %d; the case wants 3 and 7", got, s.Stats().NextSeq)
			}
			if !openSuperFails {
				faulty.FailPuts(superName("vol"), 0)
			}

			opened := rs.Now()
			s2, err := Open(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readAll(t, s2, extA), dataA) || !bytes.Equal(readAll(t, s2, extB), dataB) {
				t.Fatal("first open lost data")
			}
			superDone, deleted := false, false
			for _, e := range rs.Lines()[opened:] {
				switch {
				case e == "put-done vol.super":
					superDone = true
				case strings.HasPrefix(e, "delete ") && !superDone && !deleted:
					deleted = true
					t.Errorf("open issued %q while the super named checkpoint 3", e)
				}
			}
			if superDone == openSuperFails {
				t.Errorf("open landed a super: %v; its PUT was to fail: %v", superDone, openSuperFails)
			}

			// The second crash: open leaves no goroutine behind, so the
			// backend is exactly what it left.
			s3, err := Open(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readAll(t, s3, extA), dataA) || !bytes.Equal(readAll(t, s3, extB), dataB) {
				t.Fatal("second open lost the acknowledged write in object 5")
			}
			if got := s3.DurableWriteSeq(); got != 3 {
				t.Fatalf("second open recovered through write %d, want 3", got)
			}
			backendMatchesTable(t, s3, mem)
			if !openSuperFails {
				return
			}
			// The fault clears: the session's first checkpoint releases 4.
			faulty.FailPuts(superName("vol"), 0)
			if err := s3.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := mem.Size(ctx, objName("vol", 4)); !errors.Is(err, objstore.ErrNotFound) {
				t.Fatalf("victim 4 outlived the first checkpoint after open: %v", err)
			}
			backendMatchesTable(t, s3, mem)
		})
	}
}

// TestOpenTableNamesLoadedCheckpoint: a checkpoint's payload lists the
// object table from before the checkpoint object itself existed; Open
// must add it, or the reopened store counts one object fewer than the
// one that wrote it.
func TestOpenTableNamesLoadedCheckpoint(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	for w := uint64(1); w <= 2; w++ {
		_ = s.Append(w, ext, payload(int64(w), int(ext.Bytes())))
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := s.Stats().Objects
	s2, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Objects; got != live {
		t.Fatalf("reopened store counts %d objects, the store that wrote them %d", got, live)
	}
	backendMatchesTable(t, s2, store)
}

// TestAppendAfterGCFailurePath: injected failures during GC PUTs must
// not corrupt the map — data remains readable from the old objects.
func TestGCPutFailureLeavesDataReadable(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{BatchBytes: 64 * 1024, GCLowWater: 0})
	ext := block.Extent{LBA: 0, Sectors: 128}
	orig := payload(4, int(ext.Bytes()))
	_ = s.Append(1, ext, orig)
	_ = s.Seal()
	half := block.Extent{LBA: 0, Sectors: 64}
	newer := payload(5, int(half.Bytes()))
	_ = s.Append(2, half, newer)
	_ = s.Seal()
	// Fail the next PUT (the GC object).
	faulty.FailEveryNth(1)
	if err := s.RunGC(); err == nil {
		t.Fatal("GC with failing store succeeded")
	}
	faulty.FailEveryNth(0)
	want := append([]byte{}, orig...)
	copy(want, newer)
	if got := readAll(t, s, ext); !bytes.Equal(got, want) {
		t.Fatal("data unreadable after failed GC")
	}
	// A later successful GC pass still works.
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, want) {
		t.Fatal("data wrong after recovered GC")
	}
}

// TestStrandedDeleteFailureDoesNotFailOpen: recovery must tolerate a
// stranded object whose DELETE keeps failing — record it as an orphan,
// open successfully, refuse new object writes until the orphan is
// swept, then sweep it on the next seal.
func TestStrandedDeleteFailureDoesNotFailOpen(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(11, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Plant a stranded object one past the gap (its predecessor's PUT
	// "never completed"), and make its deletion fail forever.
	stranded := objName("vol", s.Stats().NextSeq+1)
	if err := faulty.Put(ctx, stranded, []byte("stranded junk")); err != nil {
		t.Fatal(err)
	}
	faulty.FailDeletes(stranded, -1)

	s2, err := Open(ctx, Config{Volume: "vol", Store: faulty})
	if err != nil {
		t.Fatalf("failed stranded-delete aborted Open: %v", err)
	}
	if got := s2.Stats().OrphanObjects; got != 1 {
		t.Fatalf("orphans=%d want 1", got)
	}
	if got := readAll(t, s2, ext); !bytes.Equal(got, data) {
		t.Fatal("data lost across orphaned recovery")
	}

	// While the orphan is undeletable, no new object may be written:
	// new seqs would fill the gap below the orphan and a crash would
	// make its stale bytes replayable.
	_ = s2.Append(2, ext, payload(12, int(ext.Bytes())))
	if err := s2.Seal(); !errors.Is(err, objstore.ErrInjected) {
		t.Fatalf("seal ignored a sweep failure: %v", err)
	}

	// Heal: the next seal sweeps the orphan and proceeds.
	faulty.FailDeletes(stranded, 0)
	if err := s2.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().OrphanObjects; got != 0 {
		t.Fatalf("orphans=%d after sweep", got)
	}
	if _, err := faulty.Size(ctx, stranded); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("orphan still on the backend: %v", err)
	}
}

// TestTruncatedTailObjectIsCrashGap: a tail object cut short by a torn
// PUT must read as the crash gap — recovery keeps the prefix before
// it, deletes the remnant, and Open succeeds.
func TestTruncatedTailObjectIsCrashGap(t *testing.T) {
	for name, cut := range map[string]func(raw []byte) []byte{
		"data":   func(raw []byte) []byte { return raw[:len(raw)/3] }, // header intact, data short
		"header": func(raw []byte) []byte { return raw[:40] },         // header itself truncated
		"empty":  func(raw []byte) []byte { return nil },              // zero-byte object
	} {
		t.Run(name, func(t *testing.T) {
			mem := objstore.NewMem()
			s := newVolume(t, mem, Config{CheckpointEvery: 1 << 30})
			extA := block.Extent{LBA: 0, Sectors: 64}
			dataA := payload(21, int(extA.Bytes()))
			_ = s.Append(1, extA, dataA)
			_ = s.Seal()
			extB := block.Extent{LBA: 128, Sectors: 64}
			_ = s.Append(2, extB, payload(22, int(extB.Bytes())))
			_ = s.Seal()
			tail := objName("vol", s.Stats().NextSeq-1)
			raw, err := mem.Get(ctx, tail)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(ctx, tail, cut(raw)); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(ctx, Config{Volume: "vol", Store: mem})
			if err != nil {
				t.Fatalf("truncated tail aborted Open: %v", err)
			}
			// Prefix before the torn object survives; the torn write
			// is gone, reading as a hole.
			if got := readAll(t, s2, extA); !bytes.Equal(got, dataA) {
				t.Fatal("prefix data lost")
			}
			if got := readAll(t, s2, extB); !bytes.Equal(got, make([]byte, extB.Bytes())) {
				t.Fatal("torn object's data visible after recovery")
			}
			if got := s2.Stats().DurableWriteSeq; got != 1 {
				t.Fatalf("durable=%d want 1", got)
			}
			// The remnant was deleted as stranded and its seq reused.
			if _, err := mem.Size(ctx, tail); !errors.Is(err, objstore.ErrNotFound) {
				t.Fatalf("torn remnant not deleted: %v", err)
			}
			_ = s2.Append(3, extB, payload(23, int(extB.Bytes())))
			if err := s2.Seal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendRetriesSurfaceInStats: the default Config wraps the store
// in a Retrier, so a transient failure is absorbed invisibly but
// counted.
func TestBackendRetriesSurfaceInStats(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(31, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	faulty.FailPuts(objName("vol", s.Stats().NextSeq), 1) // one transient blip
	if err := s.Seal(); err != nil {
		t.Fatalf("retrier did not absorb the blip: %v", err)
	}
	if got := s.Stats().BackendRetries; got == 0 {
		t.Fatal("absorbed retry not counted")
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, data) {
		t.Fatal("data wrong after absorbed retry")
	}
}
