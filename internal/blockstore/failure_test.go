package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{CheckpointEvery: 1 << 30})
	ext, ext2 := block.Extent{LBA: 0, Sectors: 64}, block.Extent{LBA: 64, Sectors: 64}
	data, data2 := payload(2, int(ext.Bytes())), payload(12, int(ext2.Bytes()))
	_ = s.Append(1, ext, data)
	_ = s.Seal()
	heal := rs.Fail(testrec.Super, testrec.ErrFault)
	if err := s.Checkpoint(); !errors.Is(err, testrec.ErrFault) {
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
	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, s2, ext), data) || !bytes.Equal(readAll(t, s2, ext2), data2) {
		t.Fatal("data lost after failed checkpoint")
	}

	// The fault clears: the same store's next fence lands the owed super
	// naming the number the checkpoint already holds, so the log stays
	// dense and the object whose PUT did land is the checkpoint, not a
	// stranded object.
	heal()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the fault cleared: %v", err)
	}
	if st := s.Stats(); st.InflightObjects != 0 || st.NextSeq != failedAt+3 {
		t.Fatalf("after the retry: %d in flight, next seq %d, want 0 and %d", st.InflightObjects, st.NextSeq, failedAt+3)
	}
	s3, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, s3, ext), data) || !bytes.Equal(readAll(t, s3, ext2), data2) {
		t.Fatal("data lost after the retried checkpoint")
	}
	if st := s3.Stats(); st.RecoveredObjects != 0 || st.NextSeq != failedAt+3 {
		t.Fatalf("reopen replayed %d objects to seq %d, want 0, %d",
			st.RecoveredObjects, st.NextSeq, failedAt+3)
	}
	backendMatchesTable(t, s3, rs)
}

// TestFailedCreateSnapshotNotPublishedByRetry: a CreateSnapshot whose
// super PUT fails returns the error and takes its entry back; the
// checkpoint it wrote is owed a super encoded per attempt, so the retry
// the next fence drives publishes a super without the snapshot.
func TestFailedCreateSnapshotNotPublishedByRetry(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	_ = s.Append(1, ext, payload(6, int(ext.Bytes())))
	if _, err := s.CreateSnapshot("kept"); err != nil {
		t.Fatal(err)
	}
	heal := rs.Fail(testrec.Super, testrec.ErrFault)
	if _, err := s.CreateSnapshot("lost"); !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("super failure not surfaced: %v", err)
	}
	heal()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	info := backendSuper(t, rs)
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
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{CheckpointEvery: 1 << 30})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(3, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	_ = s.Seal()
	// Checkpoint object lands; superblock write fails.
	heal := rs.Fail(testrec.Super, testrec.ErrFault)
	_ = s.Checkpoint()
	heal()
	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
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
	backendMatchesTable(t, s2, rs)
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
			cfg := Config{Volume: "vol", Store: rs, Retry: objstore.RetryPolicy{MaxAttempts: -1}}
			s := newVolume(t, nil, Config{Store: rs, CheckpointEvery: 1 << 30, GCHighWater: 0.99, Retry: cfg.Retry})
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
			heal := rs.Fail(testrec.Super, testrec.ErrFault)
			if err := s.Checkpoint(); !errors.Is(err, testrec.ErrFault) {
				t.Fatalf("checkpoint 6 with its super failing: %v", err)
			}
			s.Abort()
			if got := backendSuper(t, mem).LastCheckpoint; got != 3 || s.Stats().NextSeq != 7 {
				t.Fatalf("super names %d with next seq %d; the case wants 3 and 7", got, s.Stats().NextSeq)
			}
			if !openSuperFails {
				heal()
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
			heal()
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
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{BatchBytes: 64 * 1024, GCLowWater: 0})
	ext := block.Extent{LBA: 0, Sectors: 128}
	orig := payload(4, int(ext.Bytes()))
	_ = s.Append(1, ext, orig)
	_ = s.Seal()
	half := block.Extent{LBA: 0, Sectors: 64}
	newer := payload(5, int(half.Bytes()))
	_ = s.Append(2, half, newer)
	_ = s.Seal()
	// Fail the next PUT (the GC object).
	heal := rs.Fail(testrec.Kinds(testrec.Put, testrec.Delete), testrec.ErrFault)
	if err := s.RunGC(); err == nil {
		t.Fatal("GC with failing store succeeded")
	}
	heal()
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

// TestStrandedDeleteFailureDoesNotFailOpen: a dead session's object
// stranded past a gap, holding a block, whose DELETE fails forever,
// neither fails the open nor blocks a write: the next session's write
// of that block fills the gap and destages, and the recovery after that
// session crashes leaves the stranded object out, for it is of an older
// epoch than the object before it (DESIGN.md §11.3).
func TestStrandedDeleteFailureDoesNotFailOpen(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	ext := block.Extent{LBA: 0, Sectors: 64}
	s := newVolume(t, rs, Config{CheckpointEvery: 1 << 30, BatchBytes: ext.Bytes()})
	data := payload(11, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// The next object's PUT never lands; the one behind it, which
	// overwrites ext, does, and the session dies. Each write fills a
	// batch and seals it.
	gap := s.Stats().NextSeq
	stranded := objName("vol", gap+1)
	lost := rs.Fail(testrec.Puts.Named(objName("vol", gap)), testrec.ErrFault)
	from := rs.Now()
	_ = s.Append(2, block.Extent{LBA: 512, Sectors: 64}, payload(12, int(ext.Bytes())))
	_ = s.Append(3, ext, payload(13, int(ext.Bytes())))
	if !rs.Await(from, testrec.Puts.Named(stranded), 5*time.Second) {
		t.Fatal("the object past the gap never landed")
	}
	s.Abort()
	lost()
	rs.Fail(testrec.Deletes.Named(stranded), testrec.ErrFault)

	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatalf("failed stranded-delete aborted Open: %v", err)
	}
	if got := readAll(t, s2, ext); !bytes.Equal(got, data) {
		t.Fatal("data lost across recovery")
	}
	newer := payload(14, int(ext.Bytes()))
	_ = s2.Append(2, ext, newer)
	if err := s2.Seal(); err != nil {
		t.Fatalf("a write with a stranded object undeletable did not destage: %v", err)
	}
	s2.Abort()
	if _, err := rs.Size(ctx, stranded); err != nil {
		t.Fatalf("the stranded object is gone: %v", err)
	}

	s3, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s3, ext); !bytes.Equal(got, newer) {
		t.Fatal("recovery replayed the stranded object over the write that followed it")
	}
	if st := s3.Stats(); st.NextSeq != gap+1 || st.DurableWriteSeq != 2 {
		t.Fatalf("recovered to next seq %d, write %d; want %d, 2", st.NextSeq, st.DurableWriteSeq, gap+1)
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
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(31, int(ext.Bytes()))
	_ = s.Append(1, ext, data)
	rs.Fail(testrec.Puts.Named(objName("vol", s.Stats().NextSeq)).Once(), testrec.ErrFault) // one transient blip
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
