package blockstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// settle waits until every goroutine of the test is parked, so that
// what has not happened by then cannot happen before the test moves.
func settle(t *testing.T) {
	t.Helper()
	if err := testrec.Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// waitDurable polls until DurableWriteSeq reaches want.
func waitDurable(t *testing.T, s *Store, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.DurableWriteSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("durable watermark stuck at %d, want %d", s.DurableWriteSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultStoreIsThePipeline: a Config that sets no UploadDepth runs
// the upload pipeline like every other store — the Append that fills
// the batch returns with the object's PUT still parked, and Seal is the
// fence that waits for it.
func TestDefaultStoreIsThePipeline(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{BatchBytes: 32 * 1024, CheckpointEvery: 1 << 30})

	p := rs.Park(testrec.Puts.Named(objName("vol", s.Stats().NextSeq)))
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(1, int(ext.Bytes()))
	if err := s.Append(1, ext, data); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InflightObjects != 1 || st.DurableWriteSeq != 0 {
		t.Fatalf("auto-seal did not queue the object behind its parked PUT: %+v", st)
	}
	sealed := make(chan error, 1)
	go func() { sealed <- s.Seal() }()
	<-p.Arrived()
	settle(t)
	select {
	case err := <-sealed:
		t.Fatalf("Seal returned (%v) while the object's PUT was parked", err)
	default:
	}
	p.Release(nil)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InflightObjects != 0 || st.DurableWriteSeq != 1 {
		t.Fatalf("fence returned before the commit: %+v", st)
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, data) {
		t.Fatal("data wrong after the fenced commit")
	}
}

// TestAsyncCommitStaysInOrder: with concurrent uploads, map commit and
// the durable watermark must advance strictly in sequence order even
// when later objects' PUTs finish first (§3.4 prefix consistency).
func TestAsyncCommitStaysInOrder(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{BatchBytes: 32 * 1024, UploadDepth: 4, CheckpointEvery: 1 << 30})

	// Three batch-sized appends auto-seal three objects; hold all of
	// their uploads.
	first := s.Stats().NextSeq
	var parks [3]*testrec.Parked
	for i := range parks {
		parks[i] = rs.Park(testrec.Puts.Named(objName("vol", first+uint32(i))))
	}
	exts := make([]block.Extent, 3)
	data := make([][]byte, 3)
	for i := range exts {
		exts[i] = block.Extent{LBA: block.LBA(i * 64), Sectors: 64}
		data[i] = payload(int64(i+1), int(exts[i].Bytes()))
		if err := s.Append(uint64(i+1), exts[i], data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().InflightObjects; got != 3 {
		t.Fatalf("inflight objects = %d, want 3", got)
	}

	// Let the NEWEST object land first: nothing may commit, or a crash
	// here would expose write 3 without writes 1 and 2.
	parks[2].Release(nil)
	settle(t)
	if got := s.DurableWriteSeq(); got != 0 {
		t.Fatalf("out-of-order commit: durable=%d with earlier uploads pending", got)
	}

	// Oldest lands: exactly write 1 commits (the middle object still
	// holds back the already-uploaded newest).
	parks[0].Release(nil)
	settle(t)
	if got := s.DurableWriteSeq(); got != 1 {
		t.Fatalf("durable=%d after first object, want 1", got)
	}

	// Middle lands: it and the newest commit together.
	parks[1].Release(nil)
	waitDurable(t, s, 3)

	for i := range exts {
		if got := readAll(t, s, exts[i]); !bytes.Equal(got, data[i]) {
			t.Fatalf("extent %d wrong after async commit", i)
		}
	}
	if got := s.Stats().InflightObjects; got != 0 {
		t.Fatalf("inflight objects = %d after full commit", got)
	}
}

// TestAsyncUploadFailureRetriedBySeal: a failed async upload must not
// be lost — the Seal fence resubmits it and succeeds.
func TestAsyncUploadFailureRetriedBySeal(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, objstore.NewRetrier(rs, objstore.RetryPolicy{}), Config{BatchBytes: 32 * 1024, UploadDepth: 2, CheckpointEvery: 1 << 30})

	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(7, int(ext.Bytes()))
	// Fail the upload's whole Retrier budget so it surfaces as a failed
	// in-flight object; the fence's resubmission then succeeds.
	rs.Fail(testrec.Puts.Named(objName("vol", s.Stats().NextSeq)).First(objstore.RetryPolicy{}.Attempts()), testrec.ErrFault)
	if err := s.Append(1, ext, data); err != nil {
		t.Fatal(err) // the PUT failure is asynchronous; Append succeeds
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("seal fence did not retry the failed upload: %v", err)
	}
	if got := s.DurableWriteSeq(); got != 1 {
		t.Fatalf("durable=%d after fenced retry, want 1", got)
	}
	if s.Stats().UploadRetries == 0 {
		t.Fatal("retry not counted")
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, data) {
		t.Fatal("data wrong after retried async upload")
	}
}

// TestAsyncPersistentFailureSurfaces: a PUT that keeps failing must
// surface an error at the fence instead of wedging or silently
// dropping the object.
func TestAsyncPersistentFailureSurfaces(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{BatchBytes: 32 * 1024, UploadDepth: 2, CheckpointEvery: 1 << 30})
	heal := rs.Fail(testrec.Kinds(testrec.Put, testrec.Delete), testrec.ErrFault) // every mutation fails

	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(8, int(ext.Bytes()))
	if err := s.Append(1, ext, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("persistent failure not surfaced: %v", err)
	}
	// Nothing durable, and the object is still held for a retry.
	if st := s.Stats(); st.DurableWriteSeq != 0 || st.PendingBatch == 0 {
		t.Fatalf("failed seal advanced the watermark or dropped the batch: %+v", st)
	}
	// Healing the store lets a later fence succeed.
	heal()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableWriteSeq(); got != 1 {
		t.Fatalf("durable=%d after healed retry, want 1", got)
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, data) {
		t.Fatal("data wrong after retried seal")
	}
}

// TestAbortStrandsOutOfOrderUploads: Abort models a crash while later
// uploads have landed but an earlier one has not. Nothing may commit
// in memory, and recovery's gap rule must delete the stranded objects
// so the volume reopens to a consistent prefix.
func TestAbortStrandsOutOfOrderUploads(t *testing.T) {
	mem := objstore.NewMem()
	rs := testrec.NewStore(mem)
	s := newVolume(t, rs, Config{BatchBytes: 32 * 1024, UploadDepth: 4, CheckpointEvery: 1 << 30})

	first := s.Stats().NextSeq
	p := rs.Park(testrec.Puts.Named(objName("vol", first))) // hold the oldest object's PUT
	exts := make([]block.Extent, 3)
	for i := range exts {
		exts[i] = block.Extent{LBA: block.LBA(i * 64), Sectors: 64}
		if err := s.Append(uint64(i+1), exts[i], payload(int64(i+1), int(exts[i].Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the later uploads to land out of order.
	for i := uint32(1); i < 3; i++ {
		if !rs.Await(0, testrec.Puts.Named(objName("vol", first+i)), 5*time.Second) {
			t.Fatalf("object %d never landed", first+i)
		}
	}

	// "Crash": the held PUT dies with the process. Abort blocks until
	// every issued PUT finishes, so fail the held one beside it. The
	// error wraps context.Canceled so the Retrier treats it as terminal
	// instead of reissuing the PUT.
	<-p.Arrived()
	aborted := make(chan struct{})
	go func() {
		s.Abort()
		close(aborted)
	}()
	p.Release(fmt.Errorf("crash before PUT completed: %w", context.Canceled))
	<-aborted
	if got := s.DurableWriteSeq(); got != 0 {
		t.Fatalf("aborted store committed writes: durable=%d", got)
	}

	// Recovery: the oldest object is missing, so the stranded later
	// objects must be deleted and every read comes back a hole.
	s2, err := Open(ctx, Config{Volume: "vol", Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, exts[0].Bytes())
	for i := range exts {
		if got := readAll(t, s2, exts[i]); !bytes.Equal(got, zero) {
			t.Fatalf("extent %d visible despite broken prefix", i)
		}
	}
	for i := uint32(0); i < 3; i++ {
		if _, err := mem.Size(ctx, objName("vol", first+i)); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("stranded object %d not cleaned up: %v", first+i, err)
		}
	}
}

// TestKickSealsNoRuntBehindAnObjectInFlight: SealAsync is the ring-full
// kick. While a data object is in flight its commit is what will free
// the ring, so a batch under half full keeps filling; from half a batch
// up the kick seals it; and with no data object in flight — an idle
// pipeline, or one holding only a checkpoint marker — it seals at any
// fill, because nothing else would ever move those records.
func TestKickSealsNoRuntBehindAnObjectInFlight(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	const batchBytes = 64 * 1024
	s := newVolume(t, rs, Config{BatchBytes: batchBytes, UploadDepth: 4, CheckpointEvery: 1 << 30})
	var ws uint64
	write := func(sectors uint32) {
		t.Helper()
		ws++
		ext := block.Extent{LBA: block.LBA(ws) * 256, Sectors: sectors}
		if err := s.Append(ws, ext, payload(int64(ws), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	kick := func(wantInflight int, why string) {
		t.Helper()
		if err := s.SealAsync(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().InflightObjects; got != wantInflight {
			t.Fatalf("%s: %d objects in flight after the kick, want %d", why, got, wantInflight)
		}
	}

	// Nothing in flight: a single sector goes out.
	first := rs.Park(testrec.Puts.Named(objName("vol", s.Stats().NextSeq)))
	write(1)
	kick(1, "idle pipeline")

	// That object's PUT is parked. A quarter batch stays where it is...
	write(batchBytes / 4 / block.SectorSize)
	kick(1, "quarter batch behind an object in flight")
	if st := s.Stats(); st.PendingBatch != block.SectorSize+batchBytes/4 {
		t.Fatalf("pending %d bytes: the kick dropped or sealed the open batch", st.PendingBatch)
	}
	// ...and at half a batch it is worth a PUT of its own.
	write(batchBytes / 4 / block.SectorSize)
	kick(2, "half batch behind an object in flight")

	first.Release(nil)
	waitDurable(t, s, ws)

	// A checkpoint marker carries no client writes: behind it alone, a
	// runt is sealed.
	ckpt := rs.Park(testrec.Puts.Named(objName("vol", s.Stats().NextSeq)))
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	<-ckpt.Arrived()
	write(1)
	kick(2, "runt behind a checkpoint marker only")
	ckpt.Release(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitDurable(t, s, ws)
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}
