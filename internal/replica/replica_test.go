package replica

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/objstore"
	"lsvd/internal/testleak"
	"lsvd/internal/testrec"
)

func TestMain(m *testing.M) { testleak.Main(m) }

var ctx = context.Background()

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func readAll(t *testing.T, s *blockstore.Store, ext block.Extent) []byte {
	t.Helper()
	buf := make([]byte, ext.Bytes())
	for _, run := range s.Lookup(ext) {
		if !run.Present {
			continue
		}
		data, err := s.ReadRun(run)
		if err != nil {
			t.Fatal(err)
		}
		copy(buf[(run.LBA-ext.LBA).Bytes():], data)
	}
	return buf
}

var errDown = errors.New("replica backend down")

// waitCaughtUp blocks until the shipper's lag is zero and the replica
// holds a superblock.
func waitCaughtUp(t *testing.T, sh *Shipper, replica objstore.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := sh.Stats()
		if st.LagObjects == 0 {
			if _, err := replica.Size(ctx, "vol.super"); err == nil {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("shipper never caught up")
}

func TestShipperMirrorsVolume(t *testing.T) {
	primary := objstore.NewMem()
	secondary := objstore.NewMem()
	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 128 * 1024, CheckpointEvery: 4, Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})

	want := map[int][]byte{}
	ws := uint64(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			ws++
			ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
			d := payload(int64(ws), int(ext.Bytes()))
			want[i] = d
			if err := bs.Append(ws, ext, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sh.Close()

	st := sh.Stats()
	if st.CopiedObjects == 0 {
		t.Fatal("nothing replicated")
	}
	if st.LagObjects != 0 || st.LagBytes != 0 {
		t.Fatalf("lag after drain: %d objects / %d bytes", st.LagObjects, st.LagBytes)
	}
	if bsStats := bs.Stats(); bsStats.ShippedSeq != bsStats.NextSeq-1 {
		t.Fatalf("watermark %d, next seq %d", bsStats.ShippedSeq, bsStats.NextSeq)
	}

	// Every primary object (and the super) must be on the replica.
	names, err := primary.List(ctx, "vol")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := secondary.Size(ctx, n); err != nil {
			t.Fatalf("object %s missing on replica: %v", n, err)
		}
	}

	// Mount the replica and verify every extent.
	rep, err := blockstore.Open(ctx, blockstore.Config{Volume: "vol", Store: secondary})
	if err != nil {
		t.Fatalf("replica mount: %v", err)
	}
	for i := 0; i < 8; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if got := readAll(t, rep, ext); !bytes.Equal(got, want[i]) {
			t.Fatalf("replica extent %d differs from primary", i)
		}
	}
}

func TestLaggedReplicaIsPrefix(t *testing.T) {
	primary := objstore.NewMem()
	inner := objstore.NewMem()
	secondary := testrec.NewStore(inner)
	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, CheckpointEvery: 4, Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})
	// Bootstrap: let the replica fully catch up (super included), then
	// the backend "goes down" and the primary keeps writing.
	for i := 0; i < 10; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if err := bs.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, sh, inner)
	// The replica backend goes down mid-stream, three PUTs from now,
	// leaving the shipper lagged.
	secondary.Fail(testrec.Puts.After(3), errDown)
	for i := 10; i < 30; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if err := bs.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	sh.Abort() // crash while lagged
	if lag := sh.Stats().LagObjects; lag == 0 {
		t.Fatal("expected a lagged shipper")
	}

	// The lagged replica must still open (older consistent state).
	rep, err := blockstore.Open(ctx, blockstore.Config{Volume: "vol", Store: inner})
	if err != nil {
		t.Fatalf("lagged replica mount: %v", err)
	}
	durable := rep.DurableWriteSeq()
	if durable == 0 || durable >= 30 {
		t.Fatalf("replica watermark %d", durable)
	}
	// Every extent it reports must match the primary's history: the
	// replica is behind, never wrong.
	for i := 0; i < int(durable); i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if got := readAll(t, rep, ext); !bytes.Equal(got, payload(int64(i), int(ext.Bytes()))) {
			t.Fatalf("replica extent %d wrong (watermark %d)", i, durable)
		}
	}
}

func TestReattachIsIncremental(t *testing.T) {
	primary := objstore.NewMem()
	secondary := objstore.NewMem()
	cfg := blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, Replicated: true,
	}
	bs, err := blockstore.Create(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})
	for i := 0; i < 5; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if err := bs.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()
	first := sh.Stats()
	if first.CopiedObjects == 0 {
		t.Fatal("first session copied nothing")
	}

	// "Restart": reopen the volume and attach a fresh shipper. The
	// backlog probe must find everything already present and copy
	// nothing.
	bs2, err := blockstore.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh2 := Start(ctx, Config{Backend: bs2, Replica: secondary})
	sh2.Close()
	second := sh2.Stats()
	if second.CopiedObjects != 0 {
		t.Fatalf("re-attach recopied %d objects", second.CopiedObjects)
	}
	if second.SkippedPresent == 0 {
		t.Fatal("re-attach probed nothing")
	}
	if second.LagObjects != 0 {
		t.Fatalf("re-attach left lag %d", second.LagObjects)
	}
}

// TestReattachRecopiesTornObject models a shipper killed between a
// torn PUT (the objstore fault model leaves prefix-torn objects) and
// its retry: the replica holds a partial object. The re-attach probe
// must not trust presence alone — the size mismatch has to force a
// re-copy, or the torn object would be acked into the replica's
// committed prefix and restore-from-replica would read garbage.
func TestReattachRecopiesTornObject(t *testing.T) {
	primary := objstore.NewMem()
	secondary := objstore.NewMem()
	cfg := blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, Replicated: true,
	}
	bs, err := blockstore.Create(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})
	for i := 0; i < 5; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if err := bs.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()

	// Tear one shipped object: keep only a prefix, as a torn PUT would.
	torn := blockstore.ObjName("vol", 2)
	full, err := secondary.Get(ctx, torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := secondary.Put(ctx, torn, full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}

	bs2, err := blockstore.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh2 := Start(ctx, Config{Backend: bs2, Replica: secondary})
	sh2.Close()
	st := sh2.Stats()
	if st.CopiedObjects != 1 {
		t.Fatalf("probe re-copied %d objects, want exactly the torn one", st.CopiedObjects)
	}
	if st.LagObjects != 0 {
		t.Fatalf("re-attach left lag %d", st.LagObjects)
	}
	if got, err := secondary.Get(ctx, torn); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("torn object not restored to full content (err %v)", err)
	}
}

// TestBackoffClamped: attempt grows without bound during an outage;
// the shift must clamp rather than overflow into a negative or zero
// duration (which would turn the retry loop into a busy-spin).
func TestBackoffClamped(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 1; attempt <= 200; attempt++ {
		d := backoff(attempt)
		if d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, outside (0, 100ms]", attempt, d)
		}
		if d < prev {
			t.Fatalf("backoff(%d) = %v shrank below backoff(%d) = %v", attempt, d, attempt-1, prev)
		}
		prev = d
	}
}

// TestWatermarkOutOfOrderAcks drives the feed API directly: the
// watermark is the contiguously-shipped prefix, so acking a later
// object before an earlier one must not advance it past the gap.
func TestWatermarkOutOfOrderAcks(t *testing.T) {
	primary := objstore.NewMem()
	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 8}
		if err := bs.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	backlog := bs.ShipAttach()
	var numbered []blockstore.ShipEvent
	for _, ev := range backlog {
		if !ev.IsSuper() {
			numbered = append(numbered, ev)
		}
	}
	if len(numbered) < 3 {
		t.Fatalf("backlog has %d numbered events", len(numbered))
	}
	// Ack everything EXCEPT the first: the gap pins the watermark at 0.
	for _, ev := range numbered[1:] {
		bs.ShipAck(ev)
		if got := bs.ShippedSeq(); got >= numbered[1].Seq {
			t.Fatalf("watermark %d advanced past unshipped seq %d", got, numbered[0].Seq)
		}
	}
	bs.ShipAck(numbered[0])
	if got, want := bs.ShippedSeq(), numbered[len(numbered)-1].Seq; got != want {
		t.Fatalf("watermark %d after all acks, want %d", got, want)
	}
	if lag, _ := bs.ShipLag(); lag != 0 {
		t.Fatalf("lag %d after all acks", lag)
	}
}

// TestDeleteSnapshotRespectsShipWatermark is the regression for the
// deferred-deletion path: deleting a snapshot while the shipper is
// lagged (here: not even attached — infinitely lagged) must NOT delete
// the GC victims it was pinning, or the replica's checkpoint would
// dangle. Once the shipper drains, the watermark advance releases
// them.
func TestDeleteSnapshotRespectsShipWatermark(t *testing.T) {
	primary := objstore.NewMem()
	secondary := objstore.NewMem()
	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, CheckpointEvery: 1 << 30, Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := uint64(0)
	write := func(i int, seed int64) {
		t.Helper()
		ws++
		ext := block.Extent{LBA: block.LBA(i * 256), Sectors: 128}
		if err := bs.Append(ws, ext, payload(seed, int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		write(i, int64(i))
	}
	if _, err := bs.CreateSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	// Overwrite everything: the pre-snapshot objects become garbage
	// that GC cleans, with deletion deferred behind the snapshot.
	final := map[int]int64{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			seed := int64(100 + round*4 + i)
			final[i] = seed
			write(i, seed)
		}
	}
	if err := bs.RunGC(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	deleted := bs.Stats().ObjectsDeleted
	if bs.Stats().DeferredDeletes == 0 {
		t.Fatal("expected snapshot-pinned deferred deletions")
	}

	// Snapshot goes away while the shipper is infinitely lagged: the
	// ship watermark must keep every victim on the primary.
	if err := bs.DeleteSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	st := bs.Stats()
	if st.ObjectsDeleted != deleted {
		t.Fatalf("DeleteSnapshot deleted %d objects under a lagged shipper",
			st.ObjectsDeleted-deleted)
	}
	if st.DeferredDeletes == 0 {
		t.Fatal("victims not re-deferred behind the ship watermark")
	}

	// Drain a shipper: every object (victims included) reaches the
	// replica, the watermark advance releases the deferred deletes.
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})
	sh.Close()
	if got := sh.Stats().SkippedGone; got != 0 {
		t.Fatalf("%d objects vanished before shipping (404 on replica restore)", got)
	}
	st = bs.Stats()
	if st.DeferredDeletes != 0 {
		t.Fatalf("%d deferred deletions survived the drained watermark", st.DeferredDeletes)
	}
	if st.ObjectsDeleted == deleted {
		t.Fatal("watermark advance released no deletions")
	}

	// The replica restores with no 404: every mapped extent readable.
	rep, err := blockstore.Open(ctx, blockstore.Config{Volume: "vol", Store: secondary})
	if err != nil {
		t.Fatalf("replica mount: %v", err)
	}
	for i := 0; i < 4; i++ {
		ext := block.Extent{LBA: block.LBA(i * 256), Sectors: 128}
		if got := readAll(t, rep, ext); !bytes.Equal(got, payload(final[i], int(ext.Bytes()))) {
			t.Fatalf("replica extent %d wrong after snapshot delete + GC", i)
		}
	}
}

func TestShipperRetriesFaults(t *testing.T) {
	primary := objstore.NewMem()
	inner := objstore.NewMem()
	faulty := objstore.NewFaulty(inner)
	faulty.Arm(objstore.FaultConfig{
		Seed: 7, Rates: objstore.UniformRates(0.3), TornWrites: true,
	})
	secondary := objstore.NewRetrier(faulty, objstore.RetryPolicy{})
	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume: "vol", Store: primary, VolSectors: 1 << 20,
		BatchBytes: 64 * 1024, CheckpointEvery: 4, Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := Start(ctx, Config{Backend: bs, Replica: secondary})
	want := map[int][]byte{}
	ws := uint64(0)
	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			ws++
			ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
			d := payload(int64(ws), int(ext.Bytes()))
			want[i] = d
			if err := bs.Append(ws, ext, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	faulty.Disarm() // heal before the drain so Close converges
	sh.Close()
	if lag := sh.Stats().LagObjects; lag != 0 {
		t.Fatalf("lag %d after drain", lag)
	}
	rep, err := blockstore.Open(ctx, blockstore.Config{Volume: "vol", Store: inner})
	if err != nil {
		t.Fatalf("replica mount after faults: %v", err)
	}
	for i := 0; i < 4; i++ {
		ext := block.Extent{LBA: block.LBA(i * 512), Sectors: 64}
		if got := readAll(t, rep, ext); !bytes.Equal(got, want[i]) {
			t.Fatalf("replica extent %d differs after faulted shipping", i)
		}
	}
}
