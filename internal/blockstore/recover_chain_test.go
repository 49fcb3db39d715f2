package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// ckptHistory builds a volume with three generations of data, each
// followed by an explicit checkpoint, and returns the extents written.
// A snapshot of the empty volume keeps every checkpoint the chain walk
// can reach; without one, each checkpoint deletes the one before it.
// Layout (Create's initial checkpoint is seq 1):
//
//	seq 2 ckpt (prev 1) of snapshot "chain" at seq 1
//	seq 3 data A, seq 4 ckpt (prev 2)
//	seq 5 data B, seq 6 ckpt (prev 4)
//	seq 7 data C, seq 8 ckpt (prev 6)
func ckptHistory(t *testing.T, store objstore.Store) (a, b, c block.Extent, dataA, dataB []byte) {
	t.Helper()
	s := newVolume(t, store, Config{})
	if _, err := s.CreateSnapshot("chain"); err != nil {
		t.Fatal(err)
	}
	a = block.Extent{LBA: 0, Sectors: 8}
	b = block.Extent{LBA: 100, Sectors: 8}
	c = block.Extent{LBA: 200, Sectors: 8}
	dataA = payload(1, int(a.Bytes()))
	dataB = payload(2, int(b.Bytes()))
	for i, w := range []struct {
		ext  block.Extent
		data []byte
	}{{a, dataA}, {b, dataB}, {c, payload(3, int(c.Bytes()))}} {
		if err := s.Append(uint64(i+1), w.ext, w.data); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if s.nextSeq != 9 {
		t.Fatalf("history layout drifted: nextSeq = %d, want 9", s.nextSeq)
	}
	return a, b, c, dataA, dataB
}

// A read-only mount as of an object sequence (open with a limit, as a
// snapshot mount does) below the newest checkpoint must walk the prevCkpt chain from
// the superblock's pointer back to the newest checkpoint at or before
// the limit, then replay only up to the limit.
func TestOpenAtWalksCheckpointChain(t *testing.T) {
	store := objstore.NewMem()
	a, b, c, dataA, dataB := ckptHistory(t, store)

	// Limit 5: the walk is 8 → 6 → 4; replay covers (4, 5].
	s, err := open(ctx, Config{Volume: "vol", Store: store, VolSectors: volSectors}, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.lastCkpt != 4 {
		t.Fatalf("landed on checkpoint %d, want 4", s.lastCkpt)
	}
	if got := readAll(t, s, a); !bytes.Equal(got, dataA) {
		t.Fatal("first generation lost")
	}
	if got := readAll(t, s, b); !bytes.Equal(got, dataB) {
		t.Fatal("second generation (replayed past the older checkpoint) lost")
	}
	for _, run := range s.Lookup(c) {
		if run.Present {
			t.Fatalf("third generation visible at limit 5: %v", run)
		}
	}
	// A snapshot mount never deletes "stranded" objects above the limit.
	if _, err := store.Get(ctx, objName("vol", 7)); err != nil {
		t.Fatalf("object above the mount limit was deleted: %v", err)
	}
}

// A mount exactly at a checkpoint's own sequence lands on it with no
// replay at all.
func TestOpenAtLandsOnOlderCheckpoint(t *testing.T) {
	store := objstore.NewMem()
	a, b, _, dataA, _ := ckptHistory(t, store)

	s, err := open(ctx, Config{Volume: "vol", Store: store, VolSectors: volSectors}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.lastCkpt != 4 {
		t.Fatalf("landed on checkpoint %d, want 4", s.lastCkpt)
	}
	if got := readAll(t, s, a); !bytes.Equal(got, dataA) {
		t.Fatal("first generation lost")
	}
	for _, run := range s.Lookup(b) {
		if run.Present {
			t.Fatalf("second generation visible at limit 4: %v", run)
		}
	}
	if s.stats.recoveredObjects != 0 {
		t.Fatalf("replayed %d objects at an exact checkpoint landing", s.stats.recoveredObjects)
	}
}

// rewriteCheckpointPrev re-encodes checkpoint object seq with its
// prevCkpt pointer replaced — a targeted corruption of the chain.
func rewriteCheckpointPrev(t *testing.T, store objstore.Store, seq, prev uint32) {
	t.Helper()
	raw, err := store.Get(ctx, objName("vol", seq))
	if err != nil {
		t.Fatal(err)
	}
	h, pl, _, err := journal.Decode(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeCheckpoint(pl)
	if err != nil {
		t.Fatal(err)
	}
	p.prevCkpt = prev
	body := encodeCheckpointForFuzz(p)
	h.DataLen = uint64(len(body))
	rec, err := journal.Encode(h, body, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, objName("vol", seq), rec); err != nil {
		t.Fatal(err)
	}
}

// A corrupt prevCkpt chain — a self-reference, a forward pointer, or a
// multi-node cycle — must surface as an error, never an infinite walk.
func TestOpenAtBrokenCheckpointChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev map[uint32]uint32 // ckpt seq -> corrupted prevCkpt
	}{
		{"self-reference", map[uint32]uint32{6: 6}},
		{"forward-pointer", map[uint32]uint32{6: 8}},
		{"two-node-cycle", map[uint32]uint32{8: 6, 6: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := objstore.NewMem()
			ckptHistory(t, store)
			for seq, prev := range tc.prev {
				rewriteCheckpointPrev(t, store, seq, prev)
			}
			// Limit 3 forces the walk below the corrupted links.
			_, err := open(ctx, Config{Volume: "vol", Store: store, VolSectors: volSectors}, 3, true)
			if err == nil {
				t.Fatal("a mount below a broken chain succeeded")
			}
			if !strings.Contains(err.Error(), "no checkpoint at or before seq") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// epochBucket holds a bucket and the writes made to its volume "vol",
// one object per write, across sessions that each end in Abort.
type epochBucket struct {
	store objstore.Store
	cfg   Config
	want  []block.Extent
}

func newEpochBucket(t *testing.T) (*epochBucket, *Store) {
	store := objstore.NewMem()
	b := &epochBucket{store: store, cfg: Config{Volume: "vol", Store: store, CheckpointEvery: 1 << 30}}
	return b, newVolume(t, store, Config{CheckpointEvery: 1 << 30})
}

// write appends the next write in an object of its own and aborts.
func (b *epochBucket) write(t *testing.T, s *Store) {
	t.Helper()
	ext := block.Extent{LBA: block.LBA(len(b.want)) * 8, Sectors: 8}
	b.want = append(b.want, ext)
	if err := s.Append(uint64(len(b.want)), ext, payload(int64(len(b.want)), int(ext.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
}

// reopen opens the volume and checks that every write reads back.
func (b *epochBucket) reopen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(ctx, b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ext := range b.want {
		if !bytes.Equal(readAll(t, s, ext), payload(int64(i+1), int(ext.Bytes()))) {
			t.Fatalf("write %d lost", i+1)
		}
	}
	return s
}

// rewrite re-encodes every object's header through fn, and returns the
// epochs the headers carried, by object number.
func (b *epochBucket) rewrite(t *testing.T, fn func(h *journal.Header)) map[uint32]uint32 {
	t.Helper()
	names, err := b.store.List(ctx, "vol.")
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[uint32]uint32{}
	for _, seq := range sortedSeqs("vol", names) {
		raw, err := b.store.Get(ctx, objName("vol", seq))
		if err != nil {
			t.Fatal(err)
		}
		h, data, _, err := journal.Decode(raw, false)
		if err != nil {
			t.Fatal(err)
		}
		if h.Seq != uint64(seq) {
			t.Fatalf("object %d carries object number %d", seq, h.Seq)
		}
		epochs[seq] = h.Epoch
		fn(h)
		if raw, err = journal.Encode(h, data, false); err != nil {
			t.Fatal(err)
		}
		if err := b.store.Put(ctx, objName("vol", seq), raw); err != nil {
			t.Fatal(err)
		}
	}
	return epochs
}

// TestEpochZeroBucketOpens: each object's header carries its session's
// epoch, a writable open taking one above every epoch it saw; and a
// bucket whose objects all carry epoch 0, as one written before objects
// carried epochs, opens with every write and goes on from epoch 1.
func TestEpochZeroBucketOpens(t *testing.T) {
	b, s := newEpochBucket(t)
	b.write(t, s) // object 2, beside Create's checkpoint 1
	b.write(t, b.reopen(t))
	if got := b.rewrite(t, func(*journal.Header) {}); got[1] != 0 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("epochs by object %v, want 0, 0, 1", got)
	}
	b.rewrite(t, func(h *journal.Header) { h.Epoch = 0 })
	s = b.reopen(t)
	if s.epoch != 1 {
		t.Fatalf("an open of an epoch-0 bucket took epoch %d", s.epoch)
	}
	b.write(t, s)
	b.reopen(t).Abort()
}

// TestPackedStampBucketOpens: a bucket whose headers carry the retired
// stamp, epoch·2³² + object number in Seq over a zero epoch word, opens
// with every write; and a stranded object a dead session left behind it,
// with a lower packed epoch than the object it would follow, is still
// not replayed, but deleted.
func TestPackedStampBucketOpens(t *testing.T) {
	b, s := newEpochBucket(t)
	b.write(t, s)           // object 2, epoch 0
	b.write(t, b.reopen(t)) // object 3, epoch 1
	b.write(t, b.reopen(t)) // object 4, epoch 2
	b.rewrite(t, func(h *journal.Header) { h.Seq, h.Epoch = uint64(h.Epoch)<<32|h.Seq, 0 })
	raw, err := b.store.Get(ctx, objName("vol", 4))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(raw[16:]) != 2<<32|4 || binary.LittleEndian.Uint32(raw[44:]) != 0 {
		t.Fatal("object 4 does not carry the packed stamp")
	}

	// Object 5 of the session of epoch 1, landed after object 4's.
	ext := block.Extent{LBA: 0, Sectors: 8}
	stale, err := journal.Encode(&journal.Header{Type: journal.TypeData, Seq: 1<<32 | 5, WriteSeq: 9,
		Extents: []journal.ExtentEntry{{LBA: ext.LBA, Sectors: ext.Sectors, SrcSeq: 5}}, DataLen: uint64(ext.Bytes())},
		payload(99, int(ext.Bytes())), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.store.Put(ctx, objName("vol", 5), stale); err != nil {
		t.Fatal(err)
	}
	s = b.reopen(t)
	if st := s.Stats(); st.RecoveredObjects != 3 || s.epoch != 3 {
		t.Fatalf("replayed %d objects and took epoch %d; want objects 2 to 4 and epoch 3", st.RecoveredObjects, s.epoch)
	}
	if _, err := b.store.Size(ctx, objName("vol", 5)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("the stranded object is still in the bucket (%v)", err)
	}
	b.write(t, s)
	b.reopen(t).Abort()
}

// TestRetiredStamp: open reads a header of the retired stamp,
// epoch·2³² + position in Seq over a zero epoch word, as the two
// fields; a Seq that fits 32 bits is epoch 0, and an epoch word that is
// not zero leaves the header as written.
func TestRetiredStamp(t *testing.T) {
	for _, c := range []struct {
		seq       uint64
		epoch     uint32
		wantSeq   uint64
		wantEpoch uint32
	}{
		{5<<32 | 10, 0, 10, 5},
		{10, 0, 10, 0},
		{5<<32 | 10, 2, 5<<32 | 10, 2},
	} {
		h := retiredStamp(&journal.Header{Seq: c.seq, Epoch: c.epoch})
		if h.Seq != c.wantSeq || h.Epoch != c.wantEpoch {
			t.Errorf("Seq %#x over epoch %d read as Seq %#x, epoch %d", c.seq, c.epoch, h.Seq, h.Epoch)
		}
	}
	if retiredStamp(nil) != nil {
		t.Error("a missing header read as one")
	}
}
