package blockstore

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/objstore"
	"lsvd/internal/testleak"
	"lsvd/internal/testrec"
)

func TestMain(m *testing.M) { testleak.Main(m) }

var ctx = context.Background()

const volSectors = block.LBA(1 << 20) // 512 MiB virtual disk

func newVolume(t *testing.T, store objstore.Store, cfg Config) *Store {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = store
	}
	if cfg.Volume == "" {
		cfg.Volume = "vol"
	}
	if cfg.VolSectors == 0 {
		cfg.VolSectors = volSectors
	}
	s, err := Create(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.StopGC)
	return s
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// readAll reads ext via Lookup/ReadRun, zero-filling holes.
func readAll(t *testing.T, s *Store, ext block.Extent) []byte {
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

func TestWriteSealRead(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{})
	ext := block.Extent{LBA: 100, Sectors: 64}
	data := payload(1, int(ext.Bytes()))
	if err := s.Append(1, ext, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Uninitialized ranges read as zeros (absent runs).
	runs := s.Lookup(block.Extent{LBA: 500000, Sectors: 8})
	if len(runs) != 1 || runs[0].Present {
		t.Fatalf("uninitialized range: %+v", runs)
	}
}

func TestAutoSealAtBatchSize(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{BatchBytes: 256 * 1024})
	buf := payload(1, 64*1024)
	for i := 0; i < 8; i++ {
		ext := block.Extent{LBA: block.LBA(i * 128), Sectors: 128}
		if err := s.Append(uint64(i+1), ext, buf); err != nil {
			t.Fatal(err)
		}
	}
	// The auto-seals only queued their uploads; fence before reading
	// Stats. The batch is empty here, so this Seal adds no object.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects < 3 { // initial checkpoint + one data object per filled batch
		t.Fatalf("no auto-seal: %+v", st)
	}
	if st.DurableWriteSeq == 0 {
		t.Fatal("destage watermark not advanced")
	}
}

func TestIntraBatchCoalescing(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{})
	ext := block.Extent{LBA: 0, Sectors: 32}
	_ = s.Append(1, ext, payload(1, int(ext.Bytes())))
	newer := payload(2, int(ext.Bytes()))
	_ = s.Append(2, ext, newer)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesCoalesced != uint64(ext.Bytes()) {
		t.Fatalf("coalesced %d bytes, want %d", st.BytesCoalesced, ext.Bytes())
	}
	if got := readAll(t, s, ext); !bytes.Equal(got, newer) {
		t.Fatal("coalesced batch returned stale data")
	}
	// The sealed object holds only one copy.
	if st.DataSectors != uint64(ext.Sectors) {
		t.Fatalf("object holds %d sectors, want %d", st.DataSectors, ext.Sectors)
	}
}

func TestNoCoalesceMode(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{NoCoalesce: true})
	ext := block.Extent{LBA: 0, Sectors: 32}
	_ = s.Append(1, ext, payload(1, int(ext.Bytes())))
	newer := payload(2, int(ext.Bytes()))
	_ = s.Append(2, ext, newer)
	_ = s.Seal()
	st := s.Stats()
	if st.DataSectors != 2*uint64(ext.Sectors) {
		t.Fatalf("no-coalesce object holds %d sectors, want %d", st.DataSectors, 2*ext.Sectors)
	}
	// Later write must still win (arrival order preserved in header).
	if got := readAll(t, s, ext); !bytes.Equal(got, newer) {
		t.Fatal("no-coalesce lost write order")
	}
}

func TestTrimAcrossBatches(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	_ = s.Append(1, ext, payload(1, int(ext.Bytes())))
	_ = s.Seal()
	if err := s.Trim(2, block.Extent{LBA: 16, Sectors: 16}); err != nil {
		t.Fatal(err)
	}
	_ = s.Seal()
	runs := s.Lookup(ext)
	if len(runs) != 3 || runs[1].Present {
		t.Fatalf("trim not applied: %+v", runs)
	}
}

func TestRecovery(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{CheckpointEvery: 4, BatchBytes: 64 * 1024})
	want := map[int][]byte{}
	for i := 0; i < 20; i++ {
		ext := block.Extent{LBA: block.LBA(i * 200), Sectors: 64}
		d := payload(int64(i), int(ext.Bytes()))
		want[i] = d
		if err := s.Append(uint64(i+1), ext, d); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Seal()
	_ = s.Trim(21, block.Extent{LBA: 0, Sectors: 32})
	_ = s.Seal()

	s2, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s2.VolSectors() != volSectors {
		t.Fatalf("volume size lost: %d", s2.VolSectors())
	}
	for i := 1; i < 20; i++ {
		ext := block.Extent{LBA: block.LBA(i * 200), Sectors: 64}
		if got := readAll(t, s2, ext); !bytes.Equal(got, want[i]) {
			t.Fatalf("write %d lost after recovery", i)
		}
	}
	// The trim survived.
	runs := s2.Lookup(block.Extent{LBA: 0, Sectors: 32})
	if len(runs) != 1 || runs[0].Present {
		t.Fatalf("trim lost: %+v", runs)
	}
	if s2.DurableWriteSeq() < 20 {
		t.Fatalf("watermark %d", s2.DurableWriteSeq())
	}
}

// TestOpenReplaysSuffixWithOverlappingProbes: after a crash with no
// checkpoint since Create, Open replays every sealed object, and the
// header probes of that suffix are in flight together — recovery costs
// suffix/openFanout round trips, not one per object.
func TestOpenReplaysSuffixWithOverlappingProbes(t *testing.T) {
	const n = 64
	mem := objstore.NewMem()
	s := newVolume(t, mem, Config{BatchBytes: 64 * 1024, CheckpointEvery: 1 << 30})
	buf := payload(1, 64*1024)
	for i := 0; i < n; i++ {
		if err := s.Append(uint64(i+1), block.Extent{LBA: block.LBA(i * 128), Sectors: 128}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.Abort()

	// The first range GET parks until a second is in flight. The wait is
	// time-boxed: a recovery that probes headers one at a time trips the
	// box on its first probe, which lets the rest through, so a serial
	// replay fails the test instead of hanging it.
	store := testrec.NewStore(mem)
	p := store.Park(testrec.GetRanges)
	overlapped := make(chan bool, 1)
	go func() {
		defer p.Release(nil)
		for i := 0; i < 2; i++ {
			select {
			case <-p.Arrived():
			case <-time.After(2 * time.Second):
				overlapped <- false
				return
			}
		}
		overlapped <- true
	}()
	s2, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().RecoveredObjects; got != n {
		t.Fatalf("replayed %d objects, want %d", got, n)
	}
	if !<-overlapped {
		t.Fatalf("recovery probed the %d-object suffix one header at a time", n)
	}
	if got := readAll(t, s2, block.Extent{LBA: (n - 1) * 128, Sectors: 128}); !bytes.Equal(got, buf) {
		t.Fatal("last replayed object reads back wrong")
	}
}

func TestRecoveryPrefixRuleDeletesStranded(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{BatchBytes: 32 * 1024, CheckpointEvery: 1 << 30})
	for i := 0; i < 6; i++ {
		ext := block.Extent{LBA: block.LBA(i * 100), Sectors: 64}
		_ = s.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes())))
	}
	_ = s.Seal()
	// Simulate an in-flight PUT gap: delete a middle object (e.g. 99,
	// 100, 102 seen -> take 99, 100; 102 is stranded).
	names, _ := store.List(ctx, "vol.")
	var seqNames []string
	for _, n := range names {
		if _, ok := parseSeq("vol", n); ok {
			seqNames = append(seqNames, n)
		}
	}
	if len(seqNames) < 4 {
		t.Fatalf("need >=4 objects, have %v", seqNames)
	}
	gap := seqNames[len(seqNames)-2]
	if err := store.Delete(ctx, gap); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// The object after the gap must have been deleted as stranded.
	names2, _ := store.List(ctx, "vol.")
	for _, n := range names2 {
		if n == seqNames[len(seqNames)-1] {
			t.Fatal("stranded object survived recovery")
		}
	}
	if s2.Stats().ObjectsDeleted == 0 {
		t.Fatal("no stranded deletion accounted")
	}
}

func TestGCReclaimsSpaceAndPreservesData(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{
		BatchBytes: 128 * 1024, GCLowWater: 0.70, GCHighWater: 0.75,
		CheckpointEvery: 8,
	})
	// Overwrite a small working set repeatedly to generate garbage. The
	// odd extents are written once, so the first round's objects stay
	// half live and only the collector can reclaim them; every later
	// object dies whole and is reaped without it.
	const ws = 32 // extents
	latest := map[int]int64{}
	seq := uint64(0)
	for round := 0; round < 30; round++ {
		for i := 0; i < ws; i++ {
			if round > 0 && i%2 == 1 {
				continue
			}
			seq++
			ext := block.Extent{LBA: block.LBA(i * 128), Sectors: 64}
			latest[i] = int64(seq)
			if err := s.Append(seq, ext, payload(int64(seq), int(ext.Bytes()))); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = s.Seal()
	// Collection is the paced service's, behind the writes: let it reach
	// the watermark, then stop it so nothing but this test touches the
	// backend while the volume is reopened below.
	waitFor(t, "the GC service to reach the low-water mark", func() bool { return s.Utilization() >= 0.70 })
	s.StopGC()
	if err := s.Checkpoint(); err != nil { // release pending deletes
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GCRuns == 0 || st.ObjectsDeleted == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if u := s.Utilization(); u < 0.65 {
		t.Fatalf("utilization %.2f after GC", u)
	}
	// All newest data intact.
	for i := 0; i < ws; i++ {
		ext := block.Extent{LBA: block.LBA(i * 128), Sectors: 64}
		if got := readAll(t, s, ext); !bytes.Equal(got, payload(latest[i], int(ext.Bytes()))) {
			t.Fatalf("extent %d corrupted by GC", i)
		}
	}
	// And recovery after GC still yields the same data.
	s2, err := Open(ctx, Config{Volume: "vol", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ws; i++ {
		ext := block.Extent{LBA: block.LBA(i * 128), Sectors: 64}
		if got := readAll(t, s2, ext); !bytes.Equal(got, payload(latest[i], int(ext.Bytes()))) {
			t.Fatalf("extent %d corrupted after GC+recovery", i)
		}
	}
}

func TestGCUsesLocalCache(t *testing.T) {
	store := objstore.NewMem()
	hits := 0
	// "Local cache": a sector-granular shadow of everything written,
	// maintained outside the store (the callback runs with the store
	// lock held, so it must not call back into the store).
	shadow := map[block.LBA][]byte{}
	remember := func(ext block.Extent, data []byte) {
		for i := block.LBA(0); i < block.LBA(ext.Sectors); i++ {
			sec := make([]byte, block.SectorSize)
			copy(sec, data[i.Bytes():])
			shadow[ext.LBA+i] = sec
		}
	}
	s := newVolume(t, store, Config{
		BatchBytes: 64 * 1024, GCLowWater: 0, // manual GC
		FetchFromCache: func(ext block.Extent, buf []byte) bool {
			for i := block.LBA(0); i < block.LBA(ext.Sectors); i++ {
				sec, ok := shadow[ext.LBA+i]
				if !ok {
					return false
				}
				copy(buf[i.Bytes():], sec)
			}
			hits++
			return true
		},
	})
	ext := block.Extent{LBA: 0, Sectors: 128}
	d1 := payload(1, int(ext.Bytes()))
	_ = s.Append(1, ext, d1)
	remember(ext, d1)
	_ = s.Seal()
	// Overwrite half; first object becomes 50% utilized.
	half := block.Extent{LBA: 0, Sectors: 64}
	d2 := payload(2, int(half.Bytes()))
	_ = s.Append(2, half, d2)
	remember(half, d2)
	_ = s.Seal()
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("GC did not consult the local cache")
	}
	// Data still correct after cache-served GC.
	want := append([]byte{}, d1...)
	copy(want, d2)
	if got := readAll(t, s, ext); !bytes.Equal(got, want) {
		t.Fatal("cache-served GC corrupted data")
	}
}

func TestSnapshotCreateMountDelete(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{})
	extA := block.Extent{LBA: 0, Sectors: 64}
	origA := payload(1, int(extA.Bytes()))
	_ = s.Append(1, extA, origA)
	_ = s.Seal()
	info, err := s.CreateSnapshot("snap1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq == 0 {
		t.Fatal("zero snapshot seq")
	}
	// Overwrite after the snapshot.
	newerA := payload(2, int(extA.Bytes()))
	_ = s.Append(2, extA, newerA)
	_ = s.Seal()
	if got := readAll(t, s, extA); !bytes.Equal(got, newerA) {
		t.Fatal("live volume lost overwrite")
	}
	// Mount the snapshot read-only: sees the original.
	snap, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: store}, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, snap, extA); !bytes.Equal(got, origA) {
		t.Fatal("snapshot does not reflect point-in-time state")
	}
	if err := snap.Append(3, extA, origA); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot mount writable: %v", err)
	}
	if err := s.DeleteSnapshot("snap1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("snap1"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestSnapshotDefersGCDeletes(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{BatchBytes: 64 * 1024, GCLowWater: 0})
	ext := block.Extent{LBA: 0, Sectors: 128}
	orig := payload(1, int(ext.Bytes()))
	_ = s.Append(1, ext, orig)
	_ = s.Seal()
	if _, err := s.CreateSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	// Fully overwrite; the first object is now garbage but pinned.
	_ = s.Append(2, ext, payload(2, int(ext.Bytes())))
	_ = s.Seal()
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DeferredDeletes == 0 {
		t.Fatal("pinned object not deferred")
	}
	// Snapshot still mounts and reads the original data.
	snap, err := OpenSnapshot(ctx, Config{Volume: "vol", Store: store}, "pin")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, snap, ext); !bytes.Equal(got, orig) {
		t.Fatal("snapshot data destroyed by GC")
	}
	// Deleting the snapshot releases the deferred delete.
	before := s.Stats().ObjectsDeleted
	if err := s.DeleteSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ObjectsDeleted <= before {
		t.Fatal("deferred delete not executed after snapshot removal")
	}
}

func TestCloneSharesBaseAndDiverges(t *testing.T) {
	store := objstore.NewMem()
	base := newVolume(t, store, Config{Volume: "base"})
	ext := block.Extent{LBA: 0, Sectors: 64}
	baseData := payload(1, int(ext.Bytes()))
	_ = base.Append(1, ext, baseData)
	_ = base.Seal()
	if _, err := base.CreateSnapshot("golden"); err != nil {
		t.Fatal(err)
	}
	if err := Clone(ctx, Config{Volume: "base", Store: store}, "golden", "clone1"); err != nil {
		t.Fatal(err)
	}
	if err := Clone(ctx, Config{Volume: "base", Store: store}, "golden", "clone2"); err != nil {
		t.Fatal(err)
	}
	c1, err := Open(ctx, Config{Volume: "clone1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(ctx, Config{Volume: "clone2", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Both clones read the base data through the shared prefix.
	if got := readAll(t, c1, ext); !bytes.Equal(got, baseData) {
		t.Fatal("clone1 cannot read base data")
	}
	// Clone 1 diverges; clone 2 and base unaffected.
	d1 := payload(10, int(ext.Bytes()))
	_ = c1.Append(100, ext, d1)
	_ = c1.Seal()
	if got := readAll(t, c1, ext); !bytes.Equal(got, d1) {
		t.Fatal("clone1 lost its write")
	}
	if got := readAll(t, c2, ext); !bytes.Equal(got, baseData) {
		t.Fatal("clone2 sees clone1's write")
	}
	if got := readAll(t, base, ext); !bytes.Equal(got, baseData) {
		t.Fatal("base modified by clone")
	}
	// Clone recovery works.
	c1b, err := Open(ctx, Config{Volume: "clone1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, c1b, ext); !bytes.Equal(got, d1) {
		t.Fatal("clone1 recovery lost data")
	}
	vol, seq := c1b.BaseImage()
	if vol != "base" || seq == 0 {
		t.Fatalf("base image %q/%d", vol, seq)
	}
}

func TestCloneGCOnlyTouchesOwnObjects(t *testing.T) {
	store := objstore.NewMem()
	base := newVolume(t, store, Config{Volume: "base", BatchBytes: 64 * 1024})
	ext := block.Extent{LBA: 0, Sectors: 128}
	baseData := payload(1, int(ext.Bytes()))
	_ = base.Append(1, ext, baseData)
	_ = base.Seal()
	_, _ = base.CreateSnapshot("g")
	if err := Clone(ctx, Config{Volume: "base", Store: store}, "g", "c"); err != nil {
		t.Fatal(err)
	}
	c, _ := Open(ctx, Config{Volume: "c", Store: store})
	// Clone fully overwrites the base data repeatedly.
	for i := 2; i < 10; i++ {
		_ = c.Append(uint64(i), ext, payload(int64(i), int(ext.Bytes())))
		_ = c.Seal()
	}
	if err := c.RunGC(); err != nil {
		t.Fatal(err)
	}
	_ = c.Checkpoint()
	// Base objects all still present.
	baseNames, _ := store.List(ctx, "base.")
	if len(baseNames) < 3 {
		t.Fatalf("base objects deleted by clone GC: %v", baseNames)
	}
	if got := readAll(t, base, ext); !bytes.Equal(got, baseData) {
		t.Fatal("base data destroyed")
	}
}

func TestWindowExtrasReturnsTemporalNeighbors(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{})
	// Two writes far apart in LBA space land adjacently in the object.
	extA := block.Extent{LBA: 0, Sectors: 32}
	extB := block.Extent{LBA: 100000, Sectors: 32}
	dA := payload(1, int(extA.Bytes()))
	dB := payload(2, int(extB.Bytes()))
	_ = s.Append(1, extA, dA)
	_ = s.Append(2, extB, dB)
	_ = s.Seal()
	runs := s.Lookup(extA)
	if len(runs) != 1 || !runs[0].Present {
		t.Fatalf("lookup: %+v", runs)
	}
	f, err := s.FetchSpan(runs, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if data, err := f.Slice(runs[0]); err != nil || !bytes.Equal(data, dA) {
		t.Fatalf("primary read wrong (err %v)", err)
	}
	// holds(x) is a write cache holding exactly x.
	holds := func(x block.Extent) func(block.Extent) []extmap.Run {
		m := extmap.New()
		if x.Sectors > 0 {
			m.Update(x, extmap.Target{})
		}
		return m.Lookup
	}
	foundB := func(extras []Prefetched) bool {
		for _, ex := range extras {
			if ex.Ext.LBA == extB.LBA && bytes.Equal(ex.Data, dB) {
				return true
			}
		}
		return false
	}
	skip := []block.Extent{extA}
	if extras := s.WindowExtras(f, skip, holds(block.Extent{})); !foundB(extras) {
		t.Fatalf("temporal neighbor not prefetched: %d extras", len(extras))
	}
	// A neighbour the write cache holds has a newer version the map does
	// not show yet: it must not be offered for admission.
	if extras := s.WindowExtras(f, skip, holds(extB)); len(extras) != 0 {
		t.Fatalf("write-cache-held neighbor offered for admission: %+v", extras)
	}
}

func TestCreateExistingVolumeRejected(t *testing.T) {
	store := objstore.NewMem()
	newVolume(t, store, Config{})
	if _, err := Create(ctx, Config{Volume: "vol", Store: store, VolSectors: volSectors}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := Create(ctx, Config{Volume: "x", Store: store}); err == nil {
		t.Fatal("zero-size create accepted")
	}
}

func TestOpenMissingVolumeRejected(t *testing.T) {
	if _, err := Open(ctx, Config{Volume: "ghost", Store: objstore.NewMem()}); err == nil {
		t.Fatal("missing volume opened")
	}
}

func TestWAFAccounting(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{BatchBytes: 256 * 1024, CheckpointEvery: 1 << 30, GCLowWater: 0})
	var clientBytes uint64
	for i := 0; i < 64; i++ {
		ext := block.Extent{LBA: block.LBA(i * 64), Sectors: 32}
		_ = s.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes())))
		clientBytes += uint64(ext.Bytes())
	}
	_ = s.Seal()
	st := s.Stats()
	if st.BytesAppended != clientBytes {
		t.Fatalf("appended %d want %d", st.BytesAppended, clientBytes)
	}
	waf := float64(st.BytesPut) / float64(st.BytesAppended)
	// Object headers are the only overhead here: WAF just over 1.
	if waf < 1.0 || waf > 1.1 {
		t.Fatalf("WAF %.3f", waf)
	}
}
