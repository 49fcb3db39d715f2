package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

var ctx = context.Background()

type harness struct {
	disk  *Disk
	cache *simdev.MemDevice
	store *objstore.Mem
	opts  Options
}

func newHarness(t *testing.T, mutate func(*Options)) *harness {
	t.Helper()
	h := &harness{
		cache: simdev.NewMem(256 * block.MiB),
		store: objstore.NewMem(),
	}
	h.opts = Options{
		HostOptions:   HostOptions{Store: h.store, CacheDev: h.cache},
		VolumeOptions: VolumeOptions{Volume: "vol", VolBytes: 512 * block.MiB},
	}
	if mutate != nil {
		mutate(&h.opts)
	}
	d, err := Create(ctx, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	h.disk = d
	t.Cleanup(func() { h.disk.Kill() })
	return h
}

func (h *harness) reopen(t *testing.T) {
	t.Helper()
	// Stop the old disk's destage pipeline as a crash would (no-op
	// after a clean Close) so it cannot race the reopened volume.
	h.disk.Kill()
	d, err := Open(ctx, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	h.disk = d
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := newHarness(t, nil)
	data := payload(1, 64*1024)
	if err := h.disk.WriteAt(data, 1<<20); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := h.disk.ReadAt(got, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	st := h.disk.Stats()
	if st.WriteCacheHitSectors == 0 {
		t.Fatalf("read not served from write cache: %+v", st)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	h := newHarness(t, nil)
	got := make([]byte, 8192)
	got[0] = 0xFF
	if err := h.disk.ReadAt(got, 64<<20); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("uninitialized data non-zero")
		}
	}
	if h.disk.Stats().ZeroFillSectors == 0 {
		t.Fatal("zero fill not counted")
	}
}

func TestAlignmentAndBoundsChecked(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.disk.WriteAt(make([]byte, 512), 100); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := h.disk.WriteAt(make([]byte, 100), 0); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if err := h.disk.WriteAt(make([]byte, 512), h.disk.Size()); err == nil {
		t.Fatal("write past end accepted")
	}
	if err := h.disk.Trim(1, 512); err == nil {
		t.Fatal("unaligned trim accepted")
	}
	if err := h.disk.Trim(0, h.disk.Size()+512); err == nil {
		t.Fatal("trim past end accepted")
	}
}

func TestReadFallsThroughToBackend(t *testing.T) {
	// Tiny write cache so records are destaged and evicted quickly.
	h := newHarness(t, func(o *Options) {
		o.CacheDev = simdev.NewMem(256 * block.MiB)
		o.BatchBytes = 256 * 1024
	})
	// Write enough distinct data to blow through the write cache.
	const n = 64
	for i := 0; i < n; i++ {
		if err := h.disk.WriteAt(payload(int64(i), 64*1024), int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a FRESH cache: all reads must come from the backend.
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	for i := 0; i < n; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(int64(i), 64*1024)) {
			t.Fatalf("block %d wrong from backend", i)
		}
	}
	st := h.disk.Stats()
	if st.BackendReadSectors == 0 {
		t.Fatal("no backend reads recorded")
	}
	// Re-read: now served by the read cache.
	before := st.BackendReadSectors
	got := make([]byte, 64*1024)
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	st = h.disk.Stats()
	if st.BackendReadSectors != before {
		t.Fatal("second read went to backend despite read cache")
	}
	if st.ReadCacheHitSectors == 0 {
		t.Fatal("read cache hit not counted")
	}
}

func TestWriteAfterReadHazard(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.BatchBytes = 64 * 1024 })
	old := payload(1, 64*1024)
	if err := h.disk.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	h.disk.Drain()
	// Pull the old data into the read cache via a fresh-cache reopen.
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	got := make([]byte, 64*1024)
	h.disk.ReadAt(got, 0)
	// Now write newer data, then read: must see the new data even
	// though the read cache still held the old copy.
	newer := payload(2, 64*1024)
	if err := h.disk.WriteAt(newer, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Fatal("stale read-cache data exposed after write")
	}
}

func TestFlushIsSingleDeviceFlush(t *testing.T) {
	cache := simdev.NewMem(256 * block.MiB)
	metered := simdev.NewMetered(cache, iomodelNVMe())
	h := &harness{cache: cache, store: objstore.NewMem()}
	h.opts = Options{
		HostOptions:   HostOptions{Store: h.store, CacheDev: metered},
		VolumeOptions: VolumeOptions{Volume: "vol", VolBytes: 512 * block.MiB},
	}
	d, err := Create(ctx, h.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	before := metered.Meter.Snapshot()
	if err := d.WriteAt(payload(1, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	delta := metered.Meter.Snapshot().Sub(before)
	// The commit barrier costs exactly one flush and zero extra
	// writes beyond the logged record itself (the 4x-varmail property,
	// §4.2.2).
	if delta.Flushes != 1 {
		t.Fatalf("flushes=%d", delta.Flushes)
	}
	if delta.WriteOps != 1 {
		t.Fatalf("write ops=%d; commit barrier added metadata writes", delta.WriteOps)
	}
}

func TestCrashRecoveryPreservesCommittedWrites(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.BatchBytes = 1 * block.MiB })
	// Committed writes (flushed).
	for i := 0; i < 10; i++ {
		if err := h.disk.WriteAt(payload(int64(i), 16*1024), int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: lose unflushed device state (committed survives), no
	// clean close — backend never saw these writes (batch 1 MiB, 160 K
	// written... some may have sealed; recovery replays the rest).
	// Kill first so the destage pipeline stops at the crash point.
	h.disk.Kill()
	h.cache.Crash(1.0, rand.New(rand.NewSource(1)))
	h.reopen(t)
	if h.disk.Stats().RecoveredReplayed == 0 && h.disk.Backend().Stats().DurableWriteSeq < 10 {
		t.Fatal("no cache records replayed and backend incomplete")
	}
	for i := 0; i < 10; i++ {
		got := make([]byte, 16*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(int64(i), 16*1024)) {
			t.Fatalf("committed write %d lost after crash", i)
		}
	}
}

func TestCacheLossFallsBackToPrefix(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.BatchBytes = 64 * 1024 })
	var lastDurable int
	for i := 0; i < 20; i++ {
		if err := h.disk.WriteAt(payload(int64(i), 64*1024), int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			h.disk.Drain()
			lastDurable = i
		}
	}
	h.disk.Flush()
	// Total cache loss: blank device (§3.4 worst case).
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	// All writes up to the drain point must be present (they are a
	// committed prefix durable in the backend).
	for i := 0; i <= lastDurable; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(int64(i), 64*1024)) {
			t.Fatalf("durable write %d lost with cache", i)
		}
	}
	// Later writes may be lost, but any that survived must form a
	// prefix: if write k is present, all j<k are present.
	present := make([]bool, 20)
	for i := 0; i < 20; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		present[i] = bytes.Equal(got, payload(int64(i), 64*1024))
	}
	seenGap := false
	for i := 0; i < 20; i++ {
		if !present[i] {
			seenGap = true
		} else if seenGap {
			t.Fatalf("prefix consistency violated: write %d present after a gap", i)
		}
	}
}

func TestTrimEndToEnd(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.disk.WriteAt(payload(1, 64*1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Trim(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64*1024)
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := payload(1, 64*1024)
	clear(want[:32*1024])
	if !bytes.Equal(got, want) {
		t.Fatal("trim not visible")
	}
	// Trim survives drain + fresh-cache reopen.
	h.disk.Drain()
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trim lost after recovery")
	}
}

func TestSnapshotThroughDisk(t *testing.T) {
	h := newHarness(t, nil)
	orig := payload(1, 64*1024)
	h.disk.WriteAt(orig, 0)
	info, err := h.disk.Snapshot("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.disk.Snapshots()) != 1 {
		t.Fatal("snapshot not listed")
	}
	h.disk.WriteAt(payload(2, 64*1024), 0)
	_ = info
	if err := h.disk.DeleteSnapshot("s1"); err != nil {
		t.Fatal(err)
	}
}

func TestCleanCloseReopen(t *testing.T) {
	h := newHarness(t, nil)
	data := payload(7, 256*1024)
	h.disk.WriteAt(data, 12<<20)
	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
	h.reopen(t)
	got := make([]byte, len(data))
	if err := h.disk.ReadAt(got, 12<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean close lost data")
	}
}

func TestGCEndToEnd(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.BatchBytes = 256 * 1024
		o.CheckpointEvery = 8
	})
	// The odd extents are written once, so the first round's objects
	// stay half live and only the collector can reclaim them; every
	// later object dies whole and is reaped without it.
	latest := map[int]int64{}
	seed := int64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			if round > 0 && i%2 == 1 {
				continue
			}
			seed++
			latest[i] = seed
			if err := h.disk.WriteAt(payload(seed, 64*1024), int64(i)*(1<<20)); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.disk.Drain()
	st := h.disk.Stats()
	if st.Backend.GCRuns == 0 {
		t.Fatalf("GC never triggered: %+v", st.Backend)
	}
	for i := 0; i < 16; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(latest[i], 64*1024)) {
			t.Fatalf("extent %d corrupted by GC", i)
		}
	}
}

func TestBackpressureWhenCacheSmall(t *testing.T) {
	// 16 MiB cache (3.2 MiB write log) with an 8 MiB batch: appends
	// must trigger destage-based backpressure rather than failing.
	h := newHarness(t, func(o *Options) {
		o.CacheDev = simdev.NewMem(64 * block.MiB)
		o.WriteCacheFrac = 0.55 // log area ~35 MiB minus metadata
		o.BatchBytes = 4 * block.MiB
	})
	data := payload(1, 128*1024)
	for i := 0; i < 400; i++ { // 50 MiB through a ~16 MiB log
		if err := h.disk.WriteAt(data, int64(i%64)*(1<<20)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if h.disk.Stats().WriteCache.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
}

func TestRandomizedMirrorCheck(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.BatchBytes = 512 * 1024
		o.CheckpointEvery = 16
	})
	rng := rand.New(rand.NewSource(11))
	const space = 64 << 20
	mirror := make([]byte, space)
	for op := 0; op < 400; op++ {
		off := int64(rng.Intn(space/512-64)) * 512
		n := (rng.Intn(16) + 1) * 4096
		if off+int64(n) > space {
			n = int(space - off)
		}
		switch rng.Intn(10) {
		case 0: // trim
			if err := h.disk.Trim(off, int64(n)); err != nil {
				t.Fatal(err)
			}
			clear(mirror[off : off+int64(n)])
		case 1, 2: // read & verify
			got := make([]byte, n)
			if err := h.disk.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror[off:off+int64(n)]) {
				t.Fatalf("op %d: read mismatch at %d+%d", op, off, n)
			}
		default: // write
			data := payload(int64(op), n)
			if err := h.disk.WriteAt(data, off); err != nil {
				t.Fatal(err)
			}
			copy(mirror[off:], data)
		}
	}
	// Final full verification, then again after drain+reopen.
	verify := func(tag string) {
		got := make([]byte, 1<<20)
		for off := int64(0); off < space; off += 1 << 20 {
			if err := h.disk.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror[off:off+1<<20]) {
				t.Fatalf("%s: mismatch at %d", tag, off)
			}
		}
	}
	verify("live")
	h.disk.Close()
	h.reopen(t)
	verify("reopened")
	// And with a lost cache after a full drain.
	h.disk.Drain()
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	verify("cache-lost")
}

func iomodelNVMe() iomodel.Params { return iomodel.NVMeP3700 }
