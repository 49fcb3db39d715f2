package readcache

import (
	"bytes"
	"math/rand"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/simdev"
)

func newCache(t *testing.T, devBytes int64, cfg Config) *Cache {
	t.Helper()
	c, err := New(simdev.NewMem(devBytes), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func readBack(t *testing.T, c *Cache, ext block.Extent) ([]byte, bool) {
	t.Helper()
	buf := make([]byte, ext.Bytes())
	runs, err := c.ReadExtent(ext, buf)
	if err != nil {
		t.Fatal(err)
	}
	full := true
	for _, run := range runs {
		full = full && run.Present
	}
	return buf, full
}

func TestInsertLookup(t *testing.T) {
	c := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 100, Sectors: 64}
	data := payload(1, int(ext.Bytes()))
	if err := c.Insert(ext, data); err != nil {
		t.Fatal(err)
	}
	got, full := readBack(t, c, ext)
	if !full || !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Inserts == 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, full := readBack(t, c, block.Extent{LBA: 99999, Sectors: 8}); full {
		t.Fatal("phantom hit")
	}
	if c.Stats().Misses != 1 {
		t.Fatalf("miss not counted: %+v", c.Stats())
	}
	// Admission's presence check is not a read: it counts as neither.
	c.Lookup(ext)
	c.Lookup(block.Extent{LBA: 99999, Sectors: 8})
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Lookup moved the demand-read counters: %+v", st)
	}
}

func TestInsertSizeMismatchRejected(t *testing.T) {
	c := newCache(t, 64*block.MiB, Config{})
	if err := c.Insert(block.Extent{LBA: 0, Sectors: 8}, make([]byte, 1)); err == nil {
		t.Fatal("bad insert accepted")
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	_ = c.Insert(ext, payload(1, int(ext.Bytes())))
	c.Invalidate(block.Extent{LBA: 16, Sectors: 16})
	runs := c.Lookup(ext)
	if len(runs) != 3 || runs[1].Present {
		t.Fatalf("invalidate failed: %+v", runs)
	}
}

// TestPrefetchTagCountsFirstReadOnly: a prefetched sector is credited
// on its first hit and never again, and a demand insert or an
// invalidation over it drops the tag unread.
func TestPrefetchTagCountsFirstReadOnly(t *testing.T) {
	c := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	if err := c.InsertPrefetched(ext, payload(1, int(ext.Bytes()))); err != nil {
		t.Fatal(err)
	}
	part := block.Extent{LBA: 8, Sectors: 16}
	for i := 0; i < 3; i++ {
		if _, full := readBack(t, c, part); !full {
			t.Fatal("prefetched data missed")
		}
		if st := c.Stats(); st.PrefetchHitSectors != 16 {
			t.Fatalf("read %d of one prefetched range: %d sectors credited, want 16",
				i+1, st.PrefetchHitSectors)
		}
	}
	// The rest of the range is still unread: one more first read.
	if _, full := readBack(t, c, ext); !full {
		t.Fatal("prefetched data missed")
	}
	if st := c.Stats(); st.PrefetchHitSectors != 64 {
		t.Fatalf("whole range: %d sectors credited, want 64", st.PrefetchHitSectors)
	}

	other := block.Extent{LBA: 1000, Sectors: 32}
	if err := c.InsertPrefetched(other, payload(2, int(other.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(block.Extent{LBA: 1000, Sectors: 16}, payload(3, 16*block.SectorSize)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(block.Extent{LBA: 1016, Sectors: 16})
	if n := c.pf.Len(); n != 0 {
		t.Fatalf("%d prefetch tags left after a demand insert and an invalidation covered them", n)
	}
	readBack(t, c, other)
	if st := c.Stats(); st.PrefetchHitSectors != 64 {
		t.Fatalf("demand data credited as prefetched: %d sectors", st.PrefetchHitSectors)
	}
}

// TestArenaFullOnceAClaimEvicts: Full turns on at the first claim that
// finds no never-used slab, and a purge that frees slabs turns it off
// at the next claim.
func TestArenaFullOnceAClaimEvicts(t *testing.T) {
	const slabBytes = 256 << 10
	a, _ := arenaFor(t, 4, slabBytes)
	v := a.Open("v")
	fillSlabs(t, v, 1, 0, 4, slabBytes)
	if a.Full() {
		t.Fatal("arena full while its claims still found never-used slabs")
	}
	fillSlabs(t, v, 5, 4*slabBytes/block.SectorSize, 1, slabBytes)
	if !a.Full() {
		t.Fatal("a claim evicted and the arena does not say it is full")
	}
	a.Purge("v")
	fillSlabs(t, v, 6, 0, 1, slabBytes)
	if a.Full() {
		t.Fatal("arena still full after a purge freed its slabs")
	}
}

func TestInsertSpanningSlabs(t *testing.T) {
	cfg := Config{SlabBytes: 1 * block.MiB, MapBytes: 1 * block.MiB}
	c := newCache(t, 8*block.MiB, cfg)
	// 3 MiB insert spans 3 slabs.
	ext := block.Extent{LBA: 0, Sectors: uint32(3 * block.MiB / block.SectorSize)}
	data := payload(2, int(ext.Bytes()))
	if err := c.Insert(ext, data); err != nil {
		t.Fatal(err)
	}
	got, full := readBack(t, c, ext)
	if !full || !bytes.Equal(got, data) {
		t.Fatal("spanning insert mismatch")
	}
	if c.Stats().LiveSlabs < 3 {
		t.Fatalf("slabs %+v", c.Stats())
	}
}

func TestFIFOEviction(t *testing.T) {
	cfg := Config{SlabBytes: 1 * block.MiB, MapBytes: 1 * block.MiB}
	c := newCache(t, 1*block.MiB+block.BlockSize+4*block.MiB, cfg) // 4 slabs
	slabSectors := uint32(block.MiB / block.SectorSize)
	// Fill 6 slab-sized extents: the first two must be evicted.
	for i := 0; i < 6; i++ {
		ext := block.Extent{LBA: block.LBA(i) * block.LBA(slabSectors), Sectors: slabSectors}
		if err := c.Insert(ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().SlabEvictions < 2 {
		t.Fatalf("evictions %+v", c.Stats())
	}
	// Oldest gone, newest present and correct.
	if _, full := readBack(t, c, block.Extent{LBA: 0, Sectors: slabSectors}); full {
		t.Fatal("oldest slab not evicted")
	}
	newest := block.Extent{LBA: 5 * block.LBA(slabSectors), Sectors: slabSectors}
	got, full := readBack(t, c, newest)
	if !full || !bytes.Equal(got, payload(5, int(newest.Bytes()))) {
		t.Fatal("newest data wrong after eviction")
	}
}

func TestPersistReload(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := block.Extent{LBA: 1234, Sectors: 128}
	data := payload(9, int(ext.Bytes()))
	_ = c.Insert(ext, data)
	if err := c.Persist(); err != nil {
		t.Fatal(err)
	}
	// Reopen on the same device: map restored, data warm.
	c2, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, full := readBack(t, c2, ext)
	if !full || !bytes.Equal(got, data) {
		t.Fatal("persisted cache cold after reload")
	}
	// Eviction still cleans reloaded entries.
	if c2.Stats().MapExtents == 0 {
		t.Fatal("map empty after reload")
	}
}

func TestColdLoadOnGarbage(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	_ = dev.WriteAt(payload(1, 8192), 0) // garbage where the map would be
	c, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().MapExtents != 0 {
		t.Fatal("garbage map loaded")
	}
}

func TestTooSmallRejected(t *testing.T) {
	if _, err := New(simdev.NewMem(2*block.MiB), Config{}); err == nil {
		t.Fatal("tiny device accepted")
	}
}

func TestOverwriteInsertServesNewest(t *testing.T) {
	c := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 32}
	_ = c.Insert(ext, payload(1, int(ext.Bytes())))
	newer := payload(2, int(ext.Bytes()))
	_ = c.Insert(ext, newer)
	got, full := readBack(t, c, ext)
	if !full || !bytes.Equal(got, newer) {
		t.Fatal("stale insert served")
	}
}

// --- arena (multi-view) tests ---

// arenaFor builds an arena whose slab geometry is easy to reason
// about: slabBytes-sized slabs, minimal map reservation.
func arenaFor(t *testing.T, nSlabs int, slabBytes int64) (*Arena, simdev.Device) {
	t.Helper()
	cfg := Config{SlabBytes: slabBytes, MapBytes: block.BlockSize}
	dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + int64(nSlabs)*slabBytes)
	a, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.slabs) != nSlabs {
		t.Fatalf("arena has %d slabs, want %d", len(a.slabs), nSlabs)
	}
	return a, dev
}

func fillSlabs(t *testing.T, v *Cache, seed int64, startLBA block.LBA, n int, slabBytes int64) {
	t.Helper()
	sectorsPerSlab := uint32(slabBytes >> block.SectorShift)
	for i := 0; i < n; i++ {
		ext := block.Extent{LBA: startLBA + block.LBA(uint32(i)*sectorsPerSlab), Sectors: sectorsPerSlab}
		if err := v.Insert(ext, payload(seed+int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestArenaViewIsolation(t *testing.T) {
	a, _ := arenaFor(t, 8, 256<<10)
	va := a.Open("a")
	vb := a.Open("b")
	ext := block.Extent{LBA: 100, Sectors: 64}
	da := payload(1, int(ext.Bytes()))
	db := payload(2, int(ext.Bytes()))
	if err := va.Insert(ext, da); err != nil {
		t.Fatal(err)
	}
	if err := vb.Insert(ext, db); err != nil {
		t.Fatal(err)
	}
	// Same vLBA, different views, different data.
	got, full := readBack(t, va, ext)
	if !full || !bytes.Equal(got, da) {
		t.Fatal("view a read wrong data")
	}
	got, full = readBack(t, vb, ext)
	if !full || !bytes.Equal(got, db) {
		t.Fatal("view b read wrong data")
	}
	// Invalidating a must not touch b.
	va.Invalidate(ext)
	if _, full := readBack(t, va, ext); full {
		t.Fatal("a still cached after invalidate")
	}
	if got, full := readBack(t, vb, ext); !full || !bytes.Equal(got, db) {
		t.Fatal("invalidate leaked across views")
	}
	// Reopening a name returns the same warm view.
	if a.Open("b") != vb {
		t.Fatal("Open(name) did not reattach")
	}
}

func TestArenaFairEviction(t *testing.T) {
	const slabBytes = 256 << 10
	a, _ := arenaFor(t, 8, slabBytes)
	cold := a.Open("cold")
	hot := a.Open("hot")

	// Cold volume establishes a working set at its fair share (4 slabs).
	fillSlabs(t, cold, 100, 0, 4, slabBytes)
	coldBefore := cold.Stats()
	if coldBefore.OwnedSlabs != 4 {
		t.Fatalf("cold owns %d slabs, want 4", coldBefore.OwnedSlabs)
	}
	if coldBefore.FairShareSlabs != 4 {
		t.Fatalf("fair share = %d, want 4", coldBefore.FairShareSlabs)
	}

	// Hot volume churns the arena several times over.
	fillSlabs(t, hot, 200, 1<<20, 32, slabBytes)

	coldAfter := cold.Stats()
	if coldAfter.OwnedSlabs < coldBefore.FairShareSlabs {
		t.Fatalf("cold evicted below its floor: owns %d, floor %d",
			coldAfter.OwnedSlabs, coldBefore.FairShareSlabs)
	}
	// Cold's data is fully intact — every read hits.
	sectorsPerSlab := uint32(slabBytes >> block.SectorShift)
	for i := 0; i < 4; i++ {
		ext := block.Extent{LBA: block.LBA(uint32(i) * sectorsPerSlab), Sectors: sectorsPerSlab}
		got, full := readBack(t, cold, ext)
		if !full || !bytes.Equal(got, payload(100+int64(i), int(ext.Bytes()))) {
			t.Fatalf("cold slab %d lost or corrupted under hot churn", i)
		}
	}
	// Hot still made progress: it owns its share too.
	if hs := hot.Stats(); hs.OwnedSlabs != 4 {
		t.Fatalf("hot owns %d slabs, want 4", hs.OwnedSlabs)
	}
	if a.Stats().Evictions == 0 {
		t.Fatal("hot churn evicted nothing")
	}
}

func TestArenaSingleViewUsesWholePool(t *testing.T) {
	// With one view there is no sharing: it may fill every slab.
	const slabBytes = 256 << 10
	a, _ := arenaFor(t, 8, slabBytes)
	v := a.Open("only")
	fillSlabs(t, v, 1, 0, 8, slabBytes)
	if st := v.Stats(); st.OwnedSlabs != 8 {
		t.Fatalf("single view owns %d slabs, want 8", st.OwnedSlabs)
	}
	// Overflow evicts its own oldest slab, not an error.
	fillSlabs(t, v, 50, 1<<20, 2, slabBytes)
	if st := v.Stats(); st.OwnedSlabs != 8 {
		t.Fatalf("after overflow view owns %d slabs, want 8", st.OwnedSlabs)
	}
}

func TestArenaPersistReloadMultiView(t *testing.T) {
	const slabBytes = 256 << 10
	cfg := Config{SlabBytes: slabBytes, MapBytes: 256 << 10}
	dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + 8*slabBytes)
	a, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := a.Open("a"), a.Open("b")
	extA := block.Extent{LBA: 0, Sectors: 64}
	extB := block.Extent{LBA: 4096, Sectors: 64}
	da, db := payload(1, int(extA.Bytes())), payload(2, int(extB.Bytes()))
	if err := va.Insert(extA, da); err != nil {
		t.Fatal(err)
	}
	if err := vb.Insert(extB, db); err != nil {
		t.Fatal(err)
	}
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}

	// Reload on the same device: views come back warm, in any order.
	a2, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vb2 := a2.Open("b")
	if got, full := readBack(t, vb2, extB); !full || !bytes.Equal(got, db) {
		t.Fatal("view b cold after reload")
	}
	va2 := a2.Open("a")
	if got, full := readBack(t, va2, extA); !full || !bytes.Equal(got, da) {
		t.Fatal("view a cold after reload")
	}
	// Cross-view leakage check: a must not see b's extent.
	if _, full := readBack(t, va2, extB); full {
		t.Fatal("view a sees view b's data after reload")
	}
}

func TestArenaReloadUnopenedViewSlabsReclaimable(t *testing.T) {
	const slabBytes = 256 << 10
	cfg := Config{SlabBytes: slabBytes, MapBytes: 256 << 10}
	dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + 4*slabBytes)
	a, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := a.Open("old")
	fillSlabs(t, old, 1, 0, 4, slabBytes)
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}

	// Reload; "old" never reopens. A new view can take over the whole
	// pool even though every slab was persisted as owned.
	a2, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := a2.Open("fresh")
	fillSlabs(t, fresh, 50, 1<<20, 4, slabBytes)
	if st := fresh.Stats(); st.OwnedSlabs != 4 {
		t.Fatalf("fresh owns %d slabs, want 4", st.OwnedSlabs)
	}
	// If "old" opens now it finds nothing (its slabs were recycled and
	// its map entries dropped in validation).
	old2 := a2.Open("old")
	if _, full := readBack(t, old2, block.Extent{LBA: 0, Sectors: 64}); full {
		t.Fatal("old view served data from recycled slabs")
	}
}

func TestArenaPurge(t *testing.T) {
	const slabBytes = 256 << 10
	a, _ := arenaFor(t, 4, slabBytes)
	v := a.Open("v")
	w := a.Open("w")
	fillSlabs(t, v, 1, 0, 2, slabBytes)
	extW := block.Extent{LBA: 1 << 20, Sectors: 64}
	dw := payload(9, int(extW.Bytes()))
	if err := w.Insert(extW, dw); err != nil {
		t.Fatal(err)
	}
	a.Purge("v")
	if st := v.Stats(); st.OwnedSlabs != 0 || st.MapExtents != 0 {
		t.Fatalf("purge left state: %+v", st)
	}
	if _, full := readBack(t, v, block.Extent{LBA: 0, Sectors: 64}); full {
		t.Fatal("purged view still serves data")
	}
	if got, full := readBack(t, w, extW); !full || !bytes.Equal(got, dw) {
		t.Fatal("purge damaged sibling view")
	}
	// The purged view is still usable.
	if err := v.Insert(block.Extent{LBA: 0, Sectors: 64}, payload(3, 64*block.SectorSize)); err != nil {
		t.Fatal(err)
	}
}

func TestArenaStatsOccupancy(t *testing.T) {
	const slabBytes = 256 << 10
	a, _ := arenaFor(t, 8, slabBytes)
	va := a.Open("a")
	fillSlabs(t, va, 1, 0, 2, slabBytes)
	a.Open("b")
	st := a.Stats()
	if len(st.Views) != 2 {
		t.Fatalf("views = %d, want 2", len(st.Views))
	}
	if st.Views[0].Volume != "a" || st.Views[0].Slabs != 2 || st.Views[0].Bytes != 2*slabBytes {
		t.Fatalf("occupancy a = %+v", st.Views[0])
	}
	if st.Views[1].Volume != "b" || st.Views[1].Slabs != 0 {
		t.Fatalf("occupancy b = %+v", st.Views[1])
	}
	if st.FairShareSlabs != 4 {
		t.Fatalf("fair share = %d, want 4", st.FairShareSlabs)
	}
}

func TestSizedConfigMatchesCoreMath(t *testing.T) {
	// 64 MiB device: map 2 MiB, slab stays 4 MiB (15 slabs >= 8).
	cfg := SizedConfig(64*block.MiB, FIFO)
	if cfg.MapBytes != 2*block.MiB || cfg.SlabBytes != 4*block.MiB {
		t.Fatalf("64MiB: %+v", cfg)
	}
	// 8 MiB device: map 256 KiB, slab halves until >= 8 slabs fit.
	cfg = SizedConfig(8*block.MiB, FIFO)
	if cfg.MapBytes != 256<<10 || (8*block.MiB-cfg.MapBytes)/cfg.SlabBytes < 8 {
		t.Fatalf("8MiB: %+v holds too few slabs", cfg)
	}
	// 1 GiB device: map capped at 16 MiB.
	if cfg := SizedConfig(block.GiB, FIFO); cfg.MapBytes != 16*block.MiB {
		t.Fatalf("1GiB: %+v", cfg)
	}
	// The benchmark's arena device (four fifths of a 128 MiB cache): a
	// whole number of blocks reserved, 24 slabs.
	dev := int64(128*block.MiB) * 4 / 5 &^ (block.BlockSize - 1)
	cfg = SizedConfig(dev, FIFO)
	if cfg.MapBytes%block.BlockSize != 0 || (dev-block.BlockSize-cfg.MapBytes)/cfg.SlabBytes != 24 {
		t.Fatalf("%d-byte device: %+v", dev, cfg)
	}
	// A device too small for a thirty-second to be a block still
	// reserves one.
	if cfg := SizedConfig(64<<10, FIFO); cfg.MapBytes != block.BlockSize {
		t.Fatalf("64KiB: %+v", cfg)
	}
}
