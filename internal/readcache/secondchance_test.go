package readcache

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/simdev"
)

// Tests of the second chance an eviction gives to data in chunks that
// were hit after the victim slab filled. Every sector of test data
// carries its own LBA and a version, so a read that comes back from a
// reinserted copy proves the copy moved the right bytes.

const chunkBytes = chunkSectors * block.SectorSize

func sectorData(ext block.Extent, version uint64) []byte {
	b := make([]byte, ext.Bytes())
	for i := uint32(0); i < ext.Sectors; i++ {
		binary.LittleEndian.PutUint64(b[int(i)*block.SectorSize:], uint64(ext.LBA)+uint64(i))
		binary.LittleEndian.PutUint64(b[int(i)*block.SectorSize+8:], version)
	}
	return b
}

// readVerified reads ext through ReadExtent (the data path) and reports
// whether all of it was cached; cached sectors must carry their LBA
// and the given version.
func readVerified(t *testing.T, c *Cache, ext block.Extent, version uint64) bool {
	t.Helper()
	buf := make([]byte, ext.Bytes())
	runs, err := c.ReadExtent(ext, buf)
	if err != nil {
		t.Fatal(err)
	}
	full := true
	for _, r := range runs {
		if !r.Present {
			full = false
			continue
		}
		for lba := r.LBA; lba < r.End(); lba++ {
			sec := buf[(lba - ext.LBA).Bytes():]
			if got, ver := binary.LittleEndian.Uint64(sec), binary.LittleEndian.Uint64(sec[8:]); got != uint64(lba) || ver != version {
				t.Fatalf("sector %d of %v reads as sector %d version %d, want version %d", lba, ext, got, ver, version)
			}
		}
	}
	return full
}

// hit reads ext the way the data path does, which is what stamps its
// chunks; the bytes are not checked.
func hit(t *testing.T, c *Cache, ext block.Extent) {
	t.Helper()
	if _, err := c.ReadExtent(ext, make([]byte, ext.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func mustInsert(t *testing.T, c *Cache, ext block.Extent, version uint64) {
	t.Helper()
	if err := c.Insert(ext, sectorData(ext, version)); err != nil {
		t.Fatal(err)
	}
}

// coldScan inserts n chunk-sized extents of never-read data starting at
// LBA from, calling between after each.
func coldScan(t *testing.T, c *Cache, from block.LBA, n int, between func(i int)) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustInsert(t, c, block.Extent{LBA: from + block.LBA(i*chunkSectors), Sectors: chunkSectors}, 0)
		if between != nil {
			between(i)
		}
	}
}

// assertNoDanglingTargets checks that every entry of the view's map
// points into a slab the view owns at the generation the entry names.
func assertNoDanglingTargets(t *testing.T, v *Cache) {
	t.Helper()
	v.m.Foreach(func(ext block.Extent, tgt extmap.Target) bool {
		if v.a.slabOfTargetID(v.id, tgt) == nil {
			t.Errorf("view %q maps %v to %v, which is not a live slab of its own", v.name, ext, tgt)
		}
		return true
	})
}

// (a) A chunk read once per slab fill outlives a cold scan of three
// times the arena; without the reads the same scan evicts it, and so
// it does when the chunk is only looked up (admission's presence check
// is not a read).
func TestHotChunkSurvivesColdScan(t *testing.T) {
	const slabBytes = 2 * chunkBytes
	const nSlabs = 8
	hot := block.Extent{LBA: 0, Sectors: 32}
	for _, mode := range []string{"read", "lookup", "none"} {
		read := mode == "read"
		a, _ := arenaFor(t, nSlabs, slabBytes)
		c := a.Open("")
		mustInsert(t, c, hot, 7)
		coldScan(t, c, 1<<20, 3*nSlabs*2, func(i int) {
			if i%2 == 0 {
				return
			}
			if mode == "lookup" {
				c.Lookup(hot)
			}
			if read && !readVerified(t, c, hot, 7) {
				t.Fatalf("hot chunk lost after %d cold inserts", i+1)
			}
		})
		st := c.Stats()
		if st.SlabEvictions < 2*nSlabs {
			t.Fatalf("scan evicted only %d slabs", st.SlabEvictions)
		}
		if got := readVerified(t, c, hot, 7); got != read {
			t.Fatalf("%s: hot chunk cached=%v after the scan", mode, got)
		}
		if read == (st.Reinserts == 0) {
			t.Fatalf("%s: %d reinserts", mode, st.Reinserts)
		}
	}
}

// (b) When every chunk is hot an eviction still frees half a slab, so
// an insert of one slab's worth terminates within two evictions and
// the arena falls back to FIFO instead of copying itself in circles.
func TestAllHotArenaStillFreesHalfASlab(t *testing.T) {
	const slabBytes = 8 * chunkBytes
	const nSlabs = 4
	a, _ := arenaFor(t, nSlabs, slabBytes)
	c := a.Open("")
	coldScan(t, c, 0, nSlabs*8, nil)
	hitAll := func() {
		var cached []block.Extent
		c.m.Foreach(func(ext block.Extent, _ extmap.Target) bool {
			cached = append(cached, ext)
			return true
		})
		for _, ext := range cached {
			hit(t, c, ext)
		}
	}
	hitAll()
	before := c.Stats()
	big := block.Extent{LBA: 1 << 20, Sectors: uint32(slabBytes >> block.SectorShift)}
	mustInsert(t, c, big, 1)
	st := c.Stats()
	if n := st.SlabEvictions - before.SlabEvictions; n != 2 {
		t.Fatalf("one slab's worth of inserts took %d evictions, want 2", n)
	}
	if got := st.ReinsertedBytes - before.ReinsertedBytes; got != slabBytes {
		t.Fatalf("two evictions of all-hot slabs reinserted %d bytes, want two half slabs (%d)", got, slabBytes)
	}
	if !readVerified(t, c, big, 1) {
		t.Fatal("the insert that forced the evictions is not fully cached")
	}
	// Steady state: keep everything hot and keep inserting.
	for i := 0; i < 10*nSlabs*8; i++ {
		hitAll()
		prev := c.Stats()
		mustInsert(t, c, block.Extent{LBA: 2<<20 + block.LBA(i*chunkSectors), Sectors: chunkSectors}, 2)
		now := c.Stats()
		ev := now.SlabEvictions - prev.SlabEvictions
		if ev > 1 || now.ReinsertedBytes-prev.ReinsertedBytes > ev*uint64(slabBytes/2) {
			t.Fatalf("insert %d: %d evictions reinserted %d bytes", i, ev, now.ReinsertedBytes-prev.ReinsertedBytes)
		}
	}
}

// (c) Data invalidated before its slab is evicted is not reinserted,
// and sectors that slab.inserted names more than once are copied once.
func TestReinsertSkipsInvalidatedAndCopiesOverlapsOnce(t *testing.T) {
	const slabBytes = 2 * chunkBytes
	a, _ := arenaFor(t, 4, slabBytes)
	c := a.Open("")
	dup := block.Extent{LBA: 0, Sectors: 128}
	over := block.Extent{LBA: 64, Sectors: 128} // overlaps dup, same chunk
	gone := block.Extent{LBA: 10 * chunkSectors, Sectors: 64}
	mustInsert(t, c, dup, 1)
	mustInsert(t, c, dup, 2) // the same extent twice in one slab
	mustInsert(t, c, over, 3)
	mustInsert(t, c, gone, 4)
	coldScan(t, c, 1<<20, 2, nil) // closes the first slab, opens the second
	hit(t, c, block.Extent{LBA: 0, Sectors: uint32(over.End())})
	hit(t, c, gone)
	c.Invalidate(gone)
	coldScan(t, c, 2<<20, 3*2, nil) // evicts the first slab
	st := c.Stats()
	if st.SlabEvictions == 0 {
		t.Fatal("first slab was not evicted")
	}
	if want := uint64(over.End()) * block.SectorSize; st.ReinsertedBytes != want {
		t.Fatalf("reinserted %d bytes, want the %d mapped once", st.ReinsertedBytes, want)
	}
	if !readVerified(t, c, block.Extent{LBA: 0, Sectors: 64}, 2) || !readVerified(t, c, over, 3) {
		t.Fatal("hit data lost by the eviction")
	}
	for _, r := range c.Lookup(gone) {
		if r.Present {
			t.Fatalf("invalidated %v came back as %v", gone, r)
		}
	}
	assertNoDanglingTargets(t, c)
}

// (d) A slab taken from another view carries nothing over: the taker
// gets none of the owner's data and the owner's map keeps no entry for
// the slab it lost.
func TestCrossViewEvictionReinsertsNothing(t *testing.T) {
	const slabBytes = 2 * chunkBytes
	const nSlabs = 8
	a, _ := arenaFor(t, nSlabs, slabBytes)
	va, vb := a.Open("a"), a.Open("b")
	coldScan(t, vb, 0, nSlabs*2, nil) // b takes the whole pool
	for i := 0; i < nSlabs*2; i++ {   // and all of it is hot
		hit(t, vb, block.Extent{LBA: block.LBA(i * chunkSectors), Sectors: chunkSectors})
	}
	// a claims its fair share, each slab out of b's hands.
	for i := 0; i < nSlabs; i++ {
		mustInsert(t, va, block.Extent{LBA: block.LBA(i * chunkSectors), Sectors: chunkSectors}, 9)
	}
	if got := a.Stats().Evictions; got != nSlabs/2 {
		t.Fatalf("%d evictions, want %d", got, nSlabs/2)
	}
	if sa, sb := va.Stats(), vb.Stats(); sa.Reinserts != 0 || sb.Reinserts != 0 {
		t.Fatalf("cross-view evictions reinserted: a %d, b %d", sa.Reinserts, sb.Reinserts)
	}
	if sa, sb := va.Stats(), vb.Stats(); sa.OwnedSlabs != nSlabs/2 || sb.OwnedSlabs != nSlabs/2 {
		t.Fatalf("a owns %d, b owns %d slabs, want %d each", sa.OwnedSlabs, sb.OwnedSlabs, nSlabs/2)
	}
	assertNoDanglingTargets(t, va)
	assertNoDanglingTargets(t, vb)
	for i := 0; i < nSlabs*2; i++ {
		ext := block.Extent{LBA: block.LBA(i * chunkSectors), Sectors: chunkSectors}
		if i < nSlabs && !readVerified(t, va, ext, 9) {
			t.Fatalf("a lost %v", ext)
		}
		if cached := readVerified(t, vb, ext, 0); cached != (i >= nSlabs) {
			t.Fatalf("b's %v cached=%v", ext, cached)
		}
	}
}

// (e) A map persisted after reinsertions restores whole: every target
// validates against the slab table and reads the right bytes.
func TestPersistAfterReinsertionsRestoresValidMap(t *testing.T) {
	const slabBytes = 2 * chunkBytes
	cfg := Config{SlabBytes: slabBytes, MapBytes: 64 << 10}
	dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + 4*slabBytes)
	a, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Open("v")
	hot := block.Extent{LBA: 3 * chunkSectors, Sectors: chunkSectors}
	mustInsert(t, c, hot, 5)
	coldScan(t, c, 1<<20, 3*4*2, func(int) { hit(t, c, hot) })
	st := c.Stats()
	if st.Reinserts == 0 {
		t.Fatal("scan reinserted nothing")
	}
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}
	a2, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := a2.Open("v")
	if got := c2.Stats().MapExtents; got != st.MapExtents {
		t.Fatalf("restored map has %d extents, persisted %d: restore dropped targets", got, st.MapExtents)
	}
	assertNoDanglingTargets(t, c2)
	if !readVerified(t, c2, hot, 5) {
		t.Fatal("reinserted chunk cold after reload")
	}
}

// (f) The benchmark's read mix, replayed without a clock: 16 KiB reads,
// 80 % into a contiguous twentieth of a 512 MiB volume, a miss admitting
// the 128 KiB window around it the way the core does (demand block,
// then the absent rest as prefetch), 22 slabs of 4 MiB. The hot set is
// under a third of the arena, yet plain FIFO flushes it once per
// turnover.
func TestReadMixMissRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 40k reads twice over an 88 MiB arena")
	}
	const (
		blockSectors = 16 * 1024 / block.SectorSize
		blocks       = 512 * 1024 / 16 // a 512 MiB volume
		warm, ops    = 10_000, 30_000
	)
	replay := func(secondChance bool) float64 {
		a, _ := arenaFor(t, 22, 4*block.MiB)
		c := a.Open("")
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, blockSectors*block.SectorSize)
		misses := 0
		for i := 0; i < warm+ops; i++ {
			b := rng.Intn(blocks)
			if rng.Float64() < 0.8 {
				b = rng.Intn(blocks / 20)
			}
			ext := block.Extent{LBA: block.LBA(b * blockSectors), Sectors: blockSectors}
			runs, err := c.ReadExtent(ext, buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 {
				t.Fatalf("block %v cached in parts: %v", ext, runs)
			}
			if !runs[0].Present {
				if i >= warm {
					misses++
				}
				mustInsert(t, c, ext, 0)
				win := block.Extent{LBA: ext.LBA / chunkSectors * chunkSectors, Sectors: chunkSectors}
				for _, r := range c.Lookup(win) {
					if !r.Present {
						if err := c.InsertPrefetched(r.Extent, sectorData(r.Extent, 0)); err != nil {
							t.Fatal(err)
						}
					}
				}
			} else if got := binary.LittleEndian.Uint64(buf); got != uint64(ext.LBA) {
				t.Fatalf("hit on %v returned sector %d", ext, got)
			}
			if !secondChance {
				clear(c.stamps) // no hit is remembered: plain FIFO
			}
		}
		return float64(misses) / ops
	}
	fifo, chance := replay(false), replay(true)
	t.Logf("miss ratio: plain FIFO %.3f, second chance %.3f", fifo, chance)
	if fifo < 0.22 {
		t.Errorf("plain FIFO misses %.3f of reads, expected >= 0.22: the replay no longer has the benchmark's shape", fifo)
	}
	if chance > 0.20 {
		t.Errorf("second chance misses %.3f of reads, want <= 0.20", chance)
	}
}
