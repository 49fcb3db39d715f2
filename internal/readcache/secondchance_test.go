package readcache

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/journal"
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

// fillPointsOwned checks the invariant every path that takes a slab away
// must keep: a view's fill points name slabs it owns, or nothing.
func fillPointsOwned(t *testing.T, v *Cache) {
	t.Helper()
	for _, idx := range []int{v.active, v.survivor} {
		if idx >= 0 && v.a.slabs[idx].owner != v.id {
			t.Fatalf("view %q fills slab %d, which view %d owns", v.name, idx, v.a.slabs[idx].owner)
		}
	}
}

// mixStream is one reader of the benchmark's read mix, replayed without
// a clock: 16 KiB reads over a volume of blocks 16 KiB blocks, hotShare
// of them to the contiguous run of hotBlocks blocks starting at hotBase,
// the rest uniform. read issues the next one against c — a miss admits
// the 128 KiB window around it the way the core does (demand block,
// then the absent rest as prefetch) — and reports whether it fell in
// the hot run and whether it missed.
type mixStream struct {
	rng                        *rand.Rand
	blocks, hotBase, hotBlocks int
	hotShare                   float64
}

func (m *mixStream) read(t *testing.T, c *Cache) (hot, miss bool) {
	t.Helper()
	const blockSectors = 16 * 1024 / block.SectorSize
	b := m.rng.Intn(m.blocks)
	if m.rng.Float64() < m.hotShare {
		b = m.hotBase + m.rng.Intn(m.hotBlocks)
	}
	hot = b >= m.hotBase && b < m.hotBase+m.hotBlocks
	ext := block.Extent{LBA: block.LBA(b * blockSectors), Sectors: blockSectors}
	buf := make([]byte, ext.Bytes())
	runs, err := c.ReadExtent(ext, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("block %v cached in parts: %v", ext, runs)
	}
	if runs[0].Present {
		if got := binary.LittleEndian.Uint64(buf); got != uint64(ext.LBA) {
			t.Fatalf("hit on %v returned sector %d", ext, got)
		}
		return hot, false
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
	return hot, true
}

// (b) A hot set of 60 % of the arena, read by 80 % of an otherwise
// uniform stream, stays cached: rescued chunks pack into slabs of their
// own and those slabs are re-armed where they lie, so the half-slab cap
// on copying is not a cap on the hot set. (A policy that carries at most
// half of every slab forward cannot hold more than half the arena.)
func TestHotSetLargerThanHalfTheArenaStaysCached(t *testing.T) {
	const (
		nSlabs    = 20
		slabBytes = 8 * chunkBytes // 160 chunks in all
		hotChunks = nSlabs * 8 * 6 / 10
		warm, ops = 30_000, 30_000
	)
	a, _ := arenaFor(t, nSlabs, slabBytes)
	c := a.Open("")
	m := &mixStream{rng: rand.New(rand.NewSource(1)), blocks: 16 * nSlabs * 8 * 8, // 16 arenas
		hotBase: 8 * 1000, hotBlocks: 8 * hotChunks, hotShare: 0.8}
	var hotReads, hotMisses int
	for i := 0; i < warm+ops; i++ {
		hot, miss := m.read(t, c)
		if i >= warm && hot {
			hotReads++
			if miss {
				hotMisses++
			}
		}
	}
	st := c.Stats()
	t.Logf("%d of %d hot reads missed; %d evictions, %d re-arms, %d KiB reinserted",
		hotMisses, hotReads, st.SlabEvictions, st.Rearms, st.ReinsertedBytes>>10)
	if float64(hotMisses) > 0.03*float64(hotReads) {
		t.Errorf("%d of %d hot reads missed after warm-up, want at most 3 %%", hotMisses, hotReads)
	}
	if st.Rearms == 0 {
		t.Error("a hot set of most of the arena was held without a single re-arm")
	}
	assertNoDanglingTargets(t, c)
}

// (c) When every chunk is hot a claim still terminates and still frees
// half a slab: it re-arms at most half of the view's slabs, then evicts
// the next oldest however hot it is, rescuing at most half of it.
func TestAllHotArenaStillFreesHalfASlab(t *testing.T) {
	const slabBytes = 8 * chunkBytes
	const nSlabs = 6
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
	claims := 0
	for i := 0; i < 10*nSlabs*8; i++ {
		hitAll()
		prev := c.Stats()
		ext := block.Extent{LBA: 1<<20 + block.LBA(i*chunkSectors), Sectors: chunkSectors}
		mustInsert(t, c, ext, 1)
		now := c.Stats()
		ev := now.SlabEvictions - prev.SlabEvictions
		if ev == 0 {
			continue // the nursery had room
		}
		claims++
		// One eviction frees the nursery's slab; a second happens only
		// when the first one's slab went to the survivors.
		if ev > 2 {
			t.Fatalf("insert %d: one claim took %d evictions", i, ev)
		}
		if got := now.Rearms - prev.Rearms; got > nSlabs/2 {
			t.Fatalf("insert %d: one claim re-armed %d of %d slabs", i, got, nSlabs)
		}
		if got := now.ReinsertedBytes - prev.ReinsertedBytes; got > ev*uint64(slabBytes/2) {
			t.Fatalf("insert %d: %d evictions reinserted %d bytes", i, ev, got)
		}
		if freed := prev.OwnedBytes - (now.OwnedBytes - ext.Bytes()); freed < slabBytes/2 {
			t.Fatalf("insert %d: the claim freed %d bytes, want at least half a slab", i, freed)
		}
		if !readVerified(t, c, ext, 1) {
			t.Fatalf("insert %d: the insert that forced the claim is not cached", i)
		}
	}
	if st := c.Stats(); claims < 10*nSlabs-1 || st.Rearms == 0 {
		t.Fatalf("%d claims, %d re-arms: the arena did not keep turning over", claims, st.Rearms)
	}
	assertNoDanglingTargets(t, c)
}

// (d) Data invalidated before its slab is evicted is not reinserted,
// and sectors that slab.inserted names more than once are counted and
// copied once: the slab below is a quarter hot by what is mapped (so it
// is evicted, and 96 KiB copied) but would look two thirds hot, and be
// re-armed, if the dead first copy and the overlap were counted too.
func TestReinsertSkipsInvalidatedAndCopiesOverlapsOnce(t *testing.T) {
	const slabBytes = 4 * chunkBytes
	a, _ := arenaFor(t, 4, slabBytes)
	c := a.Open("")
	dup := block.Extent{LBA: 0, Sectors: 128}
	over := block.Extent{LBA: 64, Sectors: 128} // overlaps dup, same chunk
	gone := block.Extent{LBA: 10 * chunkSectors, Sectors: 64}
	mustInsert(t, c, dup, 1)
	mustInsert(t, c, dup, 2) // the same extent twice in one slab
	mustInsert(t, c, over, 3)
	mustInsert(t, c, gone, 4)
	coldScan(t, c, 1<<20, 3, nil) // fills the first slab, opens the second
	hit(t, c, block.Extent{LBA: 0, Sectors: uint32(over.End())})
	hit(t, c, gone)
	c.Invalidate(gone)
	coldScan(t, c, 2<<20, 3*4, nil) // evicts the first slab
	st := c.Stats()
	if st.SlabEvictions == 0 || st.Rearms != 0 {
		t.Fatalf("%d evictions, %d re-arms: the first slab was not evicted", st.SlabEvictions, st.Rearms)
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

// (e) Fairness is untouched by the second chance. A slab taken from
// another view carries nothing over and is never re-armed, however hot:
// the taker gets none of the owner's data, the owner's map keeps no
// entry for the slab it lost, and when the owner is left with nothing
// but its fill points those go too and are forgotten, as they are by a
// purge.
func TestCrossViewEvictionReinsertsNothing(t *testing.T) {
	const slabBytes = 2 * chunkBytes
	const nSlabs = 8
	a, _ := arenaFor(t, nSlabs, slabBytes)
	va, vb := a.Open("a"), a.Open("b")
	chunk := func(i int) block.Extent {
		return block.Extent{LBA: block.LBA(i * chunkSectors), Sectors: chunkSectors}
	}
	// b takes the whole pool and keeps all of it hot while it turns the
	// pool over, so it has a survivor slab and re-armed slabs.
	coldScan(t, vb, 0, 3*nSlabs*2, func(i int) {
		for j := max(0, i-nSlabs); j <= i; j++ {
			hit(t, vb, chunk(j))
		}
	})
	before := vb.Stats()
	if before.OwnedSlabs != nSlabs || before.Rearms == 0 || vb.survivor < 0 {
		t.Fatalf("b owns %d slabs after %d re-arms, survivor slab %d: not the setup this test needs",
			before.OwnedSlabs, before.Rearms, vb.survivor)
	}
	evictions := a.Stats().Evictions
	// a claims its fair share, each slab out of b's hands.
	for i := 0; i < nSlabs; i++ {
		mustInsert(t, va, chunk(i), 9)
		fillPointsOwned(t, vb)
	}
	if got := a.Stats().Evictions - evictions; got != nSlabs/2 {
		t.Fatalf("%d evictions, want %d", got, nSlabs/2)
	}
	sa, sb := va.Stats(), vb.Stats()
	if sa.Reinserts != 0 || sb.Reinserts != before.Reinserts || sb.Rearms != before.Rearms {
		t.Fatalf("cross-view evictions reinserted or re-armed: a %d, b %d (+%d re-arms)",
			sa.Reinserts, sb.Reinserts-before.Reinserts, sb.Rearms-before.Rearms)
	}
	if sa.OwnedSlabs != nSlabs/2 || sb.OwnedSlabs != nSlabs/2 {
		t.Fatalf("a owns %d, b owns %d slabs, want %d each", sa.OwnedSlabs, sb.OwnedSlabs, nSlabs/2)
	}
	assertNoDanglingTargets(t, va)
	assertNoDanglingTargets(t, vb)
	for i := 0; i < nSlabs; i++ {
		if !readVerified(t, va, chunk(i), 9) {
			t.Fatalf("a lost %v", chunk(i))
		}
	}
	vb.m.Foreach(func(ext block.Extent, _ extmap.Target) bool {
		readVerified(t, vb, ext, 0)
		return true
	})

	// Six more views bring the share down to one slab: b, still over
	// it, is shrunk to a single fill point by the newcomers' claims.
	for i := 0; i < 6; i++ {
		v := a.Open(string(rune('c' + i)))
		mustInsert(t, v, chunk(i), 3)
		fillPointsOwned(t, va)
		fillPointsOwned(t, vb)
	}
	if st := vb.Stats(); st.OwnedSlabs != 1 || (vb.active >= 0 && vb.survivor >= 0) {
		t.Fatalf("b owns %d slabs, fills %d and %d", st.OwnedSlabs, vb.active, vb.survivor)
	}
	mustInsert(t, vb, chunk(100), 5) // b is still usable
	if !readVerified(t, vb, chunk(100), 5) {
		t.Fatal("b lost what it just inserted")
	}
	assertNoDanglingTargets(t, vb)

	a.Purge("a")
	if va.active >= 0 || va.survivor >= 0 || va.Stats().OwnedSlabs != 0 {
		t.Fatalf("purged view still fills slabs %d and %d", va.active, va.survivor)
	}
}

// persistScenario keeps ten chunks hot through three arena turnovers of
// cold inserts. They arrive one to a slab, so evictions gather them
// into survivor slabs — more than one — which are then re-armed.
func persistScenario(t *testing.T, c *Cache, nSlabs int) (hot []block.Extent) {
	t.Helper()
	survivors := map[int]bool{}
	coldScan(t, c, 1<<20, 3*nSlabs*4, func(i int) {
		if i%4 == 0 && len(hot) < 10 { // one hot chunk to a slab, at first
			hot = append(hot, block.Extent{LBA: block.LBA(len(hot) * chunkSectors), Sectors: chunkSectors})
			mustInsert(t, c, hot[len(hot)-1], 5)
		}
		for _, ext := range hot {
			hit(t, c, ext)
		}
		if c.survivor >= 0 {
			survivors[c.survivor] = true
		}
	})
	if st := c.Stats(); st.Reinserts == 0 || st.Rearms == 0 || len(survivors) < 2 {
		t.Fatalf("%d reinserts, %d re-arms, %d survivor slabs: not the setup this test needs",
			st.Reinserts, st.Rearms, len(survivors))
	}
	return hot
}

// (f) A map persisted after re-arms and survivor-slab hand-overs
// restores whole: every target validates against the slab table (a
// re-arm renews a slab's order, never the generation its targets name)
// and reads the right bytes. The same blob relabelled as version 2 —
// whose slabs started elsewhere on the device — loads cold.
func TestPersistAfterReinsertionsRestoresValidMap(t *testing.T) {
	const slabBytes = 4 * chunkBytes
	const nSlabs = 6
	cfg := Config{SlabBytes: slabBytes, MapBytes: 64 << 10}
	dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + nSlabs*slabBytes)
	a, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Open("v")
	hot := persistScenario(t, c, nSlabs)
	st := c.Stats()
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
	for _, ext := range hot {
		if !readVerified(t, c2, ext, 5) {
			t.Fatalf("hot chunk %v cold after reload", ext)
		}
	}
	// The restored view has no fill points and orders its slabs by
	// generation; it must turn over like any other.
	coldScan(t, c2, 2<<20, 2*nSlabs*4, nil)
	assertNoDanglingTargets(t, c2)

	rec := make([]byte, cfg.MapBytes)
	if err := dev.ReadAt(rec, block.BlockSize); err != nil {
		t.Fatal(err)
	}
	h, payload, _, err := journal.Decode(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload, 2)
	v2, err := journal.Encode(&journal.Header{Type: h.Type, Seq: h.Seq, DataLen: h.DataLen}, payload, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt(v2, block.BlockSize); err != nil {
		t.Fatal(err)
	}
	a3, err := NewArena(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := a3.Open("v").Stats(); st.MapExtents != 0 || st.LiveSlabs != 0 {
		t.Fatalf("a version 2 blob loaded %d extents into %d slabs", st.MapExtents, st.LiveSlabs)
	}
}

// (g) Reads spread evenly over a volume eight times the arena re-read
// a chunk before its slab comes round about one time in nine: no slab
// is ever half hit, so none is re-armed, and the copying is no more
// than it was when every eviction copied into its own next life (the
// bound is that policy's count on this stream).
func TestUniformReadsRearmNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 20k reads over a 48 MiB arena")
	}
	const nSlabs = 12
	a, _ := arenaFor(t, nSlabs, 32*chunkBytes)
	c := a.Open("")
	m := &mixStream{rng: rand.New(rand.NewSource(1)), blocks: 8 * nSlabs * 32 * 8}
	for i := 0; i < 20_000; i++ {
		m.read(t, c)
	}
	st := c.Stats()
	t.Logf("%d evictions, %d re-arms, %d KiB reinserted", st.SlabEvictions, st.Rearms, st.ReinsertedBytes>>10)
	if st.Rearms != 0 {
		t.Errorf("uniform reads re-armed %d slabs", st.Rearms)
	}
	const parentReinserted = 282_984_448
	if st.ReinsertedBytes > parentReinserted {
		t.Errorf("reinserted %d bytes, more than the %d of copying into the victim's own next life", st.ReinsertedBytes, parentReinserted)
	}
	assertNoDanglingTargets(t, c)
}

// (h) The benchmark's read mix, replayed without a clock: 16 KiB reads,
// 80 % into a contiguous twentieth of a 512 MiB volume, 24 slabs of
// 4 MiB. With one reader the hot set is under a third of the arena, yet
// plain FIFO flushes it once per turnover. readmix16k has two readers,
// each with a hot twentieth of its own: together over half the arena.
func TestReadMixMissRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 40k reads four times over a 96 MiB arena")
	}
	const (
		blocks    = 512 * 1024 / 16 // a 512 MiB volume
		warm, ops = 10_000, 30_000
	)
	replay := func(readers int, secondChance bool) float64 {
		a, _ := arenaFor(t, 24, 4*block.MiB)
		c := a.Open("")
		var streams []*mixStream
		for i := 0; i < readers; i++ {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			streams = append(streams, &mixStream{rng: rng, blocks: blocks,
				hotBase: rng.Intn(blocks - blocks/20), hotBlocks: blocks / 20, hotShare: 0.8})
		}
		misses := 0
		for i := 0; i < warm+ops; i++ {
			if _, miss := streams[i%readers].read(t, c); miss && i >= warm {
				misses++
			}
			if !secondChance {
				clear(c.stamps) // no hit is remembered: plain FIFO
			}
		}
		return float64(misses) / ops
	}
	for _, tc := range []struct {
		readers             int
		fifoAtLeast, atMost float64
	}{{1, 0.21, 0.17}, {2, 0.27, 0.17}} {
		fifo, chance := replay(tc.readers, false), replay(tc.readers, true)
		t.Logf("%d readers: miss ratio plain FIFO %.3f, second chance %.3f", tc.readers, fifo, chance)
		if fifo < tc.fifoAtLeast {
			t.Errorf("%d readers: plain FIFO misses %.3f of reads, expected >= %.2f: the replay no longer has the benchmark's shape", tc.readers, fifo, tc.fifoAtLeast)
		}
		if chance > tc.atMost {
			t.Errorf("%d readers: second chance misses %.3f of reads, want <= %.2f", tc.readers, chance, tc.atMost)
		}
	}
}
