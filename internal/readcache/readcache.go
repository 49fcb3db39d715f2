// Package readcache implements LSVD's SSD read cache (paper §3.1).
// Unlike the write-back cache it holds only clean data fetched from the
// backend, so its metadata needs no logging: losing the map merely
// costs re-fetches. The cache allocates space in large slabs and
// evicts whole slabs FIFO (the prototype's policy), with a second
// chance for what is re-read: each view fills two logs, a nursery slab
// with what misses bring in and a survivor slab with the 128 KiB chunks
// of evicted slabs that were hit since those slabs took their place in
// the FIFO order, and a slab that is mostly such chunks is not copied
// at all but moved to the back of the order where it lies. Hot data
// therefore packs at full density and a hot set larger than half the
// arena survives a cold scan. It keeps an in-memory extent map from
// vLBA to SSD location that is periodically persisted to a reserved
// region to avoid cold restarts (§3.2).
//
// The slab pool is a shared Arena (§3.7: one local SSD statically
// partitioned between the host's virtual disks — except the read cache
// is shared dynamically rather than carved up): every volume on a host
// opens a named view (Cache) with its own extent map, while all views
// draw slabs from one pool. Each slab is owned by exactly one view, so
// the arena can account occupancy per volume and evict fairly: a slab
// is only ever reclaimed from a view holding more than its
// proportional share of the pool, which means a hot volume churning
// the arena can never push a cold volume below its share — the
// foreground/background interference guard the multi-tenant host
// needs.
//
// Write-after-read hazards — a backend fetch racing with a newer client
// write — are handled two ways: reads always consult the write cache
// first (§3.1), and the core invalidates overlapping read-cache entries
// on every write so that stale data cannot be exposed after the write
// cache evicts the newer copy.
package readcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// Policy and FIFO are what is left of a policy knob: there is one
// eviction policy. They stay only because benchmark/ladder.go, which a
// change that claims a gain may not edit, calls SizedConfig(n, FIFO).
type Policy int

// FIFO is the only Policy.
const FIFO Policy = 0

// chunkSectors is the granularity of hit tracking: 128 KiB, the fetch
// window the core admits on a miss. A hot 16 KiB block is re-read about
// once per arena turnover, so a per-extent reference bit is a coin
// toss; the window around it is re-read several times.
const chunkSectors = 256

// Config configures a read-cache arena.
type Config struct {
	// SlabBytes is the allocation/eviction unit. Default 4 MiB.
	SlabBytes int64
	// MapBytes reserves space for map persistence. Default 16 MiB.
	MapBytes int64
}

func (c *Config) setDefaults() {
	if c.SlabBytes == 0 {
		c.SlabBytes = 4 * block.MiB
	}
	if c.MapBytes == 0 {
		c.MapBytes = 16 * block.MiB
	}
}

// SizedConfig scales the metadata reservation and slab size to the
// cache device so small experiment caches still hold a useful number
// of slabs (>= 8 where possible). Both the single-volume core and the
// multi-volume host size their arenas with it, so the two paths agree.
// The Policy argument is ignored (see Policy).
func SizedConfig(devBytes int64, _ Policy) Config {
	// The persisted map costs 24 bytes per extent: a thirty-second of
	// the device covers one extent per 768 bytes cached.
	mapBytes := min(devBytes/32, 16*block.MiB) &^ (block.BlockSize - 1)
	if mapBytes < block.BlockSize {
		mapBytes = block.BlockSize
	}
	slab := int64(4 * block.MiB)
	for slab > 256<<10 && (devBytes-mapBytes)/slab < 8 {
		slab /= 2
	}
	return Config{MapBytes: mapBytes, SlabBytes: slab}
}

// noOwner marks a slab no view owns.
const noOwner = -1

type slab struct {
	idx int
	gen uint32 // identity: new at every claim, stored in map targets and persisted
	// order is the slab's place in its view's FIFO order: gen at claim
	// or restore, renewed when the slab is re-armed and when a survivor
	// slab is handed over full. Not persisted.
	order    uint32
	owner    int   // view id owning every byte in the slab, or noOwner
	stale    bool  // restored for a persisted view that has not reopened
	fill     int64 // bytes used
	inserted []block.Extent

	// pendingOwnerName names the persisted owner of a stale slab until
	// that view reopens and adopts it.
	pendingOwnerName string
}

// Stats reports one view's cache activity plus the arena-wide slab
// picture it shares.
type Stats struct {
	Slabs, LiveSlabs   int // arena-wide
	Hits, Misses       uint64
	Inserts            uint64
	SlabEvictions      uint64 // arena-wide
	MapExtents         int
	PersistedMapBytes  int64
	PrefetchHitSectors uint64 // prefetched sectors read at least once, each counted once
	// Reinserts/ReinsertedBytes count the extents and bytes that
	// evictions of this view's slabs copied into a survivor slab: the
	// SSD writes the second chance costs. Rearms counts the slabs that
	// got theirs in place, at no cost.
	Reinserts       uint64
	ReinsertedBytes uint64
	Rearms          uint64

	// OwnedSlabs/OwnedBytes are this view's arena occupancy;
	// FairShareSlabs is the proportional floor fair eviction protects.
	OwnedSlabs     int
	OwnedBytes     int64
	FairShareSlabs int
}

// Occupancy is one view's row in the arena-wide accounting.
type Occupancy struct {
	Volume string
	Slabs  int
	Bytes  int64
}

// ArenaStats is the arena-wide picture: slab totals and the per-view
// occupancy table (sorted by view creation order).
type ArenaStats struct {
	Slabs, LiveSlabs int
	SlabBytes        int64
	Evictions        uint64
	FairShareSlabs   int
	Views            []Occupancy
}

// Arena is a slab pool on one cache device shared by any number of
// per-volume views. All state is guarded by one mutex: data-path reads
// hold it across lookup+read so slab reuse cannot race a read.
type Arena struct {
	mu  sync.Mutex //lsvd:lock arena.mu
	dev simdev.Device
	cfg Config

	dataStart int64
	slabs     []*slab
	views     []*Cache
	byName    map[string]*Cache
	nextGen   uint32
	// rescue holds the bytes an eviction copies forward, between reading
	// them out of the victim slab and appending them to a survivor slab.
	rescue []byte

	evictions      uint64
	persistedBytes int64
	// full records whether the last nursery claim found no never-used or
	// stale slab, so that new slabs displace cached data.
	full atomic.Bool

	// pending holds persisted view maps (keyed by name) awaiting their
	// Open; stale slab ownership is tracked on the slabs themselves.
	pending map[string][]byte
}

// Cache is one volume's view of an Arena: a private extent map over
// the shared slab pool. The single-volume New constructor returns a
// one-view arena, so existing callers see the historical behavior.
type Cache struct {
	a    *Arena
	id   int
	name string

	m *extmap.Map
	// pf marks vLBA ranges whose cached copy came from temporal
	// prefetch rather than a demand miss and has not been read yet. The
	// first hit consumes the tag, crediting PrefetchHitSectors. Not
	// persisted.
	pf *extmap.Map

	// The view's two fill points, -1 if none: active is the nursery
	// slab, which takes demand and prefetch inserts; survivor takes only
	// what evictions rescue. Neither is persisted.
	active, survivor int
	// newest is the order of the slab this view claimed last; stamps[i]
	// is its value at the last hit in chunk i (vLBA / chunkSectors), 0
	// if never hit. 32 KiB per GiB of volume touched.
	newest uint32
	stamps []uint32

	hits, misses, inserts              uint64
	pfHitSectors                       uint64
	reinserts, reinsertedBytes, rearms uint64
}

// NewArena builds a shared read-cache arena on dev, attempting to load
// persisted state (slab table + per-view maps).
func NewArena(dev simdev.Device, cfg Config) (*Arena, error) {
	cfg.setDefaults()
	a := &Arena{
		dev: dev, cfg: cfg, nextGen: 1,
		byName:  make(map[string]*Cache),
		pending: make(map[string][]byte),
	}
	a.dataStart = block.BlockSize + cfg.MapBytes
	n := (dev.Size() - a.dataStart) / cfg.SlabBytes
	if n < 2 {
		return nil, fmt.Errorf("readcache: device of %d bytes holds %d slabs; need >= 2", dev.Size(), n)
	}
	for i := 0; i < int(n); i++ {
		a.slabs = append(a.slabs, &slab{idx: i, owner: noOwner})
	}
	a.loadState() // best effort; failure just means a cold cache
	return a, nil
}

// New builds a single-view read cache on dev (the pre-arena API): a
// fresh arena with one anonymous view.
func New(dev simdev.Device, cfg Config) (*Cache, error) {
	a, err := NewArena(dev, cfg)
	if err != nil {
		return nil, err
	}
	return a.Open(""), nil
}

// Open returns the named view, creating it if needed. Reopening a name
// returns the same view — a volume that closes and reopens on a live
// host finds its cached data warm. If a persisted map for the name was
// loaded, it is restored (entries validated against the slab table).
func (a *Arena) Open(name string) *Cache {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.byName[name]; ok {
		return v
	}
	v := &Cache{a: a, id: len(a.views), name: name, m: extmap.New(), pf: extmap.New(), active: -1, survivor: -1}
	a.views = append(a.views, v)
	a.byName[name] = v
	if raw, ok := a.pending[name]; ok {
		delete(a.pending, name)
		a.restoreView(v, raw)
	}
	return v
}

// Purge drops every cached byte and map entry of the named view and
// returns its slabs to the free pool (volume deletion). The view stays
// registered; its next inserts start cold.
func (a *Arena) Purge(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.pending, name)
	v, ok := a.byName[name]
	if !ok {
		return
	}
	for _, s := range a.slabs {
		if s.owner == v.id {
			a.release(s)
		}
	}
	v.m.Reset()
	v.pf.Reset()
	v.stamps = nil
}

// Views returns the registered view names in creation order.
func (a *Arena) Views() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.views))
	for i, v := range a.views {
		out[i] = v.name
	}
	return out
}

func (a *Arena) slabBase(idx int) int64 { return a.dataStart + int64(idx)*a.cfg.SlabBytes }

// fairShareSlabs is the proportional occupancy floor: the slab pool
// divided by the number of registered views. Eviction never reclaims
// from a view at or below it while any view is above it.
func (a *Arena) fairShareSlabs() int {
	n := len(a.views)
	if n == 0 {
		n = 1
	}
	share := len(a.slabs) / n
	if share < 1 {
		share = 1
	}
	return share
}

func (a *Arena) ownedSlabs(id int) (slabs int, bytes int64) {
	for _, s := range a.slabs {
		if s.owner == id {
			slabs++
			bytes += s.fill
		}
	}
	return slabs, bytes
}

// Name returns the view's name ("" for the single-volume view).
func (c *Cache) Name() string { return c.name }

// Arena returns the arena backing this view.
func (c *Cache) Arena() *Arena { return c.a }

// Lookup returns the view's coverage of ext. It is a presence check
// (admission asks it what a fetched window would overwrite), not a
// read: only ReadExtent counts hits and misses and stamps chunks.
func (c *Cache) Lookup(ext block.Extent) []extmap.Run {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	return c.m.Lookup(ext)
}

// touch stamps every chunk ext overlaps with the order of the slab the
// view claimed last. An eviction compares the stamp with the victim's
// order: greater means the chunk was hit after the victim took its
// place and the view moved on to a later slab.
func (c *Cache) touch(ext block.Extent) {
	last := int((ext.End() - 1) / chunkSectors)
	if last >= len(c.stamps) {
		c.stamps = append(c.stamps, make([]uint32, last+1-len(c.stamps))...)
	}
	for i := int(ext.LBA / chunkSectors); i <= last; i++ {
		c.stamps[i] = c.newest
	}
}

// consumePrefetchTags credits the hit sectors of ext that prefetch
// brought in and nobody has read yet, and drops their tags: a sector
// counts once, on its first read.
func (c *Cache) consumePrefetchTags(ext block.Extent) {
	if c.pf.Len() == 0 {
		return
	}
	tagged := false
	for _, pr := range c.pf.Lookup(ext) {
		if pr.Present {
			c.pfHitSectors += uint64(pr.Sectors)
			tagged = true
		}
	}
	if tagged {
		c.pf.Delete(ext)
	}
}

// Full reports whether the arena's last nursery claim had to displace
// cached data, finding no never-used or stale slab.
func (a *Arena) Full() bool { return a.full.Load() }

// ReadExtent looks up ext, bumps hit statistics, and reads every
// present run into the matching positions of buf (len(buf) ==
// ext.Bytes()), all under one lock acquisition so a concurrent slab
// eviction cannot reuse the space mid-read. Absent runs are returned
// untouched for the caller's next level.
func (c *Cache) ReadExtent(ext block.Extent, buf []byte) ([]extmap.Run, error) {
	a := c.a
	a.mu.Lock()
	defer a.mu.Unlock()
	runs := c.m.Lookup(ext)
	hit := false
	for _, r := range runs {
		if !r.Present {
			continue
		}
		hit = true
		c.touch(r.Extent)
		c.consumePrefetchTags(r.Extent)
		off := (r.LBA - ext.LBA).Bytes()
		if err := a.dev.ReadAt(buf[off:off+r.Bytes()], r.Target.Off.Bytes()); err != nil {
			return nil, err
		}
	}
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return runs, nil
}

// Insert stores fetched backend data for ext, splitting across slabs
// as needed and evicting old slabs when the arena is full.
func (c *Cache) Insert(ext block.Extent, data []byte) error {
	return c.insert(ext, data, false)
}

// InsertPrefetched is Insert for data brought in by temporal prefetch
// rather than a demand miss. The data stays tagged until its first hit,
// which PrefetchHitSectors counts, so the read-ahead's caller can tell
// whether it earns its bytes.
func (c *Cache) InsertPrefetched(ext block.Extent, data []byte) error {
	return c.insert(ext, data, true)
}

func (c *Cache) insert(ext block.Extent, data []byte, prefetched bool) error {
	if int64(len(data)) != ext.Bytes() {
		return fmt.Errorf("readcache: extent %v does not match %d data bytes", ext, len(data))
	}
	a := c.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if prefetched {
		// Identity target (Off = LBA) so adjacent tags merge in the map.
		c.pf.Update(ext, extmap.Target{Off: ext.LBA})
	} else if c.pf.Len() > 0 {
		c.pf.Delete(ext) // demand data over a prefetched range drops the tag
	}
	for ext.Sectors > 0 {
		s, err := a.writableSlab(c)
		if err != nil {
			return err
		}
		room := a.cfg.SlabBytes - s.fill
		take := ext.Bytes()
		if take > room {
			take = room &^ (block.SectorSize - 1)
		}
		sectors := uint32(take >> block.SectorShift)
		if err := a.place(c, s, block.Extent{LBA: ext.LBA, Sectors: sectors}, data[:take]); err != nil {
			return err
		}
		c.inserts++
		data = data[take:]
		ext.LBA += block.LBA(sectors)
		ext.Sectors -= sectors
	}
	return nil
}

// writableSlab returns the view's nursery slab if it has space, or
// claims a fresh one: free first, then stale (persisted for a view that
// never reopened), then fair evictions, oldest first, until one frees a
// slab for the nursery. A slab taken from another view is being
// reclaimed from an owner over its share and carries nothing over. One
// of c's own gets a second chance:
//
//   - if at least half of its still-mapped bytes lie in chunks hit since
//     it took its place, it is re-armed where it lies — moved to the
//     back of the order, nothing copied, its map entries as they were —
//     and the next oldest slab is tried;
//   - otherwise it is evicted and its hit chunks are appended to the
//     survivor slab. When that is full the freed slab becomes the next
//     survivor slab, takes the rest, and one more victim is evicted for
//     the nursery.
//
// Three guards make every claim terminate with at least half a slab
// freed, so an arena in which everything is hot degrades to plain FIFO
// instead of copying itself in circles: a claim re-arms at most half of
// c's slabs; an eviction rescues at most half a slab, which a survivor
// slab just started (itself at most half full) always has room for; and
// a fill point evicted because the view has nothing else carries
// nothing over.
func (a *Arena) writableSlab(c *Cache) (*slab, error) {
	if c.active >= 0 {
		if s := a.slabs[c.active]; s.owner == c.id && s.fill < a.cfg.SlabBytes {
			return s, nil
		}
		c.active = -1 // evicted out from under us or full
	}
	// A never-used slab, else the oldest stale one.
	var free *slab
	for _, s := range a.slabs {
		if s.owner != noOwner {
			continue
		}
		if s.gen == 0 {
			free = s
			break
		}
		if s.stale && (free == nil || s.gen < free.gen) {
			free = s
		}
	}
	a.full.Store(free == nil)
	owned, _ := a.ownedSlabs(c.id)
	for rearms := 0; free == nil; {
		victim := a.pickVictim(c)
		if victim < 0 {
			return nil, fmt.Errorf("readcache: no evictable slab")
		}
		s := a.slabs[victim]
		pieces := a.unmap(s)
		var mapped, hit int64
		if s.owner == c.id && victim != c.survivor {
			for _, p := range pieces {
				mapped += p.Bytes()
				if c.hitAfter(p.LBA, s.order) {
					hit += p.Bytes()
				}
			}
		}
		if hit > 0 && 2*hit >= mapped && rearms < owned/2 {
			for _, p := range pieces {
				c.m.Update(p.Extent, p.Target)
			}
			a.toBack(s)
			rearms++
			c.rearms++
			continue
		}
		kept, err := a.evict(s, pieces, hit > 0)
		if err != nil {
			return nil, err
		}
		if !kept {
			free = s
		}
	}
	a.claim(c, free)
	c.active = free.idx
	return free, nil
}

// claim makes s the newest slab of c: empty, under a new identity, at
// the back of the view's order.
func (a *Arena) claim(c *Cache, s *slab) {
	a.release(s)
	s.gen, s.owner = a.nextGen, c.id
	a.toBack(s)
	c.newest = s.order
}

// toBack gives s the newest place in the FIFO order.
func (a *Arena) toBack(s *slab) {
	s.order = a.nextGen
	a.nextGen++
}

// release returns s to the free pool; its owner's map must no longer
// point into it.
func (a *Arena) release(s *slab) {
	if s.owner != noOwner {
		v := a.views[s.owner]
		if v.active == s.idx {
			v.active = -1
		}
		if v.survivor == s.idx {
			v.survivor = -1
		}
	}
	s.gen, s.order, s.owner, s.fill, s.inserted, s.stale = 0, 0, noOwner, 0, nil, false
}

// place appends data for ext to s, which has room for it, and maps it.
func (a *Arena) place(c *Cache, s *slab, ext block.Extent, data []byte) error {
	off := a.slabBase(s.idx) + s.fill
	if err := a.dev.WriteAt(data, off); err != nil {
		return err
	}
	c.m.Update(ext, extmap.Target{Obj: s.gen, Off: block.LBAFromBytes(off)})
	s.inserted = append(s.inserted, ext)
	s.fill += ext.Bytes()
	return nil
}

// pickVictim chooses the slab to evict for requester c: the victim
// view is the one holding the most slabs among views over the fair
// share — so a view at or below its proportional floor is untouchable
// while anyone (including the requester) is over it — and within the
// victim view the oldest slab goes (lowest order). The victim view's
// two fill points are spared unless it owns nothing else.
func (a *Arena) pickVictim(c *Cache) int {
	share := a.fairShareSlabs()
	owned := make([]int, len(a.views))
	for _, s := range a.slabs {
		if s.owner >= 0 && s.owner < len(owned) {
			owned[s.owner]++
		}
	}
	victim := -1
	for id, n := range owned {
		if n > share && (victim < 0 || n > owned[victim]) {
			victim = id
		}
	}
	if victim < 0 {
		// No view is over its share (the pool divides exactly): the
		// requester recycles its own slabs; a requester with none takes
		// from the largest holder.
		if owned[c.id] > 0 {
			victim = c.id
		} else {
			for id, n := range owned {
				if victim < 0 || n > owned[victim] {
					victim = id
				}
			}
			if victim < 0 || owned[victim] == 0 {
				return -1
			}
		}
	}
	v := a.views[victim]
	oldest := func(fillPoints bool) int {
		best := -1
		for _, s := range a.slabs {
			if s.owner == victim && (s.idx == v.active || s.idx == v.survivor) == fillPoints &&
				(best < 0 || s.order < a.slabs[best].order) {
				best = s.idx
			}
		}
		return best
	}
	if best := oldest(false); best >= 0 {
		return best
	}
	return oldest(true) // only fill points are left
}

// hitAfter reports whether the chunk holding lba was hit after the view
// had claimed a slab later than place order in its FIFO order.
func (c *Cache) hitAfter(lba block.LBA, order uint32) bool {
	i := int(lba / chunkSectors)
	return i < len(c.stamps) && c.stamps[i] > order
}

// unmap drops every entry of the owner's map that still points into s
// (so a later read misses instead of reading recycled bytes) and
// returns what it dropped, cut at chunk boundaries, each sector once:
// entries of s.inserted may overlap, and deleting a run as it is
// visited keeps a later overlapping entry from seeing it again.
func (a *Arena) unmap(s *slab) []extmap.Run {
	if s.owner < 0 || s.owner >= len(a.views) {
		invariant.Failf("readcache: slab %d owned by unknown view %d", s.idx, s.owner)
	}
	v := a.views[s.owner]
	lo := block.LBAFromBytes(a.slabBase(s.idx))
	hi := lo + block.LBA(a.cfg.SlabBytes>>block.SectorShift)
	var pieces []extmap.Run
	for _, ins := range s.inserted {
		for _, r := range v.m.Lookup(ins) {
			if !r.Present || r.Target.Obj != s.gen || r.Target.Off < lo || r.Target.Off >= hi {
				continue
			}
			v.m.Delete(r.Extent)
			for lba := r.LBA; lba < r.End(); {
				end := min((lba/chunkSectors+1)*chunkSectors, r.End())
				pieces = append(pieces, extmap.Run{
					Extent: block.Extent{LBA: lba, Sectors: uint32(end - lba)},
					Target: r.Target.Shift(lba - r.LBA), Present: true,
				})
				lba = end
			}
		}
	}
	return pieces
}

// evict frees s, whose unmapped pieces are given. With rescue set (s is
// the requester's own), the pieces in chunks hit since s took its place
// are first read into a.rescue — at most half a slab of them — and then
// appended to the view's survivor slab, their prefetch tags left alone.
// If there is no survivor slab or it fills up, s itself becomes the
// next one and takes the rest: evict then reports that it kept s.
func (a *Arena) evict(s *slab, pieces []extmap.Run, rescue bool) (kept bool, err error) {
	v := a.views[s.owner]
	var keep []block.Extent
	var rescued int64 // bytes packed into a.rescue, in keep's order
	for _, p := range pieces {
		if rescue && v.hitAfter(p.LBA, s.order) && a.readRescue(p.Target.Off.Bytes(), rescued, p.Bytes()) {
			keep = append(keep, p.Extent)
			rescued += p.Bytes()
		} else {
			v.pf.Delete(p.Extent) // dropped for good: so is its prefetch tag
		}
	}
	a.release(s)
	a.evictions++
	v.reinserts += uint64(len(keep))
	v.reinsertedBytes += uint64(rescued)
	var off int64
	for _, ext := range keep {
		if v.survivor < 0 || a.slabs[v.survivor].fill+ext.Bytes() > a.cfg.SlabBytes {
			if v.survivor >= 0 {
				// A survivor slab takes its place in the order when it
				// is full, not when its first chunk arrives: what it holds
				// was all hit before it got here.
				a.toBack(a.slabs[v.survivor])
			}
			a.claim(v, s)
			v.survivor, kept = s.idx, true
		}
		if err := a.place(v, a.slabs[v.survivor], ext, a.rescue[off:][:ext.Bytes()]); err != nil {
			return kept, err
		}
		off += ext.Bytes()
	}
	return kept, nil
}

// readRescue reads n bytes at device offset src into a.rescue[at:],
// unless that would pass the half-slab cap or the read fails.
func (a *Arena) readRescue(src, at, n int64) bool {
	if at+n > a.cfg.SlabBytes/2 {
		return false
	}
	if a.rescue == nil {
		a.rescue = make([]byte, a.cfg.SlabBytes/2)
	}
	return a.dev.ReadAt(a.rescue[at:at+n], src) == nil
}

// Invalidate drops any cached data overlapping ext (called by the core
// on every client write).
func (c *Cache) Invalidate(ext block.Extent) {
	a := c.a
	a.mu.Lock()
	defer a.mu.Unlock()
	c.m.Delete(ext)
	if c.pf.Len() > 0 {
		c.pf.Delete(ext)
	}
}

// persistVersion tags the reserved-region layout: v2 added per-slab
// ownership and multiple named view maps; v3 has the same payload, but
// SizedConfig reserves less for it, so the slabs a v2 map points into
// start elsewhere; v4 frames the record with a one-sector header
// (journal.Encode) where v3 padded header and record to 4 KiB. Any
// other version (or any parse failure) loads as a cold cache, which is
// safe.
const persistVersion = 4

// Persist writes the arena state — slab table plus every view's map —
// to the reserved region (best effort; §3.2: "the read cache map is
// periodically persisted to SSD").
func (c *Cache) Persist() error { return c.a.Persist() }

// Persist writes the arena state to the reserved region.
func (a *Arena) Persist() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var w journal.Codec
	w.PutU32(persistVersion)
	w.PutU32(uint32(len(a.slabs)))
	for _, s := range a.slabs {
		w.PutU32(s.gen)
		w.PutU64(uint64(s.fill))
		owner := int32(noOwner)
		if s.owner >= 0 {
			owner = int32(s.owner)
		}
		w.PutU32(uint32(owner))
	}
	w.PutU32(uint32(len(a.views)))
	for _, v := range a.views {
		mapBytes, err := v.m.MarshalBinary()
		if err != nil {
			return err
		}
		w.PutStr(v.name)
		w.PutBytes(mapBytes)
	}
	rec, err := journal.Encode(&journal.Header{Type: journal.TypeCheckpoint, Seq: 1, DataLen: uint64(len(w.Buf))}, w.Buf, false)
	if err != nil {
		return err
	}
	if int64(len(rec)) > a.cfg.MapBytes {
		return fmt.Errorf("readcache: persisted map of %d bytes exceeds reserved %d", len(rec), a.cfg.MapBytes)
	}
	if err := a.dev.WriteAt(rec, block.BlockSize); err != nil {
		return err
	}
	a.persistedBytes = int64(len(rec))
	return a.dev.Flush()
}

// loadState attempts to restore persisted arena state; any failure
// leaves the arena cold, which is safe.
func (a *Arena) loadState() {
	hdr := make([]byte, journal.HeaderSize(0))
	if err := a.dev.ReadAt(hdr, block.BlockSize); err != nil {
		return
	}
	h, hdrLen, err := journal.DecodeHeader(hdr)
	if err != nil || h.Type != journal.TypeCheckpoint {
		return
	}
	// Bound the on-disk length field before converting: a corrupt
	// DataLen would wrap int64 negative, pass the MapBytes ceiling,
	// and panic in make below.
	if h.DataLen > uint64(a.cfg.MapBytes) {
		return
	}
	dataLen := int64(h.DataLen)
	total := int64(hdrLen) + dataLen
	if total > a.cfg.MapBytes {
		return
	}
	full := make([]byte, total)
	if err := a.dev.ReadAt(full, block.BlockSize); err != nil {
		return
	}
	_, payload, _, err := journal.Decode(full, false)
	if err != nil {
		return
	}
	r := journal.Codec{Buf: payload}
	if r.U32() != persistVersion {
		return
	}
	n := int(r.U32())
	if r.Err != nil || n != len(a.slabs) {
		return
	}
	type slabState struct {
		gen   uint32
		fill  int64
		owner int32
	}
	state := make([]slabState, n)
	maxGen := uint32(0)
	for i := range state {
		state[i].gen = r.U32()
		state[i].fill = int64(r.U64())
		state[i].owner = int32(r.U32())
		if state[i].gen > maxGen {
			maxGen = state[i].gen
		}
	}
	nviews := int(r.U32())
	if r.Err != nil || nviews < 0 || nviews > n {
		return
	}
	names := make([]string, nviews)
	maps := make([][]byte, nviews)
	for i := 0; i < nviews; i++ {
		names[i] = r.Str()
		maps[i] = r.Bytes()
	}
	if r.Err != nil {
		return
	}
	// Commit: slab table first, then stash each view's map for its
	// Open. Restored slabs are "stale" until their view reopens; a
	// stale slab is reclaimable without a fairness pass.
	for i, st := range state {
		s := a.slabs[i]
		s.gen, s.order = st.gen, st.gen
		s.fill = st.fill
		s.owner = noOwner
		s.stale = st.gen != 0 && st.owner >= 0 && int(st.owner) < nviews
		if s.stale {
			s.pendingOwnerName = names[st.owner]
		}
	}
	a.nextGen = maxGen + 1
	for i, name := range names {
		if len(maps[i]) > 0 {
			a.pending[name] = maps[i]
		}
	}
}

// restoreView adopts the stale slabs persisted for v and loads its
// map, dropping any entry that no longer matches a slab it owns (the
// slab may have been reclaimed between load and open).
func (a *Arena) restoreView(v *Cache, raw []byte) {
	for _, s := range a.slabs {
		if s.stale && s.pendingOwnerName == v.name {
			s.owner = v.id
			s.stale = false
			s.pendingOwnerName = ""
			v.newest = max(v.newest, s.order)
		}
	}
	m := extmap.New()
	if err := m.UnmarshalBinary(raw); err != nil {
		return
	}
	// Validate entries against the adopted slabs and rebuild the
	// per-slab insert lists so future evictions can clean them.
	type drop struct{ ext block.Extent }
	var drops []drop
	m.Foreach(func(ext block.Extent, t extmap.Target) bool {
		if s := a.slabOfTargetID(v.id, t); s != nil {
			s.inserted = append(s.inserted, ext)
		} else {
			drops = append(drops, drop{ext})
		}
		return true
	})
	for _, d := range drops {
		m.Delete(d.ext)
	}
	v.m = m
}

func (a *Arena) slabOfTargetID(id int, t extmap.Target) *slab {
	off := t.Off.Bytes()
	if off < a.dataStart {
		return nil
	}
	idx := int((off - a.dataStart) / a.cfg.SlabBytes)
	if idx < 0 || idx >= len(a.slabs) {
		return nil
	}
	s := a.slabs[idx]
	if s.gen != t.Obj || s.owner != id {
		return nil
	}
	return s
}

// Stats returns a snapshot of this view's statistics plus the shared
// slab picture.
func (c *Cache) Stats() Stats {
	a := c.a
	a.mu.Lock()
	defer a.mu.Unlock()
	live := 0
	for _, s := range a.slabs {
		if s.gen != 0 && (s.owner != noOwner || s.stale) {
			live++
		}
	}
	ownedSlabs, ownedBytes := a.ownedSlabs(c.id)
	return Stats{
		Slabs: len(a.slabs), LiveSlabs: live,
		Hits: c.hits, Misses: c.misses, Inserts: c.inserts,
		SlabEvictions: a.evictions, MapExtents: c.m.Len(),
		PersistedMapBytes:  a.persistedBytes,
		PrefetchHitSectors: c.pfHitSectors,
		Reinserts:          c.reinserts,
		ReinsertedBytes:    c.reinsertedBytes,
		Rearms:             c.rearms,
		OwnedSlabs:         ownedSlabs,
		OwnedBytes:         ownedBytes,
		FairShareSlabs:     a.fairShareSlabs(),
	}
}

// Stats returns the arena-wide picture with the per-view occupancy
// table.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ArenaStats{
		Slabs: len(a.slabs), SlabBytes: a.cfg.SlabBytes,
		Evictions: a.evictions, FairShareSlabs: a.fairShareSlabs(),
	}
	for _, s := range a.slabs {
		if s.gen != 0 && (s.owner != noOwner || s.stale) {
			st.LiveSlabs++
		}
	}
	for _, v := range a.views {
		slabs, bytes := a.ownedSlabs(v.id)
		st.Views = append(st.Views, Occupancy{Volume: v.name, Slabs: slabs, Bytes: bytes})
	}
	// Persisted occupancy of views that have not reopened (offline
	// inspection sees every volume's footprint this way).
	stale := make(map[string]int)
	for _, s := range a.slabs {
		if s.stale {
			if i, ok := stale[s.pendingOwnerName]; ok {
				st.Views[i].Slabs++
				st.Views[i].Bytes += s.fill
			} else {
				stale[s.pendingOwnerName] = len(st.Views)
				st.Views = append(st.Views, Occupancy{Volume: s.pendingOwnerName, Slabs: 1, Bytes: s.fill})
			}
		}
	}
	return st
}
