// Package extmap implements the in-memory extent map used by every
// LSVD translation layer (paper §3.1, §3.7): an ordered map from
// virtual-disk sector ranges to locations, where a location is either a
// physical SSD address (write cache, read cache) or an
// (object, offset) pair (block store).
//
// The map is stored as a two-level B+-tree-like structure: a sorted
// sequence of chunks, each holding up to chunkMax sorted,
// non-overlapping extents. Entries cost 24 bytes, matching the paper's
// revised B+-tree figure (§3.7). Updates split and trim overlapping
// extents, report what they displaced (so the block store can maintain
// per-object live-data counters for garbage collection), and merge
// adjacent extents whose targets are contiguous.
package extmap

import (
	"encoding/binary"
	"fmt"
	"sort"

	"lsvd/internal/block"
)

// Target is the value side of a mapping. For the block store, Obj is
// the backend object sequence number and Off the sector offset of the
// data within that object. For SSD caches, Obj carries the slab or
// generation number (zero if unused) and Off the physical SSD sector.
type Target struct {
	Obj uint32
	Off block.LBA
}

// Shift returns the target advanced by d sectors, used when an extent
// is split.
func (t Target) Shift(d block.LBA) Target { return Target{Obj: t.Obj, Off: t.Off + d} }

// Contiguous reports whether o continues t after sectors n.
func (t Target) Contiguous(n uint32, o Target) bool {
	return t.Obj == o.Obj && t.Off+block.LBA(n) == o.Off
}

func (t Target) String() string { return fmt.Sprintf("%d@%d", t.Obj, t.Off) }

// Run is a mapped (or unmapped) portion of the virtual address space
// returned by lookups and updates.
type Run struct {
	block.Extent
	Target  Target
	Present bool
}

type entry struct {
	start   block.LBA
	sectors uint32
	tgt     Target
}

func (e entry) end() block.LBA    { return e.start + block.LBA(e.sectors) }
func (e entry) ext() block.Extent { return block.Extent{LBA: e.start, Sectors: e.sectors} }
func (e entry) run() Run          { return Run{Extent: e.ext(), Target: e.tgt, Present: true} }
func (e entry) shift(d block.LBA) entry {
	return entry{start: e.start + d, sectors: e.sectors - uint32(d), tgt: e.tgt.Shift(d)}
}

const (
	chunkMax    = 256 // split threshold
	chunkTarget = 128 // size of freshly built chunks
)

// Map is an ordered extent map. The zero value is not usable; call New.
// Map is not safe for concurrent use; callers hold their own locks
// (the LSVD layers each guard their map with the layer lock).
type Map struct {
	chunks [][]entry // non-empty, globally sorted, non-overlapping
	count  int
	mapped uint64 // total mapped sectors
}

// New returns an empty extent map.
func New() *Map { return &Map{} }

// Len returns the number of extents in the map.
func (m *Map) Len() int { return m.count }

// MappedSectors returns the total number of mapped sectors.
func (m *Map) MappedSectors() uint64 { return m.mapped }

// chunkFor returns the index of the chunk that could contain an entry
// overlapping lba: the last chunk whose first entry starts at or before
// lba, or 0.
func (m *Map) chunkFor(lba block.LBA) int {
	i := sort.Search(len(m.chunks), func(i int) bool {
		return m.chunks[i][0].start > lba
	})
	if i > 0 {
		i--
	}
	return i
}

// Update maps ext to t, displacing any overlapping mappings, which are
// returned (in order) so callers can account for invalidated data.
func (m *Map) Update(ext block.Extent, t Target) []Run {
	return m.mutate(ext, t, true, nil)
}

// UpdateExisting remaps only the portions of ext that are currently
// mapped and accepted by pred; holes stay holes. This is the operation
// the garbage collector needs: data is moved only where the map still
// points at the copied source, and ranges trimmed in the meantime are
// not resurrected (DESIGN.md §11.4).
func (m *Map) UpdateExisting(ext block.Extent, t Target, pred func(Run) bool) []Run {
	if pred == nil {
		pred = func(Run) bool { return true }
	}
	return m.mutateNoFill(ext, t, pred)
}

// UpdateIf maps ext to t but only over portions where pred accepts the
// existing mapping (holes always accept). Portions whose existing
// mapping is rejected are left untouched. Displaced runs are returned.
// This implements the conditional update needed when garbage collection
// races with fresh writes (DESIGN.md §11.4).
func (m *Map) UpdateIf(ext block.Extent, t Target, pred func(Run) bool) []Run {
	return m.mutate(ext, t, true, pred)
}

// Delete removes all mappings within ext (TRIM), returning them.
func (m *Map) Delete(ext block.Extent) []Run {
	return m.mutate(ext, Target{}, false, nil)
}

// DeleteIf removes mappings within ext whose existing Run is accepted
// by pred, leaving the rest in place; used by the caches to drop map
// entries that still point into a reclaimed log region.
func (m *Map) DeleteIf(ext block.Extent, pred func(Run) bool) []Run {
	return m.mutate(ext, Target{}, false, pred)
}

// mutate is the shared update/delete engine. Within ext it walks the
// existing coverage in order; overlapped portions accepted by pred are
// displaced (returned) and, when hasNew, re-covered by the new target;
// rejected portions are preserved. Partially overlapped extents are
// split, and the result is re-merged with its neighbours.
func (m *Map) mutate(ext block.Extent, t Target, hasNew bool, pred func(Run) bool) []Run {
	return m.mutateFull(ext, t, hasNew, true, pred)
}

// mutateNoFill is mutate but leaves unmapped holes unmapped.
func (m *Map) mutateNoFill(ext block.Extent, t Target, pred func(Run) bool) []Run {
	return m.mutateFull(ext, t, true, false, pred)
}

func (m *Map) mutateFull(ext block.Extent, t Target, hasNew, fillHoles bool, pred func(Run) bool) []Run {
	if ext.Empty() {
		return nil
	}
	c0, i0, c1, i1 := m.affected(ext)
	var displaced []Run
	var repl []entry

	// newRun tracks the pending new-target fragment being assembled.
	newStart, newEnd := block.LBA(0), block.LBA(0)
	haveFrag := false
	flushNew := func() {
		if haveFrag && hasNew {
			d := newStart - ext.LBA
			appendMerged(&repl, entry{start: newStart, sectors: uint32(newEnd - newStart), tgt: t.Shift(d)})
		}
		haveFrag = false
	}
	coverNew := func(lo, hi block.LBA) {
		if lo >= hi {
			return
		}
		if haveFrag && newEnd == lo {
			newEnd = hi
			return
		}
		flushNew()
		newStart, newEnd, haveFrag = lo, hi, true
	}

	cursor := ext.LBA
	m.forRange(c0, i0, c1, i1, func(e entry) {
		// Hole before this entry (within ext).
		if e.start > cursor && fillHoles {
			coverNew(cursor, min(e.start, ext.End()))
		}
		ov, ok := e.ext().Intersect(ext)
		if !ok {
			// Entirely outside ext (can only be the boundary entries).
			appendMerged(&repl, e)
			return
		}
		// Left remainder.
		if e.start < ov.LBA {
			left := e
			left.sectors = uint32(ov.LBA - e.start)
			flushNew()
			appendMerged(&repl, left)
		}
		mid := e.shift(ov.LBA - e.start)
		mid.sectors = ov.Sectors
		if pred == nil || pred(mid.run()) {
			displaced = append(displaced, mid.run())
			coverNew(ov.LBA, ov.End())
		} else {
			flushNew()
			appendMerged(&repl, mid)
		}
		// Right remainder.
		if e.end() > ov.End() {
			right := e.shift(ov.End() - e.start)
			flushNew()
			appendMerged(&repl, right)
		}
		if ov.End() > cursor {
			cursor = ov.End()
		}
	})
	// Trailing hole.
	if cursor < ext.End() && fillHoles {
		coverNew(cursor, ext.End())
	}
	flushNew()

	m.splice(c0, i0, c1, i1, repl)
	return displaced
}

// affected locates the half-open global range [ (c0,i0), (c1,i1) ) of
// entries that must be examined for ext: all entries overlapping it,
// extended to include the entry immediately before if it overlaps.
func (m *Map) affected(ext block.Extent) (c0, i0, c1, i1 int) {
	if len(m.chunks) == 0 {
		return 0, 0, 0, 0
	}
	// First entry with end > ext.LBA.
	c0 = m.chunkFor(ext.LBA)
	ch := m.chunks[c0]
	i0 = sort.Search(len(ch), func(i int) bool { return ch[i].end() > ext.LBA })
	if i0 == len(ch) {
		c0++
		i0 = 0
		if c0 == len(m.chunks) {
			return c0, 0, c0, 0
		}
	}
	// First entry with start >= ext.End() at or after (c0,i0).
	c1, i1 = c0, i0
	for c1 < len(m.chunks) {
		ch := m.chunks[c1]
		j := sort.Search(len(ch)-i1, func(i int) bool { return ch[i1+i].start >= ext.End() })
		i1 += j
		if i1 < len(ch) {
			break
		}
		c1++
		i1 = 0
	}
	return
}

// forRange calls fn for each entry in the global range, in order.
func (m *Map) forRange(c0, i0, c1, i1 int, fn func(entry)) {
	for c := c0; c <= c1 && c < len(m.chunks); c++ {
		ch := m.chunks[c]
		lo, hi := 0, len(ch)
		if c == c0 {
			lo = i0
		}
		if c == c1 {
			hi = i1
		}
		for _, e := range ch[lo:hi] {
			fn(e)
		}
	}
}

// splice replaces the global entry range with repl, then re-balances
// the touched chunks and merges across the boundaries.
func (m *Map) splice(c0, i0, c1, i1 int, repl []entry) {
	// Pull in the entry before the range and after the range so that
	// boundary merging happens naturally inside repl.
	type edge struct{ c, i int }
	pre := edge{c0, i0 - 1}
	if i0 == 0 {
		pre = edge{c0 - 1, -1}
		if pre.c >= 0 {
			pre.i = len(m.chunks[pre.c]) - 1
		}
	}
	hasPre := pre.c >= 0 && pre.i >= 0
	hasPost := c1 < len(m.chunks) && i1 < len(m.chunks[c1])

	var merged []entry
	if hasPre {
		merged = append(merged, m.chunks[pre.c][pre.i])
	}
	for _, e := range repl {
		appendMerged(&merged, e)
	}
	if hasPost {
		appendMerged(&merged, m.chunks[c1][i1])
	}

	// Build the replacement chunk list for chunks [firstC, lastC].
	firstC, firstI := c0, i0
	if hasPre {
		firstC, firstI = pre.c, pre.i
	}
	lastC, lastI := c1, i1 // exclusive end adjusted to include post entry
	if hasPost {
		lastI = i1 + 1
	}
	var flat []entry
	if firstC < len(m.chunks) {
		flat = append(flat, m.chunks[firstC][:firstI]...)
	}
	flat = append(flat, merged...)
	if lastC < len(m.chunks) {
		flat = append(flat, m.chunks[lastC][lastI:]...)
	}

	endC := lastC
	if endC >= len(m.chunks) {
		endC = len(m.chunks) - 1
	}
	// Incremental counter maintenance: only the chunks in
	// [firstC, endC] are replaced by rechunk(flat).
	for c := firstC; c <= endC && c >= 0; c++ {
		m.count -= len(m.chunks[c])
		for _, e := range m.chunks[c] {
			m.mapped -= uint64(e.sectors)
		}
	}
	m.count += len(flat)
	for _, e := range flat {
		m.mapped += uint64(e.sectors)
	}
	newChunks := rechunk(flat)
	out := m.chunks[:firstC:firstC]
	out = append(out, newChunks...)
	if endC+1 <= len(m.chunks) {
		out = append(out, m.chunks[endC+1:]...)
	}
	m.chunks = out
}

// appendMerged appends e to *s, merging with the last element when the
// extents are adjacent and the targets contiguous.
func appendMerged(s *[]entry, e entry) {
	if e.sectors == 0 {
		return
	}
	if n := len(*s); n > 0 {
		last := &(*s)[n-1]
		if last.end() == e.start && last.tgt.Contiguous(last.sectors, e.tgt) {
			last.sectors += e.sectors
			return
		}
	}
	*s = append(*s, e)
}

func rechunk(flat []entry) [][]entry {
	var out [][]entry
	for len(flat) > 0 {
		n := min(len(flat), chunkTarget)
		c := make([]entry, n)
		copy(c, flat[:n])
		out = append(out, c)
		flat = flat[n:]
	}
	return out
}

// Lookup returns the coverage of ext, in order, as alternating present
// and absent runs; absent runs have Present=false and zero Target.
func (m *Map) Lookup(ext block.Extent) []Run {
	return m.LookupAppend(nil, ext)
}

// LookupAppend is Lookup appending into dst, for hot read paths that
// reuse a caller-owned buffer across calls. A nil dst is allocated once
// with exact worst-case capacity (n overlapping entries produce at most
// 2n+1 runs), so Lookup itself costs a single allocation.
func (m *Map) LookupAppend(dst []Run, ext block.Extent) []Run {
	if ext.Empty() {
		return dst
	}
	c0, i0, c1, i1 := m.affected(ext)
	if dst == nil {
		dst = make([]Run, 0, 2*m.rangeCount(c0, i0, c1, i1)+1)
	}
	cursor := ext.LBA
	m.forRange(c0, i0, c1, i1, func(e entry) {
		ov, ok := e.ext().Intersect(ext)
		if !ok {
			return
		}
		if ov.LBA > cursor {
			dst = append(dst, Run{Extent: block.Extent{LBA: cursor, Sectors: uint32(ov.LBA - cursor)}})
		}
		sub := e.shift(ov.LBA - e.start)
		sub.sectors = ov.Sectors
		dst = append(dst, sub.run())
		cursor = ov.End()
	})
	if cursor < ext.End() {
		dst = append(dst, Run{Extent: block.Extent{LBA: cursor, Sectors: uint32(ext.End() - cursor)}})
	}
	return dst
}

// rangeCount returns the number of entries in the half-open global
// range returned by affected.
func (m *Map) rangeCount(c0, i0, c1, i1 int) int {
	if c0 >= len(m.chunks) {
		return 0
	}
	if c0 == c1 {
		return i1 - i0
	}
	n := len(m.chunks[c0]) - i0
	for c := c0 + 1; c < c1 && c < len(m.chunks); c++ {
		n += len(m.chunks[c])
	}
	if c1 < len(m.chunks) {
		n += i1
	}
	return n
}

// Foreach calls fn for every extent in ascending order; returning false
// stops the walk.
func (m *Map) Foreach(fn func(ext block.Extent, t Target) bool) {
	for _, ch := range m.chunks {
		for _, e := range ch {
			if !fn(e.ext(), e.tgt) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	n := &Map{count: m.count, mapped: m.mapped}
	n.chunks = make([][]entry, len(m.chunks))
	for i, ch := range m.chunks {
		c := make([]entry, len(ch))
		copy(c, ch)
		n.chunks[i] = c
	}
	return n
}

// Reset empties the map.
func (m *Map) Reset() {
	m.chunks = nil
	m.count = 0
	m.mapped = 0
}

const entrySize = 8 + 4 + 4 + 8 // start, sectors, obj, off

// MarshalBinary serializes the map (checkpoints, §3.3).
func (m *Map) MarshalBinary() ([]byte, error) {
	return m.AppendBinary(nil), nil
}

// AppendBinary appends the serialized map to dst and returns the
// extended slice, reusing dst's capacity. Checkpointing calls it with
// the previous checkpoint's buffer so the periodic map snapshot stops
// allocating once the buffer reaches steady-state size — the snapshot
// happens under the store lock, where every saved microsecond is
// foreground latency.
func (m *Map) AppendBinary(dst []byte) []byte {
	base := len(dst)
	need := 4 + m.count*entrySize
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[base : base+need]
	binary.LittleEndian.PutUint32(buf, uint32(m.count))
	off := 4
	m.Foreach(func(ext block.Extent, t Target) bool {
		binary.LittleEndian.PutUint64(buf[off:], uint64(ext.LBA))
		binary.LittleEndian.PutUint32(buf[off+8:], ext.Sectors)
		binary.LittleEndian.PutUint32(buf[off+12:], t.Obj)
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(t.Off))
		off += entrySize
		return true
	})
	return dst[:base+need]
}

// UnmarshalBinary restores a map serialized by MarshalBinary.
func (m *Map) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("extmap: truncated serialization (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data) < 4+n*entrySize {
		return fmt.Errorf("extmap: serialization holds %d bytes, need %d", len(data), 4+n*entrySize)
	}
	m.Reset()
	var flat []entry
	off := 4
	var prevEnd block.LBA
	for i := 0; i < n; i++ {
		e := entry{
			start:   block.LBA(binary.LittleEndian.Uint64(data[off:])),
			sectors: binary.LittleEndian.Uint32(data[off+8:]),
			tgt: Target{
				Obj: binary.LittleEndian.Uint32(data[off+12:]),
				Off: block.LBA(binary.LittleEndian.Uint64(data[off+16:])),
			},
		}
		off += entrySize
		if e.sectors == 0 || (i > 0 && e.start < prevEnd) {
			return fmt.Errorf("extmap: corrupt serialization at entry %d", i)
		}
		prevEnd = e.end()
		flat = append(flat, e)
		m.count++
		m.mapped += uint64(e.sectors)
	}
	m.chunks = rechunk(flat)
	return nil
}

// checkInvariants verifies global ordering, non-overlap, chunk shape
// and cached counters; used by tests.
func (m *Map) checkInvariants() error {
	count, mapped := 0, uint64(0)
	var prev *entry
	for ci, ch := range m.chunks {
		if len(ch) == 0 {
			return fmt.Errorf("chunk %d empty", ci)
		}
		if len(ch) > chunkMax {
			return fmt.Errorf("chunk %d oversize: %d", ci, len(ch))
		}
		for ei := range ch {
			e := &ch[ei]
			if e.sectors == 0 {
				return fmt.Errorf("zero-length extent at %d/%d", ci, ei)
			}
			if prev != nil && prev.end() > e.start {
				return fmt.Errorf("overlap: %v then %v", prev.ext(), e.ext())
			}
			count++
			mapped += uint64(e.sectors)
			prev = e
		}
	}
	if count != m.count || mapped != m.mapped {
		return fmt.Errorf("counters stale: have %d/%d want %d/%d", m.count, m.mapped, count, mapped)
	}
	return nil
}
