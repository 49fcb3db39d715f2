package blockstore

import (
	"fmt"
	"sort"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
)

// segments is the source of an object's data: buffers laid end to end
// at virtual offsets, each with the CRC32C (journal.Sum) its owner took
// when it handed the bytes over — the client's ack path for a write, the
// GC for a piece it fetched. Objects are gathered from it as views, and
// checksummed from the sums: only a piece that is less than its whole
// buffer is read again.
type segments struct {
	bufs [][]byte
	offs []int64 // virtual offset of each buffer
	sums []uint32
	fill int64
}

func (p *segments) push(data []byte, sum uint32) (off int64) {
	off = p.fill
	p.bufs = append(p.bufs, data)
	p.offs = append(p.offs, off)
	p.sums = append(p.sums, sum)
	p.fill += int64(len(data))
	return off
}

// gather appends zero-copy views of the n bytes at virtual offset off
// to vec, and extends sum — the CRC32C of everything gathered so far —
// over them. The views alias the retained buffers, which flow to the
// store uncopied; the ownership handoff documented on Append is what
// makes that safe. Extent targets never span buffers (coalescing splits
// runs but a run's bytes always come from one write), yet the loop
// handles crossings anyway — correctness should not hang on that
// reasoning.
func (p *segments) gather(vec [][]byte, sum uint32, off, n int64) ([][]byte, uint32) {
	i := sort.Search(len(p.offs), func(i int) bool { return p.offs[i] > off }) - 1
	for n > 0 {
		piece := p.bufs[i][off-p.offs[i]:]
		if int64(len(piece)) > n {
			piece = piece[:n]
		}
		pieceSum := p.sums[i]
		if len(piece) != len(p.bufs[i]) {
			pieceSum = journal.Sum(piece) // what coalescing left of a write
		}
		sum = journal.Combine(sum, pieceSum, uint64(len(piece)))
		vec = append(vec, piece)
		off += int64(len(piece))
		n -= int64(len(piece))
		i++
	}
	return vec, sum
}

// batch accumulates client writes until sealed into an object. Writes
// within a batch may be coalesced — overwritten bytes never reach the
// backend — which is safe because the object is stored atomically
// (§3.1: "Writes may thus be coalesced within a single batch, although
// not across batches").
//
// The batch holds REFERENCES to the payloads it is given, in arrival
// order; nothing is copied until the object image is gathered at build
// time. Append's callers therefore hand over ownership of the data.
type batch struct {
	segments
	m          *extmap.Map // vLBA -> virtual offset (sectors), coalescing index
	noCoalesce bool
	raw        []journal.ExtentEntry // no-coalesce mode: extents in arrival order
	rawOffs    []int64
	trims      []block.Extent
	maxWrite   uint64 // newest client writeSeq in the batch
	coalesced  uint64 // bytes displaced by intra-batch overwrites
	writes     int
}

func newBatch(noCoalesce bool) *batch {
	return &batch{m: extmap.New(), noCoalesce: noCoalesce}
}

func (b *batch) empty() bool { return b.writes == 0 && len(b.trims) == 0 }

func (b *batch) add(writeSeq uint64, ext block.Extent, data []byte, sum uint32) {
	off := b.push(data, sum)
	if b.noCoalesce {
		b.raw = append(b.raw, journal.ExtentEntry{LBA: ext.LBA, Sectors: ext.Sectors})
		b.rawOffs = append(b.rawOffs, off)
	} else {
		displaced := b.m.Update(ext, extmap.Target{Off: block.LBAFromBytes(off)})
		for _, r := range displaced {
			b.coalesced += uint64(r.Bytes())
		}
	}
	if writeSeq > b.maxWrite {
		b.maxWrite = writeSeq
	}
	b.writes++
}

func (b *batch) addTrim(writeSeq uint64, ext block.Extent) {
	b.trims = append(b.trims, ext)
	if !b.noCoalesce {
		displaced := b.m.Delete(ext)
		for _, r := range displaced {
			b.coalesced += uint64(r.Bytes())
		}
	}
	if writeSeq > b.maxWrite {
		b.maxWrite = writeSeq
	}
}

// Append buffers one client write; the batch is sealed into a backend
// object when it reaches the configured size (§3.2). The store takes
// ownership of data — it keeps a reference until the object holding it
// commits — so the caller must not modify the buffer after Append.
func (s *Store) Append(writeSeq uint64, ext block.Extent, data []byte) error {
	return s.AppendSum(writeSeq, ext, data, journal.Sum(data))
}

// AppendSum is Append for a caller that has already checksummed the
// write: sum is journal.Sum(data) as it was when the write was
// acknowledged, and the object's CRC is built from it without reading
// data again. A buffer that changes between here and the PUT therefore
// yields an object that fails journal.Decode, not one that vouches for
// the damage.
func (s *Store) AppendSum(writeSeq uint64, ext block.Extent, data []byte, sum uint32) error {
	if int64(len(data)) != ext.Bytes() {
		return fmt.Errorf("blockstore: extent %v does not match %d data bytes", ext, len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	s.batch.add(writeSeq, ext, data, sum)
	s.stats.bytesAppended += uint64(len(data))
	if s.batch.fill >= s.cfg.BatchBytes {
		return s.sealAsyncLocked()
	}
	return nil
}

// Trim buffers a discard.
func (s *Store) Trim(writeSeq uint64, ext block.Extent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	s.batch.addTrim(writeSeq, ext)
	return nil
}

// Seal forces the current batch out as an object (used on commit
// pressure and at shutdown). It is the pipeline fence: it returns only
// once every in-flight object has committed, so DurableWriteSeq covers
// everything appended so far. Failed uploads get a fresh attempt budget.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	s.rearmFailedLocked()
	if err := s.sealAsyncLocked(); err != nil {
		return err
	}
	return s.waitInflightLocked()
}

// kickFillShare is the part of BatchBytes (one in kickFillShare) the
// open batch must hold for a ring-full kick to seal it while a data
// object is still in flight: below it the kick pays a full PUT round
// trip — a pipeline slot for as long as a whole object would take it —
// for under half the bytes.
const kickFillShare = 2

// SealAsync is the ring-full "kick": core calls it when the cache log is
// full, so that the records pinning the log's head reach the backend
// without draining the pipeline. It never fences — the commit lands in
// the background, advancing DurableWriteSeq (and firing OnDestage) —
// and it seals only a batch worth a PUT or one nothing else will move:
// while a data object is in flight the head is pinned by that object,
// whose commit frees space by itself, so a batch under 1/kickFillShare
// full keeps filling and the caller waits for the watermark. With
// nothing in flight the batch is sealed at any fill.
func (s *Store) SealAsync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	if s.batch.fill*kickFillShare < s.cfg.BatchBytes && s.dataInflightLocked() {
		return nil
	}
	return s.sealAsyncLocked()
}

// dataInflightLocked reports whether a sealed data object awaits its
// commit (checkpoint markers and GC entries carry no client writes).
//
//lsvd:requires bs.mu
func (s *Store) dataInflightLocked() bool {
	for _, inf := range s.inflight {
		if inf.typ == journal.TypeData {
			return true
		}
	}
	return false
}

// batchExtents flattens a batch's extent state for object building:
// trim markers first, then data extents (arrival order in no-coalesce
// mode, map order otherwise) paired with their virtual batch offsets.
func batchExtents(b *batch, seq uint32) (exts []journal.ExtentEntry, offs []int64) {
	for _, t := range b.trims {
		exts = append(exts, journal.ExtentEntry{LBA: t.LBA, Sectors: t.Sectors, SrcSeq: trimMarker})
	}
	if b.noCoalesce {
		for i, e := range b.raw {
			e.SrcSeq = uint64(seq)
			exts = append(exts, e)
			offs = append(offs, b.rawOffs[i])
		}
	} else {
		b.m.Foreach(func(ext block.Extent, t extmap.Target) bool {
			exts = append(exts, journal.ExtentEntry{LBA: ext.LBA, Sectors: ext.Sectors, SrcSeq: uint64(seq)})
			offs = append(offs, t.Off.Bytes())
			return true
		})
	}
	return exts, offs
}

type mappedExtent struct {
	ext    block.Extent
	srcSeq uint64
	target extmap.Target
}

// buildObject assembles an object image as a VECTOR: the encoded
// header (padded to a sector boundary so data offsets are
// sector-addressable) followed by zero-copy views of each non-trim
// extent's bytes, gathered from src at the offsets in offs. No
// contiguous image is materialized and no payload byte is read that
// its owner already checksummed — the header's CRC is combined from the
// segments' sums (segments.gather, journal.EncodeHeaderSum) and the store
// receives the vector (objstore.PutVec), so payload bytes are neither
// copied nor passed over between the write-path staging buffers and the
// backend. It returns the vector, the object's table entry, and the
// data extents paired with their in-object sector offsets for map
// installation. epoch is the writing session's (headerSeq). It reads no
// Store state and is safe to call without s.mu.
func buildObject(seq, epoch uint32, typ journal.Type, writeSeq uint64, exts []journal.ExtentEntry, offs []int64, src *segments) ([][]byte, *objInfo, []mappedExtent) {
	hdrBytes := journal.HeaderSize(len(exts))
	hdrSectors := uint32(hdrBytes / block.SectorSize)

	vec := make([][]byte, 1, 1+len(offs))
	var mapped []mappedExtent
	var sum uint32 // CRC32C of the data gathered so far
	cursor := int64(0)
	di := 0 // index into offs (non-trim extents only)
	for _, e := range exts {
		if e.SrcSeq == trimMarker {
			continue
		}
		n := int64(e.Sectors) << block.SectorShift
		vec, sum = src.gather(vec, sum, offs[di], n)
		mapped = append(mapped, mappedExtent{
			ext:    block.Extent{LBA: e.LBA, Sectors: e.Sectors},
			srcSeq: e.SrcSeq,
			target: extmap.Target{Obj: seq, Off: block.LBA(hdrSectors) + block.LBAFromBytes(cursor)},
		})
		cursor += n
		di++
	}

	h := &journal.Header{Type: typ, Seq: headerSeq(epoch, seq), WriteSeq: writeSeq, Extents: exts, DataLen: uint64(cursor)}
	vec[0] = journal.EncodeHeaderSum(h, sum)

	info := &objInfo{
		seq: seq, typ: typ, totalBytes: int64(hdrBytes) + cursor,
		hdrSectors: hdrSectors, dataSectors: uint32(cursor >> block.SectorShift),
		liveSectors: uint32(cursor >> block.SectorShift), writeSeq: writeSeq,
	}
	return vec, info, mapped
}

// installObject applies a sealed object's effects to the map and the
// object table. trims lists trim extents to apply first. Fresh data
// extents (srcSeq == own seq) use unconditional updates; GC-copied
// extents install only where the map still points at their exact source
// object; GC zero-fill plugs (srcSeq == 0) fill still-unmapped holes
// only. Both conditional forms hold for crash replay as well as the
// live path, so a GC object can never clobber newer data.
//
//lsvd:requires bs.mu
func (s *Store) installObject(info *objInfo, mapped []mappedExtent, trims []block.Extent) {
	if s.objects[info.seq] != nil {
		invariant.Failf("blockstore: object %d installed twice", info.seq)
	}
	// Register the object (and its utilization contribution) before
	// any map update: in no-coalesce mode an object's own extents
	// overlap, so displacement accounting must already see it.
	s.objects[info.seq] = info
	s.count.rows[stateLive]++
	// This is the commit point for data and GC objects — the one place
	// the object becomes visible to readers and recovery — so it is
	// also where the replication feed learns about it (ship.go rule 1).
	s.shipPublishLocked(info.seq, info.typ, info.totalBytes)
	if s.counted(info) {
		s.count.live += uint64(info.liveSectors)
		s.count.data += uint64(info.dataSectors)
	}
	for _, t := range trims {
		s.applyDisplaced(s.m.Delete(t), info.seq)
	}
	for _, me := range mapped {
		var displaced []extmap.Run
		if me.srcSeq == uint64(info.seq) {
			displaced = s.m.Update(me.ext, me.target)
		} else if me.srcSeq == 0 {
			// Zero-fill plug: zeros read as zeros whether mapped or not,
			// so filling holes is a pure no-op semantically — but any
			// range that IS mapped (a write that landed during the GC's
			// lock drops, or, on replay, a lower-seq data object that
			// committed after the pass sampled the map) holds newer data
			// and must win. Portions that stayed holes count as live;
			// the rest of the extent is dead at birth.
			var filled uint32
			for _, r := range s.m.Lookup(me.ext) {
				if !r.Present {
					filled += r.Sectors
				}
			}
			s.applyDisplaced(s.m.UpdateIf(me.ext, me.target, func(extmap.Run) bool { return false }), info.seq)
			if gap := me.ext.Sectors - filled; gap > 0 && info.liveSectors >= gap {
				info.liveSectors -= gap
				if s.counted(info) {
					s.count.live -= uint64(gap)
				}
			}
			continue
		} else {
			// Install only where the map still points at the exact object
			// this range was copied from. A <= comparison is NOT
			// equivalent: once GC objects exist, container sequence no
			// longer orders data by freshness — a GC object's copy of old
			// data carries a seq above that of later data objects, so
			// "current target below my source" can hold while the current
			// target is the newer write (collect a GC victim whose hole
			// was plugged, replay, and the stale plug would resurrect
			// over the newer object's data).
			src := me.srcSeq
			displaced = s.m.UpdateExisting(me.ext, me.target, func(r extmap.Run) bool {
				return uint64(r.Target.Obj) == src
			})
			// Conditional updates may install less than the full
			// extent; adjust live accounting to what actually mapped.
			var installed uint32
			for _, d := range displaced {
				installed += d.Sectors
			}
			if gap := me.ext.Sectors - installed; gap > 0 && info.liveSectors >= gap {
				info.liveSectors -= gap
				if s.counted(info) {
					s.count.live -= uint64(gap)
				}
			}
		}
		s.applyDisplaced(displaced, info.seq)
	}
	if s.counted(info) && info.liveSectors == 0 {
		s.diedLocked(info, info.seq) // trims only, or GC copies a newer write beat
	}
	s.hdrCache[info.seq] = &hdrEntry{extents: extentEntries(mapped, trims, info), hdrSectors: info.hdrSectors}
	s.pruneHdrCache()
}

func extentEntries(mapped []mappedExtent, trims []block.Extent, info *objInfo) []journal.ExtentEntry {
	out := make([]journal.ExtentEntry, 0, len(mapped)+len(trims))
	for _, t := range trims {
		out = append(out, journal.ExtentEntry{LBA: t.LBA, Sectors: t.Sectors, SrcSeq: trimMarker})
	}
	for _, me := range mapped {
		out = append(out, journal.ExtentEntry{LBA: me.ext.LBA, Sectors: me.ext.Sectors, SrcSeq: me.srcSeq})
	}
	return out
}

const hdrCacheMax = 256

func (s *Store) pruneHdrCache() {
	if len(s.hdrCache) <= hdrCacheMax {
		return
	}
	// Simple pressure valve: drop arbitrary entries down to half.
	for seq := range s.hdrCache {
		delete(s.hdrCache, seq)
		if len(s.hdrCache) <= hdrCacheMax/2 {
			break
		}
	}
}
