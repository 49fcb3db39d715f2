package blockstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// Open recovers a volume: superblock → latest checkpoint → replay of
// the consecutive object suffix, which ends at the first gap, torn
// object or object of an older epoch than the one before it (§3.3;
// DESIGN.md §11.3, the epoch rule). Metadata for the whole suffix is
// prefetched by a bounded pool (openFanout), so open time is
// O(suffix / openFanout) backend round-trips; the APPLY of the decoded
// headers stays strictly sequential, so the crash-gap semantics are
// byte-for-byte those of a serial replay.
func Open(ctx context.Context, cfg Config) (*Store, error) {
	return open(ctx, cfg, 0, false)
}

// OpenHeadReadOnly mounts the volume read-only at its newest
// consistent prefix without taking write ownership. This is the
// restore-from-replica inspection mount (§4.8): a replica is a
// crash-consistent prefix of the primary, and a torn tail object (a
// shipper killed mid-copy) truncates recovery exactly like a crashed
// primary's own torn tail.
func OpenHeadReadOnly(ctx context.Context, cfg Config) (*Store, error) {
	return open(ctx, cfg, 0, true)
}

// OpenSnapshot mounts the named snapshot read-only.
func OpenSnapshot(ctx context.Context, cfg Config, name string) (*Store, error) {
	cfg.setDefaults()
	raw, err := cfg.Store.Get(ctx, superName(cfg.Volume))
	if err != nil {
		return nil, fmt.Errorf("blockstore: volume %q: %w", cfg.Volume, err)
	}
	sb, err := decodeSuper(raw)
	if err != nil {
		return nil, err
	}
	for _, sn := range sb.snapshots {
		if sn.Name == name {
			return open(ctx, cfg, sn.Seq, true)
		}
	}
	return nil, fmt.Errorf("blockstore: snapshot %q not found", name)
}

// openFanout bounds the concurrent backend reads recovery issues while
// prefetching the replay suffix's headers and sizes, and the concurrent
// deletes of stranded objects.
const openFanout = 8

func open(ctx context.Context, cfg Config, limit uint32, readOnly bool) (*Store, error) {
	start := time.Now()
	cfg.setDefaults()
	s := newStore(ctx, cfg)
	s.readOnly = readOnly
	var gets atomic.Uint64 // backend read ops (Get/GetRange/Size/List)

	gets.Add(1)
	raw, err := cfg.Store.Get(ctx, superName(cfg.Volume))
	if err != nil {
		return nil, fmt.Errorf("blockstore: volume %q: %w", cfg.Volume, err)
	}
	sb, err := decodeSuper(raw)
	if err != nil {
		return nil, err
	}
	s.volSectors = sb.volSectors
	s.baseVol = sb.baseVol
	s.baseSeq = sb.baseSeq
	s.snapshots = slices.Clone(sb.snapshots)

	// s.durable stays the empty super until the suffix is replayed, so
	// the release rule releases nothing during replay: a suffix
	// checkpoint reloads the whole table.
	//
	// Find the newest checkpoint at or before the limit, walking the
	// prev-pointer chain for snapshot mounts. Each hop must strictly
	// decrease the sequence number: a self-referencing or cyclic chain
	// in a corrupt checkpoint must surface as an error, not a loop.
	ckptSeq := sb.lastCkpt
	var epoch uint32 // the loaded checkpoint's
	for {
		gets.Add(1)
		payload, size, e, err := s.readCheckpointObject(ckptSeq)
		if err != nil {
			return nil, err
		}
		if limit == 0 || ckptSeq <= limit {
			s.mu.Lock()
			err := s.loadCheckpointLocked(ckptSeq, payload, size)
			s.mu.Unlock()
			if err != nil {
				return nil, err
			}
			epoch = e
			break
		}
		if payload.prevCkpt == 0 || payload.prevCkpt >= ckptSeq {
			return nil, fmt.Errorf("blockstore: no checkpoint at or before seq %d", limit)
		}
		ckptSeq = payload.prevCkpt
	}
	// The checkpointed map may reference an object deleted since the
	// checkpoint was taken: it died after the snapshot, below the named
	// checkpoint. Objects commit in sequence order, so every object that
	// displaced it lies in the suffix replayed below, whose installs
	// clear every reference to it before anything reads the map.

	// Replay the consecutive suffix after the checkpoint: one List,
	// then the headers and sizes of every suffix object prefetched
	// concurrently. A writable open prefetches the stranded objects
	// beyond the first gap as well: their epochs bound its own.
	gets.Add(1)
	names, err := cfg.Store.List(ctx, cfg.Volume+".")
	if err != nil {
		return nil, err
	}
	listed := sortedSeqs(cfg.Volume, names)
	present := make(map[uint32]bool, len(listed))
	for _, seq := range listed {
		present[seq] = true
	}
	var fetch []uint32
	for seq := ckptSeq + 1; present[seq] && (limit == 0 || seq <= limit); seq++ {
		fetch = append(fetch, seq)
	}
	suffix := len(fetch)
	if !readOnly {
		for _, seq := range listed {
			if seq > ckptSeq+uint32(suffix) {
				fetch = append(fetch, seq)
			}
		}
	}
	metas := make([]*objMeta, len(fetch))
	runBounded(openFanout, len(fetch), func(i int) {
		metas[i] = s.fetchObjectMeta(fetch[i], &gets)
	})

	// Apply strictly in sequence order, so a torn object (the crash
	// gap) bounds the consistent prefix exactly as a serial replay
	// would have, and so does the epoch rule: an object of an older
	// epoch than the one before it is a dead session's leftover, never
	// a link.
	next := ckptSeq + 1
	replayed := 0
	for i, seq := range fetch[:suffix] {
		if m := metas[i]; m.h != nil && epochOf(m.h) < epoch {
			break
		}
		if err := s.applyObjectMeta(seq, metas[i], &gets); err != nil {
			if limit == 0 && errors.Is(err, journal.ErrCorrupt) {
				// A truncated or torn object is the crash gap (§3.3):
				// its PUT died mid-transfer. The consistent prefix ends
				// just before it; it is deleted with the stranded set
				// below. Snapshot mounts (limit > 0) replay history
				// that was once committed, so corruption there stays
				// fatal.
				break
			}
			return nil, err
		}
		epoch = epochOf(metas[i].h)
		replayed++
		next++
	}
	s.nextSeq = next
	s.durable = sb

	// This session's epoch tops every epoch the open saw, a writable
	// open's stranded objects' included, so none of them can ever follow
	// an object it writes. A header torn before its epoch can never be
	// replayed; one gone since the LIST cannot either. A read-only mount
	// writes nothing, but a clone starts from the epoch of its snapshot's.
	for _, m := range metas[replayed:] {
		switch {
		case m.h != nil:
			epoch = max(epoch, epochOf(m.h))
		case !readOnly && !errors.Is(m.err, journal.ErrCorrupt) && !errors.Is(m.err, objstore.ErrNotFound):
			return nil, m.err
		}
	}
	s.epoch = epoch + 1

	if !readOnly {
		// Delete the stranded objects beyond the prefix (§3.3) — writes
		// that were in flight when the client died — fanned out like
		// the prefetch. This only reclaims space: a failed delete leaks
		// the object until a later open or this session's own PUT of
		// that name, and fails nothing. Stranded objects were never
		// installed, so the raw backend delete is the whole job.
		var deleted atomic.Uint64
		stranded := slices.DeleteFunc(listed, func(seq uint32) bool { return seq < next })
		runBounded(openFanout, len(stranded), func(i int) {
			if s.cfg.Store.Delete(s.ctx, s.name(stranded[i])) == nil {
				deleted.Add(1)
			}
		})
		s.stats.objectsDeleted += deleted.Load()
		// Re-drive the owed deletes: a row the checkpoint lists as not live
		// whose delete never ran (the crash landed between the release and
		// the delete, mid-reap, or the delete itself kept failing) would
		// otherwise leak the object forever. The checkpoint's rows are dead
		// again (loadCheckpointLocked), beside the deaths replay recorded
		// and one sweep of the table (sweepDeadLocked) — which also catches
		// a death a crash interrupted before any checkpoint listed it — and
		// the release rule claims what it may delete: pinned rows stay
		// held, and so do delete failures, for the next checkpoint to
		// retry, exactly as live-path deletions do.
		//
		// Rule 2 holds here too. A checkpoint loaded from the suffix is
		// owed its superblock, and its list and the sweep may name
		// objects newer than the checkpoint the super still names:
		// deleting one would hole the prefix the next open replays from
		// that older checkpoint. So open PUTs the owed super first; if
		// that fails, s.durable still names the older checkpoint and the
		// release rule holds back what lies above it until the first
		// checkpoint of this session lands.
		if s.lastCkpt != sb.lastCkpt {
			named := s.superNaming(s.lastCkpt)
			super, err := encodeSuper(named)
			if err == nil {
				err = s.cfg.Store.Put(s.ctx, superName(cfg.Volume), super)
			}
			if err == nil {
				s.durable = named
			}
		}
		s.mu.Lock()
		s.sweepDeadLocked()
		// A released row whose object the LIST above did not show was
		// deleted after its checkpoint was taken: retire it without a call.
		for seq, o := range s.objects {
			if o.state >= stateHeld && !present[seq] {
				s.retireObjectLocked(o)
			}
		}
		s.toReap = slices.DeleteFunc(s.toReap, func(seq uint32) bool { return !present[seq] })
		_ = s.reapLocked() // a failed delete must not fail the open
		s.mu.Unlock()
	}
	s.stats.recoveredObjects = replayed
	s.stats.recoveryGETs = gets.Load()
	s.stats.openNanos = time.Since(start).Nanoseconds()
	s.startGCService()
	return s, nil
}

// runBounded runs fn(0) … fn(n-1) on up to fanout goroutines, in
// arbitrary order, and waits for all of them. fanout <= 1 runs inline.
func runBounded(fanout, n int, fn func(i int)) {
	if fanout > n {
		fanout = n
	}
	if fanout <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		invariant.Go("blockstore-open", func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		})
	}
	wg.Wait()
}

// readCheckpointObject reads and decodes checkpoint object seq, and
// returns its backend size and the epoch its header carries.
func (s *Store) readCheckpointObject(seq uint32) (p *checkpointPayload, size int64, epoch uint32, err error) {
	raw, err := s.cfg.Store.Get(s.ctx, s.name(seq))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("blockstore: checkpoint %d: %w", seq, err)
	}
	h, payload, _, err := journal.Decode(raw, false)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("blockstore: checkpoint %d corrupt: %w", seq, err)
	}
	if h.Type != journal.TypeCheckpoint {
		return nil, 0, 0, fmt.Errorf("blockstore: object %d is %v, not a checkpoint", seq, h.Type)
	}
	p, err = decodeCheckpoint(payload)
	return p, int64(len(raw)), epochOf(h), err
}

// loadCheckpointLocked replaces the in-memory state with what
// checkpoint object seq (size bytes in the backend) recorded. Its
// payload lists the object table as it stood just before the checkpoint
// object itself joined it (checkpointObjectDurableLocked), so that entry
// is added here. Open calls it, and replays the suffix, under s.mu,
// which nothing else can hold before the store is published.
//
//lsvd:requires bs.mu
func (s *Store) loadCheckpointLocked(seq uint32, p *checkpointPayload, size int64) error {
	s.durableWriteSeq = p.durableWriteSeq
	s.objects = make(map[uint32]*objInfo, len(p.objects)+1)
	for i := range p.objects {
		o := p.objects[i]
		s.objects[o.seq] = &o
	}
	s.objects[seq] = &objInfo{seq: seq, typ: journal.TypeCheckpoint, totalBytes: size}
	// The deferred list's rows go back under the release rule, dead;
	// deaths replayed before this checkpoint are in it. The list is
	// decoded input: a name with no row, or an own row named twice, is
	// taken as it stands, and a clone-base row is never garbage.
	for _, d := range p.deferred {
		if o := s.objects[d.Obj]; o != nil && o.seq > s.baseSeq {
			o.state = stateDead
			o.killedBy = d.GCSeq
		}
	}
	s.count = s.tallyLocked()
	s.indexCkpts()
	if err := s.m.UnmarshalBinary(p.mapBytes); err != nil {
		return fmt.Errorf("blockstore: checkpoint %d map: %w", seq, err)
	}
	s.lastCkpt = seq
	return nil
}

// objMeta is the prefetched metadata replay needs for one suffix
// object: its decoded header and backend size. err carries the fetch
// or decode failure for the apply loop to classify (corruption = the
// crash gap; anything else fails the open).
type objMeta struct {
	h          *journal.Header
	hdrSectors uint32
	size       int64
	err        error
}

// fetchObjectMeta fetches and decodes one object's header — a probe
// GetRange, plus a second ranged GET only when the extent list
// overflows the probe — and its size. This replaces the serial
// replay's three round-trips per object (a header fetch via s.header,
// a DUPLICATE raw GetRange of the same header bytes, then Size) with
// two, issued concurrently across the suffix by the prefetch pool.
func (s *Store) fetchObjectMeta(seq uint32, gets *atomic.Uint64) *objMeta {
	m := &objMeta{}
	name := s.name(seq)
	gets.Add(1)
	probe, err := s.cfg.Store.GetRange(s.ctx, name, 0, block.BlockSize)
	if err != nil {
		m.err = err
		return m
	}
	need := journal.HeaderSize(int(headerExtentCount(probe)))
	buf := probe
	if need > len(probe) {
		gets.Add(1)
		if buf, err = s.cfg.Store.GetRange(s.ctx, name, 0, int64(need)); err != nil {
			m.err = err
			return m
		}
	}
	h, _, err := journal.DecodeHeader(buf)
	if err != nil {
		m.err = fmt.Errorf("blockstore: header of %s unreadable: %w", name, err)
		return m
	}
	m.h = h
	m.hdrSectors = uint32(journal.HeaderSize(len(h.Extents)) / block.SectorSize)
	gets.Add(1)
	m.size, m.err = s.cfg.Store.Size(s.ctx, name)
	return m
}

// applyObjectMeta applies one prefetched object to the recovering
// state: map updates for data and GC objects (GC extents
// conditionally, so stale copies never shadow newer writes),
// checkpoint objects reload wholesale state.
func (s *Store) applyObjectMeta(seq uint32, m *objMeta, gets *atomic.Uint64) error {
	if m.err != nil {
		return m.err
	}
	h := m.h
	// A header that decoded but promises more data than the object
	// holds is a torn PUT — classify it as corruption so open() treats
	// it as the crash gap. Bound the 64-bit length field before
	// converting so a corrupt value cannot wrap the sum negative and
	// slip past the check.
	if h.DataLen > uint64(m.size) {
		return fmt.Errorf("%w: object %d claims %d data bytes but holds %d", journal.ErrCorrupt, seq, h.DataLen, m.size)
	}
	dataLen := int64(h.DataLen)
	if want := int64(m.hdrSectors)*block.SectorSize + dataLen; m.size < want {
		return fmt.Errorf("%w: object %d truncated to %d of %d bytes", journal.ErrCorrupt, seq, m.size, want)
	}

	switch h.Type {
	case journal.TypeCheckpoint:
		// A checkpoint newer than the superblock pointer (its PUT
		// completed but the super update didn't): reload state from it.
		gets.Add(1)
		payload, size, _, err := s.readCheckpointObject(seq)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.loadCheckpointLocked(seq, payload, size)

	case journal.TypeData, journal.TypeGC:
		info := &objInfo{
			seq: seq, typ: h.Type, totalBytes: m.size,
			hdrSectors: m.hdrSectors, writeSeq: h.WriteSeq,
		}
		var mapped []mappedExtent
		var trims []block.Extent
		cursor := block.LBA(m.hdrSectors)
		for _, e := range h.Extents {
			if e.SrcSeq == trimMarker {
				trims = append(trims, block.Extent{LBA: e.LBA, Sectors: e.Sectors})
				continue
			}
			mapped = append(mapped, mappedExtent{
				ext:    block.Extent{LBA: e.LBA, Sectors: e.Sectors},
				srcSeq: e.SrcSeq,
				target: extmap.Target{Obj: seq, Off: cursor},
			})
			cursor += block.LBA(e.Sectors)
			info.dataSectors += e.Sectors
		}
		info.liveSectors = info.dataSectors
		s.mu.Lock()
		defer s.mu.Unlock()
		s.installObject(info, mapped, trims)
		if h.WriteSeq > s.durableWriteSeq {
			s.durableWriteSeq = h.WriteSeq
		}
		return nil

	default:
		return fmt.Errorf("blockstore: object %d has unexpected type %v", seq, h.Type)
	}
}
