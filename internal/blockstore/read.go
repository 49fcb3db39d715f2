package blockstore

import (
	"fmt"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/journal"
)

// Lookup returns the block store's coverage of ext: present runs carry
// (object, sector-offset) targets, absent runs are uninitialized disk
// ranges that read as zeros (§3.2).
func (s *Store) Lookup(ext block.Extent) []extmap.Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Lookup(ext)
}

// LookupInto is Lookup appending into a caller-owned buffer, so hot
// read paths can look up many extents with one allocation.
func (s *Store) LookupInto(dst []extmap.Run, ext block.Extent) []extmap.Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.LookupAppend(dst, ext)
}

// Prefetched is extra data retrieved alongside a read miss, destined
// for the read cache. Data aliases the fetched window and is read-only.
type Prefetched struct {
	Ext  block.Extent
	Data []byte
}

// hdrFlight is an in-progress header fetch shared by concurrent misses.
type hdrFlight struct {
	done chan struct{}
	h    *hdrEntry
	err  error
}

// header returns the cached or fetched extent header of an object. On a
// cache miss the backend fetch happens WITHOUT s.mu held, guarded by a
// per-seq in-flight entry so concurrent misses share one fetch and map
// lookups never stall behind a header GET (previously headerL fetched
// under the store lock, serializing every lookup behind the backend).
func (s *Store) header(seq uint32) (*hdrEntry, error) {
	s.mu.RLock()
	h, ok := s.hdrCache[seq]
	name := s.name(seq)
	s.mu.RUnlock()
	if ok {
		return h, nil
	}
	s.hdrMu.Lock()
	if f, ok := s.hdrFlights[seq]; ok {
		s.hdrMu.Unlock()
		<-f.done
		return f.h, f.err
	}
	f := &hdrFlight{done: make(chan struct{})}
	s.hdrFlights[seq] = f
	s.hdrMu.Unlock()

	s.fetchStats.headerFetches.Add(1)
	f.h, f.err = fetchHeader(s, name)
	if f.err == nil {
		s.mu.Lock()
		// The object may have been deleted while we fetched; caching
		// its header is harmless (pruned like any other entry).
		s.hdrCache[seq] = f.h
		s.pruneHdrCache()
		s.mu.Unlock()
	}
	s.hdrMu.Lock()
	delete(s.hdrFlights, seq)
	s.hdrMu.Unlock()
	close(f.done)
	return f.h, f.err
}

// headerGCLocked returns seq's header for a GC pass holding s.mu,
// dropping the lock for the backend fetch on a cache miss. Callers must
// revalidate any map/object state captured before the call (the gcBusy
// claim keeps passes single-flight, but seals and commits proceed while
// the lock is down).
//
//lsvd:requires bs.mu
func (s *Store) headerGCLocked(seq uint32) (*hdrEntry, error) {
	if h, ok := s.hdrCache[seq]; ok {
		return h, nil
	}
	s.mu.Unlock()
	h, err := s.header(seq)
	s.mu.Lock()
	return h, err
}

func fetchHeader(s *Store, name string) (*hdrEntry, error) {
	probe, err := s.cfg.Store.GetRange(s.ctx, name, 0, block.BlockSize)
	if err != nil {
		return nil, err
	}
	need := journal.HeaderSize(int(headerExtentCount(probe)))
	buf := probe
	if need > len(probe) {
		if buf, err = s.cfg.Store.GetRange(s.ctx, name, 0, int64(need)); err != nil {
			return nil, err
		}
	}
	hdr, _, err := journal.DecodeHeader(buf)
	if err != nil {
		return nil, fmt.Errorf("blockstore: header of %s unreadable: %w", name, err)
	}
	return &hdrEntry{extents: hdr.Extents, hdrSectors: uint32(journal.HeaderSize(len(hdr.Extents)) / block.SectorSize)}, nil
}

// headerExtentCount peeks the extent count field of an encoded header.
func headerExtentCount(buf []byte) uint32 {
	if len(buf) < 44 {
		return 0
	}
	return uint32(buf[40]) | uint32(buf[41])<<8 | uint32(buf[42])<<16 | uint32(buf[43])<<24
}
