package blockstore

import (
	"fmt"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
)

// Read-miss fetch machinery. A span — one or more map runs living close
// together in the same object — is served by a single backend range
// GET over a window aligned to the prefetch quantum. Windows are
// singleflighted: an in-flight or retained fetch of the same
// (object, window) is joined instead of re-issued, so concurrent
// readers missing on the same cold data share one GET (no thundering
// herd), and a reader arriving while the previous miss's cache
// admission is still pending (admission runs off the ack path, see
// core) is served from the retained bytes instead of the backend.
//
// Object data is immutable once written and windows are keyed by the
// object sequence number from a fresh map lookup, so sharing bytes
// across readers can never return a wrong version; map movement (GC)
// only ever makes a window unreferenced, never stale.

// fetchKey identifies one object-range window.
type fetchKey struct {
	obj    uint32
	lo, hi block.LBA // object sector range, half-open
}

// flight is an in-progress or retained window fetch. refs counts the
// Fetch handles not yet released; the entry leaves the table when it
// reaches zero (or immediately on fetch error, so failures are not
// cached).
type flight struct {
	key  fetchKey
	done chan struct{}
	raw  []byte
	err  error
	refs int
}

// Fetch is a handle on a fetched object window. Raw holds the window's
// bytes starting at object sector Lo; the handle keeps the window
// joinable by concurrent readers until Release.
type Fetch struct {
	Obj    uint32
	Lo     block.LBA // object sector offset of Raw[0]
	Raw    []byte
	Shared bool // joined another reader's in-flight or retained fetch
	s      *Store
	f      *flight
}

// Release drops the caller's reference. The caller that keeps the
// window alive across an asynchronous cache admission releases it when
// the admission completes; until then other readers join it for free.
func (f *Fetch) Release() {
	if f.f == nil {
		return
	}
	f.s.fetchMu.Lock()
	f.f.refs--
	if f.f.refs < 0 {
		invariant.Failf("blockstore: fetch window %d@[%d,%d) released more times than acquired",
			f.f.key.obj, f.f.key.lo, f.f.key.hi)
	}
	if f.f.refs <= 0 {
		delete(f.s.flights, f.f.key)
	}
	f.s.fetchMu.Unlock()
	f.f = nil
}

// Slice returns the window's bytes for one of the span's runs. The
// returned slice aliases Raw and is valid for the life of the handle.
func (f *Fetch) Slice(run extmap.Run) ([]byte, error) {
	off := (run.Target.Off - f.Lo).Bytes()
	if run.Target.Obj != f.Obj || off < 0 || off+run.Bytes() > int64(len(f.Raw)) {
		return nil, fmt.Errorf("blockstore: run %v (%v) outside fetched window %d@[%d,+%d)", run.Extent, run.Target, f.Obj, f.Lo, len(f.Raw))
	}
	return f.Raw[off : off+run.Bytes()], nil
}

// FetchSpan fetches, with a single range GET, a window of one object
// covering every run in the span. All runs must be present and target
// the same object; the caller groups and orders them (the core
// coalesces adjacent misses into spans). windowSectors > 0 aligns the
// window outward to multiples of that quantum counted from the start of
// the object's data region, not of the object: the header is padded
// only to a sector, so object-relative multiples would cut every window
// into sub-block slivers. A window is thus whole quanta of the data
// region (the last one clamped to its end); identical misses collapse
// onto identical keys, and the slack is the temporal prefetch the
// object layout gives for free. ahead aligns only the window's end: it
// starts at the span, so a stream's next window reaches forward from
// where its last one ended and fetches none of that again. The GET
// itself is bounded by the shared fetch semaphore (Config.FetchSem)
// and deduplicated against other in-flight windows.
func (s *Store) FetchSpan(runs []extmap.Run, windowSectors uint32, ahead bool) (*Fetch, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("blockstore: FetchSpan of empty span")
	}
	obj := runs[0].Target.Obj
	lo, hi := runs[0].Target.Off, runs[0].Target.Off
	for _, r := range runs {
		if !r.Present || r.Target.Obj != obj {
			return nil, fmt.Errorf("blockstore: span mixes objects or absent runs (%v)", r.Extent)
		}
		if r.Target.Off < lo {
			lo = r.Target.Off
		}
		if end := r.Target.Off + block.LBA(r.Sectors); end > hi {
			hi = end
		}
	}
	s.mu.RLock()
	o := s.objects[obj]
	name := s.name(obj)
	s.mu.RUnlock()
	if q := block.LBA(windowSectors); q > 0 && o != nil {
		dataStart := block.LBA(o.hdrSectors)
		dataEnd := dataStart + block.LBA(o.dataSectors)
		if lo >= dataStart {
			if !ahead {
				lo = dataStart + (lo-dataStart)/q*q
			}
			hi = min(dataStart+(hi-dataStart+q-1)/q*q, dataEnd)
		}
	}
	if len(runs) > 1 {
		s.fetchStats.coalesced.Add(uint64(len(runs) - 1))
	}
	key := fetchKey{obj: obj, lo: lo, hi: hi}

	s.fetchMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.refs++
		s.fetchMu.Unlock()
		<-f.done
		if f.err != nil {
			// Errored flights were already removed from the table by
			// the leader; there is nothing to release.
			return nil, f.err
		}
		s.fetchStats.deduped.Add(1)
		return &Fetch{Obj: obj, Lo: lo, Raw: f.raw, Shared: true, s: s, f: f}, nil
	}
	f := &flight{key: key, done: make(chan struct{}), refs: 1}
	s.flights[key] = f
	s.fetchMu.Unlock()

	sem := s.cfg.FetchSem
	if sem != nil {
		sem <- struct{}{}
	}
	s.fetchStats.gets.Add(1)
	raw, err := s.cfg.Store.GetRange(s.ctx, name, lo.Bytes(), (hi - lo).Bytes())
	if sem != nil {
		<-sem
	}
	if err == nil && int64(len(raw)) < (hi-lo).Bytes() {
		err = fmt.Errorf("blockstore: short object read: %d of %d bytes", len(raw), (hi - lo).Bytes())
	}
	f.raw, f.err = raw, err
	if err != nil {
		s.fetchMu.Lock()
		delete(s.flights, key)
		s.fetchMu.Unlock()
		close(f.done)
		return nil, err
	}
	close(f.done)
	return &Fetch{Obj: obj, Lo: lo, Raw: raw, s: s, f: f}, nil
}

// WindowExtras maps the parts of a fetched window not covered by skip
// back to virtual-disk extents via the object header (§3.2 temporal
// prefetch), keeping only portions the map still assigns to this
// object. Best-effort: a header fetch failure returns nil. The header
// decode and fetch happen off the store lock; only the map
// verification walk takes the read lock.
//
// held is the caller's write-cache lookup and is required: the runs it
// reports present are left out. It is asked about every candidate
// before the map walk starts, and the order matters. The map moves to
// a write's object only when that object commits, and until then the
// block's previous version in this window still looks live; but a
// write's record leaves the write cache only after that commit, so an
// acknowledged write cannot be both absent from the earlier snapshot
// and unmapped in the later walk.
//
// Each extra's Data aliases f.Raw instead of copying it: the core's
// admit task holds the window until Release, and Raw is never recycled
// after it, so the bytes stay valid; they must not be modified.
func (s *Store) WindowExtras(f *Fetch, skip []block.Extent, held func(block.Extent) []extmap.Run) []Prefetched {
	hdr, err := s.header(f.Obj)
	if err != nil {
		return nil
	}
	lo := f.Lo
	hi := lo + block.LBA(len(f.Raw)>>block.SectorShift)
	var cand []block.Extent
	cursor := block.LBA(hdr.hdrSectors)
	for _, e := range hdr.extents {
		if e.SrcSeq == trimMarker {
			continue
		}
		extOff := cursor
		cursor += block.LBA(e.Sectors)
		// Portion of this extent inside the fetched window.
		wLo := max(extOff, lo)
		wHi := min(cursor, hi)
		if wLo >= wHi {
			continue
		}
		vext := block.Extent{LBA: e.LBA + (wLo - extOff), Sectors: uint32(wHi - wLo)}
		if coveredBy(vext, skip) {
			continue
		}
		for _, r := range held(vext) {
			if !r.Present {
				cand = append(cand, r.Extent)
			}
		}
	}
	var extras []Prefetched
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, vext := range cand {
		for _, live := range s.m.Lookup(vext) {
			if !live.Present || live.Target.Obj != f.Obj {
				continue
			}
			off := (live.Target.Off - lo).Bytes()
			if off < 0 || off+live.Bytes() > int64(len(f.Raw)) {
				continue
			}
			extras = append(extras, Prefetched{Ext: live.Extent, Data: f.Raw[off : off+live.Bytes()]})
		}
	}
	return extras
}

// coveredBy reports whether ext lies fully inside one of the skip
// extents (the demand runs the caller already handled).
func coveredBy(ext block.Extent, skip []block.Extent) bool {
	for _, sk := range skip {
		if ext.LBA >= sk.LBA && ext.End() <= sk.End() {
			return true
		}
	}
	return false
}
