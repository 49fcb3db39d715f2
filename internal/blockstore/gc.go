package blockstore

import (
	"errors"
	"sort"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// Garbage collection (§3.5) has two drivers sharing one pass engine:
//
//   - RunGC is the forced pass: it collects unpaced until the
//     high-water mark — the discrete step tools, tests and the Table 5
//     simulations call at the moment they choose.
//   - The background service is the one automatic trigger: a per-store
//     goroutine, started on every writable store with GCLowWater > 0,
//     that wakes when utilization drops below the low-water mark and
//     collects PACED: each copy batch first draws its bytes from a
//     write-amplification token bucket refilled by foreground commits
//     (gcRefillLocked), so sustained GC can never push total backend
//     write volume past GCWAFTarget × foreground volume. An
//     idle trickle (gcIdleWait/one batch) keeps quiet volumes
//     converging. The service's backend I/O goes through the upload
//     gate as a background participant with no guaranteed share, and
//     a paced pass yields the gcBusy slot whenever a fence is waiting,
//     so foreground seals, checkpoints and Close never stall behind a
//     budget wait.
//
// Victims are picked by a cost model, score = garbage ratio × age:
// segment age is the classic LFS cost-benefit proxy for "this
// object's remaining live data is cold and worth moving once", which
// beats pure least-utilized ordering under sustained overwrite churn
// (hot objects keep losing data — collecting them early re-copies
// bytes that were about to die anyway).

// errGCAborted abandons a GC pass mid-collection when Abort lands
// during one of the lock drops below; the victim is left uncleaned (its
// live data was not fully relocated) and the error never escapes the
// pass drivers.
var errGCAborted = errors.New("blockstore: gc pass aborted")

// errGCYield cuts a paced pass short because a fence (seal, checkpoint,
// RunGC, Abort) is waiting on the gcBusy slot. Partially relocated
// victims stay uncleaned and are re-collected next wake-up.
var errGCYield = errors.New("blockstore: gc pass yielded to a fence")

// gcIdleWait is how long the paced service waits for a foreground
// refill before granting itself one batch of copy budget, so a volume
// with no write traffic still converges to the watermark.
const gcIdleWait = 5 * time.Millisecond

// RunGC forces an immediate, unpaced collection pass until overall
// utilization reaches the high-water mark or no further progress is
// possible (§3.5). It preempts the background service's paced pass
// (which yields its slot to fences) and runs inline, and returns once
// the GC objects it wrote have committed. Backend I/O inside a pass
// (header fetches, source-data reads) drops s.mu, so the gcBusy claim
// — shared with the background service — is what keeps passes
// single-flight; fences and Abort wait for it via commitCond. Like
// Seal, it gives failed uploads a fresh attempt budget, but not a
// failed superblock: it waits for no superblock.
func (s *Store) RunGC() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	s.fenceEnterLocked()
	for s.gcBusy {
		s.commitCond.Wait()
	}
	s.fenceExitLocked()
	if s.aborting {
		return nil
	}
	s.resubmitFailedLocked(true)
	s.gcBusy = true
	err := s.gcPassLocked(false)
	s.gcBusy = false
	s.commitCond.Broadcast()
	if errors.Is(err, errGCYield) || errors.Is(err, errGCAborted) {
		err = nil
	}
	return err
}

// --- background service ---

// startGCService launches the paced background collector on a writable
// store with a low-water mark. Create/open call it last, once the store
// is fully recovered.
func (s *Store) startGCService() {
	if s.readOnly || s.cfg.GCLowWater <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gcDone != nil {
		return
	}
	s.gcDone = make(chan struct{})
	invariant.Go("blockstore-gc", s.gcService)
}

// StopGC stops the background service and waits for it to exit. The
// store remains usable; RunGC and (re)Open-time collection still work.
// Stopping an already-stopped (or never-started) service is a no-op.
func (s *Store) StopGC() {
	s.mu.Lock()
	done := s.gcDone
	if done == nil {
		s.mu.Unlock()
		return
	}
	s.gcStop = true
	s.gcCond.Broadcast()
	s.mu.Unlock()
	<-done
	s.mu.Lock()
	s.gcDone = nil
	s.gcStop = false
	s.mu.Unlock()
}

// fenceEnterLocked/fenceExitLocked bracket a fence's wait for the
// gcBusy slot (seal, checkpoint, RunGC). Entry wakes a paced pass so
// it yields the slot instead of sitting in a budget wait; exit wakes
// the service back up once the last fence is through — without it, a
// yield with no follow-on traffic would strand the service asleep
// below the watermark. While any fence is pending the service loop
// stays parked, so a yielded pass cannot spin-reclaim the slot and
// starve the fence of s.mu.
//
//lsvd:requires bs.mu
func (s *Store) fenceEnterLocked() {
	s.fenceWaiters++
	s.gcCond.Broadcast()
}

//lsvd:requires bs.mu
func (s *Store) fenceExitLocked() {
	s.fenceWaiters--
	if s.fenceWaiters == 0 {
		s.gcCond.Broadcast()
	}
}

// gcWantedLocked is the service wake condition: utilization fell below
// the low-water mark.
//
//lsvd:requires bs.mu
func (s *Store) gcWantedLocked() bool {
	return s.cfg.GCLowWater > 0 && s.utilizationLocked() < s.cfg.GCLowWater
}

// gcService is the background collector goroutine. It sleeps on gcCond
// until woken by a commit (refill/utilization change), StopGC or
// Abort; claims the single GC slot; and runs one paced pass. Pass
// failures land in asyncErr and surface at the next fence.
func (s *Store) gcService() {
	// The claim spans the whole loop: gcCond/commitCond waits and the
	// lock drops inside writeGCObjectLocked touch no other named lock,
	// while the paths that DO cross layers under mu — GCBackoff →
	// wcache.DestagePressure and FetchFromCache → wcache — take
	// wcache.mu, so bs.mu → wcache.mu is the order lsvd-vet's lockorder
	// holds every other path to.
	s.mu.Lock()
	defer s.mu.Unlock()
	defer close(s.gcDone)
	for {
		for !s.gcStop && !s.aborting &&
			(s.fenceWaiters > 0 || !s.gcWantedLocked()) {
			s.gcCond.Wait()
		}
		if s.gcStop || s.aborting {
			return
		}
		for s.gcBusy {
			s.commitCond.Wait()
		}
		if s.gcStop || s.aborting {
			return
		}
		if s.fenceWaiters > 0 || !s.gcWantedLocked() {
			continue // yield to the fence / a fence-driven pass got there first
		}
		s.gcBusy = true
		err := s.gcPassLocked(true)
		s.gcBusy = false
		s.commitCond.Broadcast()
		switch {
		case err == nil, errors.Is(err, errGCAborted), errors.Is(err, errGCYield):
		default:
			if s.asyncErr == nil {
				s.asyncErr = err
			}
		}
		if !errors.Is(err, errGCYield) && s.gcWantedLocked() {
			// The pass ran to completion, or failed, yet utilization is
			// still below the low-water mark: nothing (more) is
			// collectable right now, or a failed upload holds the
			// pipeline. Re-running immediately would spin under s.mu,
			// so park until the next commit changes the picture.
			epoch := s.gcRefills
			for !s.gcStop && !s.aborting && s.gcRefills == epoch {
				s.gcCond.Wait()
			}
		}
		// A victim that lies in the replay suffix waits for a checkpoint
		// to be deleted; with no foreground traffic to drive one, the
		// service queues the marker itself so idle-time collection
		// actually reclaims space: on an empty pipeline it starts at once,
		// behind uploads it waits its turn, and either way no seal parks
		// behind its PUTs or its victims' deletes.
		if err == nil && !s.gcStop && !s.aborting &&
			!s.ckptQueued && s.sinceCkpt >= s.cfg.CheckpointEvery {
			s.queueCheckpointLocked()
		}
	}
}

// gcRefillLocked credits the WAF token bucket for fg payload bytes
// committed by the foreground write path, and wakes the service (the
// commit may also have dropped utilization below the low-water mark).
// The bucket is capped at a few batches so a long quiet spell cannot
// bank an unbounded copy burst.
//
//lsvd:requires bs.mu
func (s *Store) gcRefillLocked(fg int64) {
	if s.gcDone == nil {
		return // no service to pace: GCLowWater 0, or stopped
	}
	if waf := s.cfg.GCWAFTarget; waf > 1 {
		s.gcBudget += int64(float64(fg) * (waf - 1))
		if burst := 4 * s.cfg.BatchBytes; s.gcBudget > burst {
			s.gcBudget = burst
		}
	}
	s.gcRefills++
	s.gcCond.Broadcast()
}

// gcAwaitBudgetLocked blocks a paced pass until the token bucket holds
// need bytes and the destage path is not under pressure. It returns
// errGCYield when a fence is waiting (or the service is stopping) and
// errGCAborted on Abort. When no foreground refill lands for a full
// gcIdleWait, the wait grants itself one batch of budget — the idle
// trickle. The refill-epoch check keeps the trickle out of loaded
// periods, so the WAF bound stays foreground-driven under traffic.
//
//lsvd:requires bs.mu
func (s *Store) gcAwaitBudgetLocked(need int64) error {
	for {
		if s.aborting {
			return errGCAborted
		}
		if s.gcStop || s.fenceWaiters > 0 {
			s.stats.gcYields++
			return errGCYield
		}
		backoff := s.cfg.GCBackoff != nil && s.cfg.GCBackoff()
		if !backoff && (s.gcBudget >= need || s.cfg.GCWAFTarget < 0) {
			return nil
		}
		if backoff {
			s.stats.gcBackoffs++
		} else {
			s.stats.gcPaceWaits++
		}
		epoch := s.gcRefills
		grant := s.cfg.BatchBytes
		t := time.AfterFunc(gcIdleWait, func() {
			s.mu.Lock()
			if s.gcRefills == epoch {
				s.gcBudget += grant
				// Same burst cap as the foreground refill: a pass parked
				// here for a long stretch (e.g. in destage backoff) must
				// not bank an unbounded copy burst, one trickle at a time.
				if burst := 4 * s.cfg.BatchBytes; s.gcBudget > burst {
					s.gcBudget = burst
				}
				s.gcRefills++
			}
			s.gcCond.Broadcast()
			s.mu.Unlock()
		})
		s.gcCond.Wait()
		t.Stop()
	}
}

// --- pass engine (shared by RunGC and the paced service) ---

// gcPassLocked repeatedly collects the best-scoring victim, copying
// its remaining live data into fresh GC objects, until utilization
// recovers to the high-water mark. A victim dies when its last live
// sector is relocated, and is deleted under the release rule
// (releaseLocked): at once below the named checkpoint, else after the next
// one, so recovery never sees holes (§3.3); deletion is further deferred
// while a snapshot pins it (§3.6).
// Caller owns the gcBusy claim. Paced passes pace each copy batch
// against the WAF bucket and yield to fences.
//
//lsvd:requires bs.mu
func (s *Store) gcPassLocked(paced bool) error {
	if err := s.sweepOrphansLocked(); err != nil {
		return err
	}
	s.stats.gcRuns++
	high := s.cfg.GCHighWater
	if high <= 0 {
		high = 0.75
	}
	for s.utilizationLocked() < high {
		cands := s.victimCandidatesLocked()
		if len(cands) == 0 {
			return nil
		}
		progress := false
		for _, seq := range cands {
			if s.aborting {
				return errGCAborted
			}
			if paced && (s.gcStop || s.fenceWaiters > 0) {
				s.stats.gcYields++
				return errGCYield
			}
			if s.utilizationLocked() >= high {
				return nil
			}
			o := s.objects[seq]
			if o == nil || s.cleaned[seq] || o.dataSectors == 0 ||
				float64(o.liveSectors)/float64(o.dataSectors) >= 0.999 {
				continue
			}
			if err := s.collectLocked(seq, paced); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			return nil
		}
	}
	return nil
}

// victimCandidatesLocked returns collectable objects ordered by
// descending cleaning score (garbage ratio × age; age in sequence
// numbers — the log's own clock). The candidate list is consumed in
// bulk by gcPassLocked so the O(objects) scan amortizes over many
// collections.
//
//lsvd:requires bs.mu
func (s *Store) victimCandidatesLocked() []uint32 {
	type cand struct {
		seq   uint32
		score float64
	}
	var cands []cand
	for _, o := range s.objects {
		if o.seq <= s.baseSeq || s.cleaned[o.seq] {
			continue
		}
		if o.typ != journal.TypeData && o.typ != journal.TypeGC {
			continue
		}
		if o.dataSectors == 0 {
			continue
		}
		r := float64(o.liveSectors) / float64(o.dataSectors)
		if r >= 0.999 {
			continue // fully live: collecting it cannot help
		}
		age := float64(s.nextSeq - o.seq)
		cands = append(cands, cand{o.seq, (1 - r) * age})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].seq < cands[j].seq // deterministic tie-break
	})
	out := make([]uint32, len(cands))
	for i, c := range cands {
		out[i] = c.seq
	}
	return out
}

// gcPiece is one run of live data to relocate.
type gcPiece struct {
	ext    block.Extent
	srcObj uint32
	srcOff block.LBA // sector offset within source object
}

// collectLocked relocates the live data of the victim into new GC
// objects and schedules the victim for deletion. The victim's header
// may need a backend fetch, which drops s.mu; the victim and the pass
// are revalidated after reacquisition (the gcBusy claim keeps passes
// single-flight, but seals, commits and lookups proceed meanwhile).
// Paced collections draw each batch's bytes from the WAF bucket first;
// a yield mid-victim is safe — already-copied pieces are live in their
// GC objects, the rest stay live in the victim, and the victim is only
// marked cleaned (entering the deferred-delete path) after its last
// piece relocated.
//
//lsvd:requires bs.mu
func (s *Store) collectLocked(seq uint32, paced bool) error {
	hdr, err := s.headerGCLocked(seq)
	if err != nil {
		if s.reapedLocked(seq, err) {
			return nil
		}
		return err
	}
	if s.aborting {
		return errGCAborted
	}
	victim := s.objects[seq]
	if victim == nil || s.cleaned[seq] {
		return nil
	}
	pieces := s.livePiecesLocked(victim, hdr)
	if s.cfg.DefragHoleSectors > 0 {
		pieces = s.plugHolesLocked(pieces, paced)
	}

	// Relocate in batches of at most BatchBytes.
	for len(pieces) > 0 {
		var take []gcPiece
		var bytes int64
		for len(pieces) > 0 && bytes < s.cfg.BatchBytes {
			take = append(take, pieces[0])
			bytes += pieces[0].ext.Bytes()
			pieces = pieces[1:]
		}
		if paced {
			if err := s.gcAwaitBudgetLocked(bytes); err != nil {
				return err
			}
			s.gcBudget -= bytes
		}
		if err := s.writeGCObjectLocked(take); err != nil {
			return err
		}
	}

	// The install that relocated the victim's last live sector killed it
	// (diedLocked). Every piece was relocated or overwritten, so it is
	// dead whatever its counter says, and every object that displaced it
	// has committed. Its contribution stays in the running counters until
	// its delete retires (retireObjectLocked); utilizationLocked excludes
	// cleaned objects on the fly, so an abort or crash between here and
	// the delete cannot strand the accounting.
	if v := s.objects[seq]; v != nil && !s.cleaned[seq] {
		s.diedLocked(v, s.nextSeq-1)
	}
	s.stats.gcVictims++
	_ = s.reapLocked(s.releaseLocked()) // a failed delete waits on s.deferred for the next checkpoint
	if invariant.Enabled {
		var live, data uint64
		for _, o := range s.objects {
			if s.utilCounted(o) {
				live += uint64(o.liveSectors)
				data += uint64(o.dataSectors)
			}
		}
		invariant.Assertf(live == s.utilLive && data == s.utilData,
			"blockstore: utilization drift after collecting %d: counters %d/%d, objects %d/%d",
			seq, s.utilLive, s.utilData, live, data)
	}
	return nil
}

// livePiecesLocked identifies the victim's still-live extents by
// intersecting its stored header with the object map (§3.5: "we
// retrieve the object header, which lists the live extents held in
// that object at the time of its creation; only these ranges need be
// examined").
//
//lsvd:requires bs.mu
func (s *Store) livePiecesLocked(victim *objInfo, hdr *hdrEntry) []gcPiece {
	var pieces []gcPiece
	for _, e := range hdr.extents {
		if e.SrcSeq == trimMarker {
			continue
		}
		ext := block.Extent{LBA: e.LBA, Sectors: e.Sectors}
		for _, run := range s.m.Lookup(ext) {
			if run.Present && run.Target.Obj == victim.seq {
				pieces = append(pieces, gcPiece{ext: run.Extent, srcObj: victim.seq, srcOff: run.Target.Off})
			}
		}
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].ext.LBA < pieces[j].ext.LBA })
	// Objects written without coalescing carry overlapping header
	// extents, so the same live run can be found more than once; clip
	// overlaps so each live sector is copied exactly once (duplicates
	// in a GC object would make it partially dead at birth and the
	// collector would chase its own tail).
	out := pieces[:0]
	var prevEnd block.LBA
	for _, p := range pieces {
		if len(out) > 0 && p.ext.LBA < prevEnd {
			if p.ext.End() <= prevEnd {
				continue // fully duplicated
			}
			d := prevEnd - p.ext.LBA
			p.ext.LBA += d
			p.ext.Sectors -= uint32(d)
			p.srcOff += d
		}
		out = append(out, p)
		prevEnd = p.ext.End()
	}
	return out
}

// plugHolesLocked adds small inter-piece gaps so that the relocated
// extents merge in the map, trading a little extra copying for a
// smaller map (§4.6 defragmentation). Unmapped gap portions are
// plugged with explicit zeros (semantically identical reads); mapped
// portions are copied from wherever they live. Total plugging per
// collection is budgeted to a fraction of the genuinely live bytes so
// the write-amplification cost stays small, as the paper reports;
// paced collections additionally cap plugging at the spare WAF budget
// beyond what the live bytes themselves will consume, so defrag is the
// first thing sacrificed when the bucket runs dry.
//
//lsvd:requires bs.mu
func (s *Store) plugHolesLocked(pieces []gcPiece, paced bool) []gcPiece {
	if len(pieces) < 2 {
		return pieces
	}
	var liveSectors uint64
	for _, p := range pieces {
		liveSectors += uint64(p.ext.Sectors)
	}
	budget := liveSectors / 4 // <=25% extra copy volume
	if paced && s.cfg.GCWAFTarget >= 0 {
		// All-unsigned: the bucket can be negative or smaller than the
		// live bytes, either way there is no spare for plugging.
		var spare uint64
		if b := s.gcBudget; b > 0 && uint64(b) > liveSectors*block.SectorSize {
			spare = (uint64(b) - liveSectors*block.SectorSize) / block.SectorSize
		}
		if spare < budget {
			budget = spare
		}
	}
	var plugged uint64

	out := make([]gcPiece, 0, len(pieces))
	out = append(out, pieces[0])
	for _, p := range pieces[1:] {
		prevEnd := out[len(out)-1].ext.End()
		if p.ext.LBA > prevEnd && uint32(p.ext.LBA-prevEnd) <= s.cfg.DefragHoleSectors {
			gap := block.Extent{LBA: prevEnd, Sectors: uint32(p.ext.LBA - prevEnd)}
			if plugged+uint64(gap.Sectors) <= budget {
				for _, run := range s.m.Lookup(gap) {
					if run.Present {
						out = append(out, gcPiece{ext: run.Extent, srcObj: run.Target.Obj, srcOff: run.Target.Off})
					} else {
						// Zero-fill: a fresh write of zeros.
						out = append(out, gcPiece{ext: run.Extent})
					}
				}
				plugged += uint64(gap.Sectors)
			}
		}
		out = append(out, p)
	}
	return out
}

// gcGateAcquire takes an upload-gate slot for GC backend I/O as a
// background participant: no guaranteed share, always yielding to
// foreground acquirers. Must be called WITHOUT s.mu held (the gate can
// block while foreground uploads drain).
func (s *Store) gcGateAcquire() { s.gate.AcquireBackground(s.gcGateID) }

func (s *Store) gcGateRelease() { s.gate.ReleaseBackground(s.gcGateID) }

// writeGCObjectLocked reads the pieces (preferring the local cache,
// §3.5) and queues them as one GC object in the upload pipeline, which
// PUTs it off s.mu and commits it in sequence order like a client
// batch; then it waits for that commit as a fence does. Source reads
// drop s.mu — the sources are immutable objects, and installation is
// conditional on the map still pointing at the copied data, so seals,
// commits and trims meanwhile at worst make parts of the GC object dead
// at birth. Its backend I/O is background: the PUT's gate slot is taken
// before the sequence number and handed to the upload, so the entry
// never waits for one behind the uploads queued after it.
//
//lsvd:requires bs.mu
func (s *Store) writeGCObjectLocked(pieces []gcPiece) error {
	var src segments // the pieces end to end, each summed as fetched
	kept := pieces[:0]
	for _, p := range pieces {
		data := make([]byte, p.ext.Bytes())
		if p.srcObj != 0 && (s.cfg.FetchFromCache == nil || !s.cfg.FetchFromCache(p.ext, data)) {
			name := s.name(p.srcObj)
			s.mu.Unlock()
			s.gcGateAcquire()
			got, err := s.cfg.Store.GetRange(s.ctx, name, p.srcOff.Bytes(), p.ext.Bytes())
			s.gcGateRelease()
			s.mu.Lock()
			if err != nil {
				if s.reapedLocked(p.srcObj, err) {
					continue
				}
				return err
			}
			if s.aborting {
				return errGCAborted
			}
			copy(data, got)
		}
		src.push(data, journal.Sum(data))
		kept = append(kept, p)
	}
	if pieces = kept; len(pieces) == 0 {
		return nil
	}
	s.mu.Unlock()
	s.gcGateAcquire()
	s.mu.Lock()
	if s.aborting {
		s.gcGateRelease()
		return errGCAborted
	}

	exts := make([]journal.ExtentEntry, 0, len(pieces))
	for _, p := range pieces {
		// srcObj 0 (a zero-fill plug of an unmapped gap) stays 0 in the
		// header: installObject fills only still-unmapped holes for it.
		// Installing zeros unconditionally would be wrong: a client write
		// that lands during this function's lock drops, in an object that
		// commits before this one, must not be shadowed by plug zeros.
		exts = append(exts, journal.ExtentEntry{LBA: p.ext.LBA, Sectors: p.ext.Sectors, SrcSeq: uint64(p.srcObj)})
	}
	inf := &inflightObj{
		seq: s.nextSeq, typ: journal.TypeGC, maxWrite: s.durableWriteSeq,
		src: &src, exts: exts, offs: src.offs,
	}
	s.nextSeq++
	s.inflight = append(s.inflight, inf)
	s.startUploadLocked(inf, true)
	for len(s.inflight) > 0 && s.inflight[0].seq <= inf.seq {
		if s.aborting {
			return errGCAborted
		}
		if err := s.retryFrontLocked(); err != nil {
			return err
		}
		s.commitCond.Wait()
	}
	return nil
}

// reapedLocked reports whether err, from a GC read of object seq taken
// during a lock drop, means the reaper deleted the object meanwhile: it
// is dead, so nothing maps to it and the conditional install would
// reject every piece copied from it.
//
//lsvd:requires bs.mu
func (s *Store) reapedLocked(seq uint32, err error) bool {
	return errors.Is(err, objstore.ErrNotFound) && (s.objects[seq] == nil || s.cleaned[seq])
}
