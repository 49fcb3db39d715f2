package blockstore

import (
	"errors"
	"slices"

	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// The reaper is the one path by which a dead object leaves the backend.
// Every release site — the release rule (releaseLocked) at a commit, a
// GC pass's victim, a landed super and open, and the re-drive of
// s.deferred at a landed super and a shipped-watermark advance — hands
// it a list of deferredDeletes and it works in three steps:
//
//  1. reapClaimLocked, under s.mu: entries a snapshot or the shipped
//     watermark still pins join s.deferred; the rest move to s.reaping.
//     While an entry sits there, checkpoints serialise it with the
//     deferred list (a crash mid-reap is re-driven at open), fences and
//     Abort wait for it, and the object stays in the object table and
//     the cleaned set, so nothing else can pick it up.
//  2. reap, with s.mu RELEASED: the backend deletes, reapFanout at a
//     time. No Store.Delete runs under s.mu (the orphan sweep is the
//     one waived exception, see sweepOrphansLocked).
//  3. reap again, under one short hold of s.mu: successes leave the
//     object table, the utilization counters, the header cache and the
//     cleaned set (retireObjectLocked); failures join s.deferred, to be
//     retried by the next landed super. Deletion is space reclaim, not
//     correctness, so a failure never fails a checkpoint.
//
// Once Abort has landed no new reap is claimed, and Abort returns only
// when s.reaping is empty: the backend stops changing.

// reapFanout bounds the concurrent backend deletes of one reap.
const reapFanout = 8

// pinnedLocked reports whether d's object must outlive this release: a
// snapshot mount still reads it (§3.6), or it sits above the
// replication shipped watermark (ship.go rule 2) — the victim stays on
// the primary until the shipper has acked it, then the watermark
// advance re-drives the deferred list (redriveShipDeferredLocked). A
// snapshot at S loads checkpoint ckpt and replays up to S, so it reads
// the object when S lies in [Obj, GCSeq), before the last object that
// displaced it, or when the object lies in the replayed suffix: the
// mount stops at the first missing sequence number. pins comes from
// snapPinsLocked.
//
//lsvd:requires bs.mu
func (s *Store) pinnedLocked(d deferredDelete, pins []snapPin) bool {
	if s.shipPinnedLocked(d.Obj) {
		return true
	}
	for _, p := range pins {
		if p.seq >= d.Obj && (p.seq < d.GCSeq || p.ckpt < d.Obj) {
			return true
		}
	}
	return false
}

// reapClaimLocked is step 1: it parks the pinned entries of ds on
// s.deferred, claims the rest in s.reaping and returns them for reap.
// After Abort it claims nothing: every entry joins s.deferred and the
// result is empty.
//
//lsvd:requires bs.mu
func (s *Store) reapClaimLocked(ds []deferredDelete) []deferredDelete {
	if len(ds) == 0 {
		return nil
	}
	pins := s.snapPinsLocked()
	var free []deferredDelete
	for _, d := range ds {
		if s.aborting || s.pinnedLocked(d, pins) {
			s.deferred = append(s.deferred, d)
			continue
		}
		s.reaping[d.Obj] = d
		free = append(free, d)
	}
	return free
}

// reap is steps 2 and 3 for entries reapClaimLocked returned. Called
// WITHOUT s.mu. Deleting an already-missing object succeeds — recovery
// re-drives deletes a crash may have let through. Failures join
// s.deferred; the first one is returned for the callers that report it.
func (s *Store) reap(claimed []deferredDelete) error {
	if len(claimed) == 0 {
		return nil
	}
	errs := make([]error, len(claimed))
	runBounded(reapFanout, len(claimed), func(i int) {
		err := s.cfg.Store.Delete(s.ctx, s.name(claimed[i].Obj))
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
			errs[i] = err
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for i, d := range claimed {
		delete(s.reaping, d.Obj)
		if errs[i] != nil {
			s.deferred = append(s.deferred, d)
			if first == nil {
				first = errs[i]
			}
			continue
		}
		s.retireObjectLocked(d.Obj)
	}
	s.commitCond.Broadcast()
	return first
}

// reapLocked runs all three steps for a caller that holds s.mu,
// dropping it around the deletes.
//
//lsvd:requires bs.mu
func (s *Store) reapLocked(ds []deferredDelete) error {
	claimed := s.reapClaimLocked(ds)
	if len(claimed) == 0 {
		return nil
	}
	s.mu.Unlock()
	err := s.reap(claimed)
	s.mu.Lock()
	return err
}

// redriveLocked takes s.deferred for another pass through the reaper,
// whose claim re-parks what is still pinned.
//
//lsvd:requires bs.mu
func (s *Store) redriveLocked() []deferredDelete {
	ds := s.deferred
	s.deferred = nil
	return ds
}

// retireObjectLocked drops a deleted object's bookkeeping.
//
//lsvd:requires bs.mu
func (s *Store) retireObjectLocked(seq uint32) {
	o := s.objects[seq]
	if o != nil && o.typ == journal.TypeCheckpoint {
		if i, ok := slices.BinarySearch(s.ckpts, seq); ok {
			s.ckpts = slices.Delete(s.ckpts, i, i+1)
		}
	}
	if s.utilCounted(o) {
		if s.utilLive < uint64(o.liveSectors) || s.utilData < uint64(o.dataSectors) {
			invariant.Failf("blockstore: utilization underflow deleting object %d", seq)
		}
		// An object's utilization contribution is removed only here, at
		// delete retirement — never when the GC merely marks it cleaned
		// (utilizationLocked excludes cleaned objects on the fly), so an
		// aborted pass or a crash before the delete cannot strand the
		// counters.
		s.utilLive -= uint64(o.liveSectors)
		s.utilData -= uint64(o.dataSectors)
	}
	delete(s.objects, seq)
	delete(s.hdrCache, seq)
	delete(s.cleaned, seq)
	s.stats.objectsDeleted++
}
