package blockstore

import (
	"errors"

	"lsvd/internal/invariant"
	"lsvd/internal/objstore"
)

// The reaper is the one path by which a cleaned object leaves the
// backend. Every release site — a durable checkpoint (DeleteSnapshot's
// included), a shipped-watermark advance, and recovery's deferred
// re-sweep — hands it a list of deferredDeletes and it works in three
// steps:
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
//     cleaned set (retireObjectLocked); failures go back on the list
//     the caller names, to be retried by the next release. Deletion is
//     space reclaim, not correctness, so a failure never fails a
//     checkpoint.
//
// Once Abort has landed no new reap is claimed, and Abort returns only
// when s.reaping is empty: the backend stops changing.

// reapFanout bounds the concurrent backend deletes of one reap.
const reapFanout = 8

// pinnedLocked reports whether d's object must outlive this release: a
// snapshot inside (Obj, GCSeq) still reads it (§3.6), or it sits above
// the replication shipped watermark (ship.go rule 2) — the victim stays
// on the primary until the shipper has acked it, then the watermark
// advance re-drives the deferred list (redriveShipDeferredLocked).
//
//lsvd:requires bs.mu
func (s *Store) pinnedLocked(d deferredDelete) bool {
	if s.shipPinnedLocked(d.Obj) {
		return true
	}
	for _, sn := range s.snapshots {
		if sn.Seq >= d.Obj && sn.Seq < d.GCSeq {
			return true
		}
	}
	return false
}

// reapClaimLocked is step 1: it parks the pinned entries of ds on
// s.deferred, claims the rest in s.reaping and returns them for reap.
// After Abort it claims nothing: the unpinned entries go back on
// *requeue and the result is empty.
//
//lsvd:requires bs.mu
func (s *Store) reapClaimLocked(ds []deferredDelete, requeue *[]deferredDelete) []deferredDelete {
	var free []deferredDelete
	for _, d := range ds {
		switch {
		case s.pinnedLocked(d):
			s.deferred = append(s.deferred, d)
		case s.aborting:
			*requeue = append(*requeue, d)
		default:
			s.reaping[d.Obj] = d
			free = append(free, d)
		}
	}
	return free
}

// reap is steps 2 and 3 for entries reapClaimLocked returned. Called
// WITHOUT s.mu. Deleting an already-missing object succeeds — recovery
// re-drives deletes a crash may have let through. Failures go back on
// *requeue; the first one is returned for the callers that report it.
func (s *Store) reap(claimed []deferredDelete, requeue *[]deferredDelete) error {
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
			*requeue = append(*requeue, d)
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
func (s *Store) reapLocked(ds []deferredDelete, requeue *[]deferredDelete) error {
	claimed := s.reapClaimLocked(ds, requeue)
	if len(claimed) == 0 {
		return nil
	}
	s.mu.Unlock()
	err := s.reap(claimed, requeue)
	s.mu.Lock()
	return err
}

// retireObjectLocked drops a deleted object's bookkeeping.
//
//lsvd:requires bs.mu
func (s *Store) retireObjectLocked(seq uint32) {
	if o := s.objects[seq]; s.utilCounted(o) {
		invariant.Assertf(s.utilLive >= uint64(o.liveSectors) && s.utilData >= uint64(o.dataSectors),
			"blockstore: utilization underflow deleting object %d", seq)
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
