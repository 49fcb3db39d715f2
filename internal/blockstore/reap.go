package blockstore

import (
	"errors"
	"slices"

	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// The object lifecycle (DESIGN.md §11.5). Every row of the object table
// carries its state, and one function, transition, moves it along these
// edges:
//
//	live ──death──▶ dead ──release──▶ held ──claim──▶ reaping ──delete──▶ (retired)
//	                                   ▲                 │
//	                                   └──delete failed──┘
//
//   - live: installed; a data or GC object with a live sector, or a
//     checkpoint some chain walk reads.
//   - dead: garbage, waiting for the release rule. An own data or GC
//     object dies when its last live sector is displaced (diedLocked,
//     killedBy its killer's sequence number), a checkpoint when no chain
//     walk reads it any more (supersededLocked).
//   - held: released, but a snapshot or the shipped watermark pins it
//     (pinnedLocked), or its delete failed. Every landed super, open and
//     every watermark advance re-drive it (redriveLocked).
//   - reaping: its backend delete is in flight with s.mu released.
//     Fences and Abort wait for none to be left.
//
// A deleted object leaves the table (retireObjectLocked). The release
// rule is written once, in diedLocked and redriveLocked: recovery reads
// an object below the checkpoint the durable super names only through
// that checkpoint's map, and objects commit in sequence order, so every
// recovery replays whatever killed it; such a dead row is released.
// Everything else waits: a row in the replay suffix until a super names
// a newer checkpoint, any row of a read-only store. Release and claim are
// one step under s.mu; a claimed row joins s.toReap, which the holder
// hands to the reaper before it drops the lock:
//
//  1. reap, with s.mu RELEASED: the backend deletes, reapFanout at a
//     time. No Store.Delete runs under s.mu.
//  2. reap again, under one short hold of s.mu: successes leave the
//     table; failures go back to held, for the next landed super.
//     Deletion is space reclaim, not correctness, so a failure never
//     fails a checkpoint.
//
// Every checkpoint lists the rows that are not live as its deferred list,
// and keeps them in its object table, so a crash mid-reap loses nothing:
// open puts them all back to dead. Once Abort has landed nothing is
// claimed, and Abort returns only when no row is reaping: the backend
// stops changing.

// objState is a row's place in the object lifecycle.
type objState uint8

const (
	stateLive objState = iota
	stateDead
	stateHeld
	stateReaping
	numStates
)

// lifecycle is the legal-edge table transition checks.
var lifecycle = [numStates][numStates]bool{
	stateLive:    {stateDead: true},
	stateDead:    {stateHeld: true},
	stateHeld:    {stateReaping: true},
	stateReaping: {stateHeld: true},
}

// transition moves o from state from to state to, failing on an edge
// the lifecycle does not have or a row that is not in from. A row that
// leaves live leaves the utilization counters. It is the only writer of
// a row's state after the row is built.
//
//lsvd:requires bs.mu
func (s *Store) transition(o *objInfo, from, to objState) {
	if o.state != from || !lifecycle[from][to] {
		invariant.Failf("blockstore: object %d moved %d→%d in state %d", o.seq, from, to, o.state)
	}
	if s.counted(o) {
		if s.count.live < uint64(o.liveSectors) || s.count.data < uint64(o.dataSectors) {
			invariant.Failf("blockstore: utilization underflow as object %d dies", o.seq)
		}
		s.count.live -= uint64(o.liveSectors)
		s.count.data -= uint64(o.dataSectors)
	}
	s.count.rows[from]--
	s.count.rows[to]++
	o.state = to
}

// reapFanout bounds the concurrent backend deletes of one reap.
const reapFanout = 8

// diedLocked kills the live row o. by, its killedBy, is the object whose
// install killed it, or a sequence number no lower. A row below the
// checkpoint the durable super names is released at once.
//
//lsvd:requires bs.mu
func (s *Store) diedLocked(o *objInfo, by uint32) {
	s.transition(o, stateLive, stateDead)
	o.killedBy = by
	if !s.readOnly && o.seq < s.durable.lastCkpt {
		s.releaseLocked(o, s.snapPinsLocked())
	}
}

// releaseLocked releases the dead row o and drives it to the reaper.
//
//lsvd:requires bs.mu
func (s *Store) releaseLocked(o *objInfo, pins []snapPin) {
	s.transition(o, stateDead, stateHeld)
	s.driveLocked(o, pins)
}

// driveLocked claims the held row o for the reaper unless it is pinned
// or Abort has landed. pins comes from snapPinsLocked.
//
//lsvd:requires bs.mu
func (s *Store) driveLocked(o *objInfo, pins []snapPin) {
	if s.aborting || s.pinnedLocked(o, pins) {
		return
	}
	s.transition(o, stateHeld, stateReaping)
	s.toReap = append(s.toReap, o.seq)
}

// redriveLocked is the release rule as one scan of the table, for a
// landed super, open and a shipped-watermark advance: it releases every
// dead row below the checkpoint the durable super names and re-drives
// every held row. A read-only store releases nothing.
//
//lsvd:requires bs.mu
func (s *Store) redriveLocked() {
	if s.readOnly {
		return
	}
	pins := s.snapPinsLocked()
	for _, o := range s.objects {
		switch {
		case o.state == stateDead && o.seq < s.durable.lastCkpt:
			s.releaseLocked(o, pins)
		case o.state == stateHeld:
			s.driveLocked(o, pins)
		}
	}
}

// pinnedLocked reports whether o must outlive this release: a snapshot
// mount still reads it (§3.6), or it sits above the replication shipped
// watermark (ship.go rule 2) — the victim stays on the primary until the
// shipper has acked it. Before a shipper attaches the watermark is zero,
// so a replicated volume holds every row; the attach backlog probe acks
// what the replica already has and unpins it promptly. A snapshot at S
// loads checkpoint ckpt and replays up to S, so it reads the object when
// S lies in [seq, killedBy), before the last object that displaced it,
// or when the object lies in the replayed suffix: the mount stops at
// the first missing sequence number.
//
//lsvd:requires bs.mu
func (s *Store) pinnedLocked(o *objInfo, pins []snapPin) bool {
	if s.cfg.Replicated && o.seq > s.shipMark {
		return true
	}
	for _, p := range pins {
		if p.seq >= o.seq && (p.seq < o.killedBy || p.ckpt < o.seq) {
			return true
		}
	}
	return false
}

// reapLocked reaps s.toReap for a caller that holds s.mu, dropping it
// around the deletes.
//
//lsvd:requires bs.mu
func (s *Store) reapLocked() error {
	claimed := s.takeReapLocked()
	if len(claimed) == 0 {
		return nil
	}
	s.mu.Unlock()
	err := s.reap(claimed)
	s.mu.Lock()
	return err
}

// takeReapLocked hands the caller the rows claimed under this hold of
// s.mu, to reap once it has dropped the lock, in sequence order: a scan
// of the table (redriveLocked) claims them in map order.
//
//lsvd:requires bs.mu
func (s *Store) takeReapLocked() []uint32 {
	claimed := s.toReap
	s.toReap = nil
	slices.Sort(claimed)
	return claimed
}

// reap deletes claimed rows from the backend. Called WITHOUT s.mu.
// Deleting an already-missing object succeeds — recovery re-drives
// deletes a crash may have let through. Failures go back to held; the
// first one is returned for the callers that report it.
func (s *Store) reap(claimed []uint32) error {
	if len(claimed) == 0 {
		return nil
	}
	errs := make([]error, len(claimed))
	runBounded(reapFanout, len(claimed), func(i int) {
		err := s.cfg.Store.Delete(s.ctx, s.name(claimed[i]))
		if err != nil && !errors.Is(err, objstore.ErrNotFound) {
			errs[i] = err
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for i, seq := range claimed {
		o := s.objects[seq]
		if errs[i] != nil {
			s.transition(o, stateReaping, stateHeld)
			if first == nil {
				first = errs[i]
			}
			continue
		}
		s.retireObjectLocked(o)
	}
	s.commitCond.Broadcast()
	return first
}

// retireObjectLocked takes a deleted object's row out of the table.
//
//lsvd:requires bs.mu
func (s *Store) retireObjectLocked(o *objInfo) {
	if o.state == stateLive {
		invariant.Failf("blockstore: live object %d retired", o.seq)
	}
	s.count.rows[o.state]--
	if o.typ == journal.TypeCheckpoint {
		if i, ok := slices.BinarySearch(s.ckpts, o.seq); ok {
			s.ckpts = slices.Delete(s.ckpts, i, i+1)
		}
	}
	if s.shipLaggingLocked(o) {
		s.shipLag--
		s.shipLagBytes -= o.totalBytes
	}
	delete(s.objects, o.seq)
	delete(s.hdrCache, o.seq)
	s.stats.objectsDeleted++
}
