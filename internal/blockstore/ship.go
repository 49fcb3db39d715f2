package blockstore

import (
	"slices"

	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// The replication change feed (DESIGN.md §11.6). A volume opened with
// Config.Replicated publishes every COMMITTED object — data objects,
// GC objects, checkpoints — plus superblock updates, in commit order,
// to an in-memory feed that a single shipper goroutine drains into a
// second backend. Two properties make the replica a crash-consistent
// prefix of the primary (§3.4 applied across backends):
//
//  1. Events enter the feed at the exact point the object becomes
//     visible to readers and recovery (installObject for data/GC,
//     checkpointObjectDurableLocked for checkpoints), so feed order IS
//     commit order, which is sequence order (upload.go).
//  2. The shipped watermark below is the highest sequence S such that
//     every committed object with seq <= S has been acked by the
//     shipper. The reaper refuses to delete any primary object above
//     the watermark (pinnedLocked), holding it like a snapshot pin does
//     — so no object the replica's checkpoints may reference disappears
//     from the primary before the replica holds its own copy.
//
// An ack sets the row's shipped bit, and the watermark walks forward
// over shipped rows, and over numbers no row holds, up to the highest
// published seq: exactly the contiguously-shipped prefix, whatever order
// the acks come in, at amortised O(1) per sequence number.
//
// Superblock updates ride the feed as Seq-0 events (journal.TypeSuper)
// that carry no lag accounting: the shipper re-reads the LIVE super
// when it processes one, and only copies it once the checkpoint it
// names exists on the replica, so the replica's super never points at
// an object the replica doesn't have.

// ShipEvent is one entry of the replication change feed: a committed
// numbered object or a superblock update. Numbered events carry the
// resolved backend key (clone-base objects resolve to the base
// volume's key) and the object's size for lag accounting; superblock
// events have Seq 0 and Typ journal.TypeSuper.
type ShipEvent struct {
	Seq   uint32
	Typ   journal.Type
	Name  string
	Bytes int64
}

// IsSuper reports whether the event is a superblock update rather than
// a numbered object.
func (e ShipEvent) IsSuper() bool { return e.Typ == journal.TypeSuper }

// shipPublishLocked appends a committed object (or super update) to
// the feed. No-op unless the volume is replicated and a shipper has
// attached — recovery-time installs run before attach and are covered
// by the ShipAttach backlog instead.
//
//lsvd:requires bs.mu
func (s *Store) shipPublishLocked(seq uint32, typ journal.Type, bytes int64) {
	if !s.cfg.Replicated || !s.shipAttached || s.shipClosed {
		return
	}
	ev := ShipEvent{Seq: seq, Typ: typ, Bytes: bytes}
	if typ == journal.TypeSuper {
		ev.Name = superName(s.cfg.Volume)
	} else {
		ev.Name = s.name(seq)
		s.shipMaxPub = max(s.shipMaxPub, seq)
		s.shipLag++
		s.shipLagBytes += bytes
	}
	s.shipFeed = append(s.shipFeed, ev)
	s.shipCond.Broadcast()
}

// ShipAttach registers the volume's shipper and returns the backlog:
// one event per committed object, ascending by sequence number, plus a
// trailing superblock event. It resets the watermark to zero — every
// row counts as unshipped until acked (the shipper probes the replica
// and acks without copying what is already there), so held rows stay
// pinned until each object is confirmed on the replica.
func (s *Store) ShipAttach() []ShipEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shipAttached = true
	s.shipClosed = false
	s.shipFeed = nil
	s.shipMaxPub, s.shipMark, s.shipLag, s.shipLagBytes = 0, 0, len(s.objects), 0
	seqs := make([]uint32, 0, len(s.objects))
	for seq := range s.objects {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	evs := make([]ShipEvent, 0, len(seqs)+1)
	for _, seq := range seqs {
		o := s.objects[seq]
		evs = append(evs, ShipEvent{Seq: seq, Typ: o.typ, Name: s.name(seq), Bytes: o.totalBytes})
		o.shipped = false
		s.shipMaxPub = seq
		s.shipLagBytes += o.totalBytes
	}
	evs = append(evs, ShipEvent{Typ: journal.TypeSuper, Name: superName(s.cfg.Volume)})
	return evs
}

// ShipNext blocks until the feed has events or is closed, then drains
// it. The second return is false only when the feed is closed AND
// empty — a drain-mode close delivers every queued event first.
func (s *Store) ShipNext() ([]ShipEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.shipFeed) == 0 && !s.shipClosed {
		s.shipCond.Wait()
	}
	evs := s.shipFeed
	s.shipFeed = nil
	return evs, len(evs) > 0 || !s.shipClosed
}

// ShipAck records that the shipper has durably copied (or verified, or
// deliberately skipped) one numbered object, advances the watermark,
// and — when it moved while a row is held — re-drives the held rows,
// with s.mu released for the deletes: this is the shipper's ack path,
// and the foreground must not wait behind it. A late ack racing Abort
// deletes nothing: nothing is claimed once aborting is set. Super
// events need no ack, and a repeated ack changes nothing.
func (s *Store) ShipAck(ev ShipEvent) {
	if ev.IsSuper() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objects[ev.Seq]
	if o == nil || !s.shipLaggingLocked(o) {
		return
	}
	o.shipped = true
	s.shipLag--
	s.shipLagBytes -= o.totalBytes
	mark := s.shipMark
	for mark < s.shipMaxPub {
		if next := s.objects[mark+1]; next != nil && !next.shipped {
			break
		}
		mark++
	}
	if mark == s.shipMark {
		return
	}
	s.shipMark = mark
	if s.count.rows[stateHeld] > 0 {
		s.redriveLocked()
		_ = s.reapLocked() // failures stay held
	}
}

// shipLaggingLocked reports whether o is in the replication lag:
// published to an attached shipper and not yet acked.
//
//lsvd:requires bs.mu
func (s *Store) shipLaggingLocked(o *objInfo) bool {
	return s.shipAttached && !o.shipped && o.seq <= s.shipMaxPub
}

// ShipClose detaches the feed. drain=true leaves queued events for the
// shipper to finish (clean close); drain=false drops them (Kill).
func (s *Store) ShipClose(drain bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shipClosed = true
	if !drain {
		s.shipFeed = nil
	}
	s.shipCond.Broadcast()
}

// ShipLag returns the published-but-unacked backlog: object count and
// payload bytes. This is the measured replication lag the RPO bound
// compares against.
func (s *Store) ShipLag() (objects int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shipLag, s.shipLagBytes
}

// ShippedSeq returns the shipped watermark: every committed object
// with seq <= ShippedSeq() is on the replica (or was deliberately
// skipped as already present).
func (s *Store) ShippedSeq() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shipMark
}

// ObjectStore returns the volume's (retry-wrapped) backend store, for
// the shipper's source reads.
func (s *Store) ObjectStore() objstore.Store { return s.cfg.Store }

// ObjName and SuperName expose the volume's backend key layout for the
// replication shipper and admin tooling.
func ObjName(vol string, seq uint32) string { return objName(vol, seq) }

// SuperName returns the volume's superblock key.
func SuperName(vol string) string { return superName(vol) }

// Volume returns the volume name the store was configured with.
func (s *Store) Volume() string { return s.cfg.Volume }
