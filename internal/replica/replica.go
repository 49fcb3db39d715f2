// Package replica implements LSVD's asynchronous replication (paper
// §4.8) on top of the blockstore's commit feed (ship.go, DESIGN.md
// §14): because the volume is an ordered stream of immutable numbered
// objects, a crash-consistent replica is maintained by copying objects
// to a second object store in commit order and refreshing the
// superblock only once the checkpoint it names is present there.
//
// A Shipper is one volume's replication goroutine. It attaches to the
// blockstore's feed (blockstore.ShipAttach), works off the backlog —
// probing the replica so a re-attach after restart copies only what is
// missing — then drains live commit events. Each ack advances the
// blockstore's shipped watermark, which both measures the replication
// lag (the RPO) and releases the deferred deletions the watermark was
// pinning on the primary. Backend I/O takes background-class gate
// slots (iosched.Gate.AcquireBackground) so shipping only ever uses
// upload capacity foreground destage is not using.
package replica

import (
	"context"
	"errors"
	"sync"
	"time"

	"lsvd/internal/blockstore"
	"lsvd/internal/invariant"
	"lsvd/internal/iosched"
	"lsvd/internal/objstore"
)

// Config wires one volume's shipper.
type Config struct {
	// Backend is the primary volume's blockstore — the feed source.
	// The primary object store is taken from it (retry-wrapped).
	Backend *blockstore.Store
	// Replica is the destination store. Wrap it in an objstore.Retrier
	// for transient-fault absorption; the shipper itself retries
	// indefinitely (the object MUST eventually ship — lag growth is the
	// escalation path, not data loss) but backs off between attempts.
	Replica objstore.Store
	// Gate/GateID bound the shipper's backend I/O with background-class
	// slots of the volume's upload gate; GateID is a borrow-only
	// identity ("<uploadID>#ship") that needs no Register.
	Gate   *iosched.Gate
	GateID string
	// MaxLagObjects is the RPO bound: when more objects than this are
	// unshipped, OverBound() turns true and the owner (core's write
	// path) applies backpressure until the shipper catches up. 0
	// disables the bound.
	MaxLagObjects int
	// OnAck, when set, is called after every ack (object copied,
	// verified present, or deliberately skipped) — i.e. whenever the
	// lag shrinks. Core uses it to wake writers stalled on the RPO
	// bound instead of having them poll.
	OnAck func()
}

// Stats reports replication progress and the current lag.
type Stats struct {
	ShippedSeq     uint32 // watermark: contiguously replicated prefix
	LagObjects     int    // committed but unshipped objects
	LagBytes       int64  // their payload bytes
	CopiedObjects  uint64
	CopiedBytes    int64
	SkippedPresent uint64 // backlog objects already on the replica
	SkippedGone    uint64 // gone from the primary before shipping
	SuperCopies    uint64 // superblock refreshes applied to the replica
	SuperSkips     uint64 // super updates held back (checkpoint not shipped yet)
	Retries        uint64 // replica-store transient retries (Retrier)
	Errors         uint64 // ship attempts that failed after retry policy
	LastShipNanos  int64  // duration of the most recent object copy
}

// Shipper drains one volume's commit feed into the replica store.
type Shipper struct {
	cfg     Config
	ctx     context.Context
	primary objstore.Store
	volume  string

	quit     chan struct{}
	done     chan struct{}
	draining chan struct{}
	attached chan struct{}

	mu    sync.Mutex //lsvd:lock replica.mu
	stats Stats
}

// drainAttempts bounds per-object retries once a clean Close has been
// requested: a dead replica backend must not wedge volume shutdown.
// The replica simply stays at its last consistent watermark.
const drainAttempts = 3

// Start attaches a shipper to the volume and begins replication.
func Start(ctx context.Context, cfg Config) *Shipper {
	s := &Shipper{
		cfg:      cfg,
		ctx:      ctx,
		primary:  cfg.Backend.ObjectStore(),
		volume:   cfg.Backend.Volume(),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		draining: make(chan struct{}),
		attached: make(chan struct{}),
	}
	invariant.Go("replica.shipper", s.run)
	return s
}

func (s *Shipper) run() {
	defer close(s.done)
	backlog := s.cfg.Backend.ShipAttach()
	// Close/Abort wait for this before calling ShipClose: ShipAttach
	// re-arms the feed, so a close racing ahead of it would be undone
	// and the drain wait would never end.
	close(s.attached)
	if !s.processBatch(backlog, true) {
		return
	}
	for {
		evs, more := s.cfg.Backend.ShipNext()
		if !s.processBatch(evs, false) {
			return
		}
		if !more {
			return
		}
	}
}

// processBatch ships a slice of feed events in order. probe marks the
// attach backlog: objects already on the replica (an earlier session
// shipped them) are acked without copying, which is what makes
// re-attach incremental. Returns false when the shipper should stop.
func (s *Shipper) processBatch(evs []blockstore.ShipEvent, probe bool) bool {
	for _, ev := range evs {
		if s.stopped() {
			return false
		}
		if ev.IsSuper() {
			s.shipSuper()
			continue
		}
		if probe {
			// Presence alone is not proof of a durable copy: a shipper
			// killed between a torn PUT (the objstore fault model leaves
			// prefix-torn objects) and its retry leaves a partial object
			// on the replica. ev.Bytes is the committed object's exact
			// backend size, so ack only on an exact match and re-ship
			// otherwise — the PUT overwrites the torn copy.
			if n, err := s.cfg.Replica.Size(s.ctx, ev.Name); err == nil && n == ev.Bytes {
				s.acked(ev)
				s.bump(func(st *Stats) { st.SkippedPresent++ })
				continue
			}
		}
		if !s.shipObject(ev) {
			return false
		}
	}
	return true
}

// shipObject copies one numbered object and acks it. It never acks an
// object it has not durably copied (or proven gone): on failure it
// backs off and retries, letting the lag grow until the bound
// escalates to destage backpressure — the RPO contract is "bounded or
// blocked", never "silently dropped". Only an explicit drain (clean
// Close with the replica down) abandons the attempt, leaving the
// watermark where it was.
func (s *Shipper) shipObject(ev blockstore.ShipEvent) bool {
	for attempt := 1; ; attempt++ {
		if s.stopped() {
			return false
		}
		err := s.copyObject(ev)
		if err == nil {
			s.acked(ev)
			return true
		}
		if errors.Is(err, objstore.ErrNotFound) {
			// Deleted at the primary before shipping. The watermark pin
			// prevents this for every object the feed publishes while
			// replication is armed, so this only covers streams whose
			// history predates Config.Replicated; the recovery rules
			// tolerate the hole exactly as they do for a GC'd object.
			s.acked(ev)
			s.bump(func(st *Stats) { st.SkippedGone++ })
			return true
		}
		s.bump(func(st *Stats) { st.Errors++ })
		if s.drainRequested() && attempt >= drainAttempts {
			return false
		}
		if !s.sleep(backoff(attempt)) {
			return false
		}
	}
}

// copyObject is one GET(primary) + PUT(replica) under a background
// gate slot.
func (s *Shipper) copyObject(ev blockstore.ShipEvent) error {
	s.cfg.Gate.AcquireBackground(s.cfg.GateID)
	defer s.cfg.Gate.ReleaseBackground(s.cfg.GateID)
	start := time.Now()
	data, err := s.primary.Get(s.ctx, ev.Name)
	if err != nil {
		return err
	}
	if err := s.cfg.Replica.Put(s.ctx, ev.Name, data); err != nil {
		return err
	}
	s.bump(func(st *Stats) {
		st.CopiedObjects++
		st.CopiedBytes += int64(len(data))
		st.LastShipNanos = time.Since(start).Nanoseconds()
	})
	return nil
}

// shipSuper refreshes the replica's superblock from the primary's LIVE
// super — feed super events are triggers, not payloads, so a burst of
// checkpoints collapses into one copy of the final state. The copy is
// applied only when the checkpoint it names is already on the replica
// (the feed orders the checkpoint's own event first, so in the steady
// state it is); otherwise the event is skipped and the checkpoint that
// eventually ships brings its own super event. Super failures are not
// retried here for the same reason: the replica merely stays on its
// previous — still consistent — superblock.
func (s *Shipper) shipSuper() {
	s.cfg.Gate.AcquireBackground(s.cfg.GateID)
	defer s.cfg.Gate.ReleaseBackground(s.cfg.GateID)
	raw, err := s.primary.Get(s.ctx, blockstore.SuperName(s.volume))
	if err != nil {
		s.bump(func(st *Stats) { st.Errors++ })
		return
	}
	info, err := blockstore.DecodeSuperInfo(raw)
	if err != nil {
		s.bump(func(st *Stats) { st.Errors++ })
		return
	}
	if info.LastCheckpoint != 0 {
		ckpt := blockstore.ObjName(s.volume, info.LastCheckpoint)
		if _, err := s.cfg.Replica.Size(s.ctx, ckpt); err != nil {
			s.bump(func(st *Stats) { st.SuperSkips++ })
			return
		}
	}
	if err := s.cfg.Replica.Put(s.ctx, blockstore.SuperName(s.volume), raw); err != nil {
		s.bump(func(st *Stats) { st.Errors++ })
		return
	}
	s.bump(func(st *Stats) { st.SuperCopies++ })
}

// OverBound reports whether the replication lag currently exceeds the
// configured RPO bound. The destage loop polls this to decide whether
// to admit more foreground work.
func (s *Shipper) OverBound() bool {
	if s.cfg.MaxLagObjects <= 0 {
		return false
	}
	objs, _ := s.cfg.Backend.ShipLag()
	return objs > s.cfg.MaxLagObjects
}

// Stats returns cumulative progress plus the live lag.
func (s *Shipper) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.ShippedSeq = s.cfg.Backend.ShippedSeq()
	st.LagObjects, st.LagBytes = s.cfg.Backend.ShipLag()
	if rt, ok := s.cfg.Replica.(*objstore.Retrier); ok {
		st.Retries = rt.Retries()
	}
	return st
}

// Close drains the feed — every already-committed event ships — and
// stops the shipper. If the replica backend is unreachable, each
// remaining object gets drainAttempts tries before the drain is
// abandoned with the watermark (and the replica) at the last
// consistent state.
func (s *Shipper) Close() {
	close(s.draining)
	<-s.attached
	s.cfg.Backend.ShipClose(true)
	<-s.done
}

// Abort stops the shipper immediately, dropping queued feed events
// (crash modeling — the replica stays a consistent prefix).
func (s *Shipper) Abort() {
	close(s.quit)
	<-s.attached
	s.cfg.Backend.ShipClose(false)
	<-s.done
}

// acked advances the blockstore's shipped watermark for ev and fires
// the owner's wake hook — the lag just shrank, so writers stalled on
// the RPO bound should re-check it.
func (s *Shipper) acked(ev blockstore.ShipEvent) {
	s.cfg.Backend.ShipAck(ev)
	if s.cfg.OnAck != nil {
		s.cfg.OnAck()
	}
}

func (s *Shipper) stopped() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

func (s *Shipper) drainRequested() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// sleep waits d on the replica store's clock, or until Abort; returns
// false when aborted.
func (s *Shipper) sleep(d time.Duration) bool {
	wake, stop := objstore.After(objstore.ClockOf(s.cfg.Replica), "ship-backoff", d)
	defer stop()
	select {
	case <-s.quit:
		return false
	case <-wake:
		return true
	}
}

func (s *Shipper) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// backoff is the per-object retry schedule: exponential from 1ms,
// capped at 100ms — long enough to ride out a fault burst, short
// enough that the lag bound reacts promptly once the backend heals.
func backoff(attempt int) time.Duration {
	// Clamp the exponent before shifting: attempt grows without bound
	// during a long outage, and 1ms << 44+ overflows int64 to a
	// negative (then zero) duration, which would bypass the cap below
	// and turn the retry loop into a busy-spin.
	if attempt > 8 {
		return 100 * time.Millisecond
	}
	d := time.Millisecond << uint(attempt-1)
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}
