// Package blockstore implements LSVD's log-structured block store
// (paper §3.1, Fig 3/4): client writes are batched, coalesced within
// the batch, and stored as an ordered stream of immutable numbered
// objects on an S3-like store. An in-memory extent map locates the
// current copy of every virtual-disk block; object headers carry the
// extent lists needed to rebuild the map; periodic checkpoint objects
// bound recovery replay (§3.3); greedy garbage collection reclaims
// overwritten space (§3.5); and the object stream naturally supports
// snapshots and clones (§3.6) and asynchronous replication (§4.8).
package blockstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/iosched"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// trimMarker distinguishes trim extents in object headers.
const trimMarker = ^uint64(0)

// ErrReadOnly is returned for mutations on snapshot mounts.
var ErrReadOnly = errors.New("blockstore: volume is read-only")

// DefaultUploadDepth is the upload depth of a store, or a disk, whose
// options leave it zero and give it no gate.
const DefaultUploadDepth = 4

// Config configures a block store volume.
type Config struct {
	// Volume is the object name prefix; objects are named
	// "<volume>.<8-digit-seq>" so lexical order is log order.
	Volume string
	// Store is the backend.
	Store objstore.Store //lsvd:classifies-errors
	// VolSectors is the virtual disk size in sectors (Create only).
	VolSectors block.LBA
	// BatchBytes is the write batch / object payload target (paper:
	// 8 or 32 MiB). Default 8 MiB.
	BatchBytes int64
	// GCLowWater wakes the paced background collector (gc.go) when
	// live/total falls below it; GCHighWater stops a pass, RunGC's
	// included. Paper: 0.70 / 0.75. GCLowWater 0 disables automatic GC:
	// no collector is started and only RunGC collects. (A disk's 0
	// means 0.70; it hands a disabled collector down as 0.)
	GCLowWater, GCHighWater float64
	// CheckpointEvery writes a map checkpoint after this many sealed
	// objects. Default 32.
	CheckpointEvery int
	// DefragHoleSectors plugs vLBA holes up to this size during GC by
	// copying extra data, reducing map fragmentation (§4.6). 0 = off.
	DefragHoleSectors uint32
	// GCBackoff, when set, is polled by the paced service between copy
	// batches; while it returns true (foreground destage under
	// pressure) the service defers copying even with budget available.
	// It is invoked without the store lock.
	GCBackoff func() bool
	// NoCoalesce disables intra-batch write coalescing (Table 5's
	// "no merge" mode).
	NoCoalesce bool
	// FetchFromCache, when set, lets the GC read live data from the
	// local cache instead of the backend (§3.5). It returns true if it
	// filled buf for ext. It is invoked without the store lock.
	FetchFromCache func(ext block.Extent, buf []byte) bool
	// OnDestage is called when client writes up to writeSeq become
	// durable in the backend. It runs WITHOUT the store lock, possibly
	// concurrently and with non-monotonic watermarks when several
	// commits race; callees must treat writeSeq as a high-water mark
	// (keep the max), which writecache.SetDestaged does.
	OnDestage func(writeSeq uint64)
	// UploadDepth is the depth of the upload pipeline (upload.go): up to
	// 2×UploadDepth sealed objects are in flight while the next batch
	// fills, PUT as the upload gate grants slots; map/watermark commit
	// stays strictly in sequence order. 0 takes the capacity of
	// UploadGate, the gate that enforces it, or, for a store given none,
	// DefaultUploadDepth, which then sizes its private gate.
	UploadDepth int
	// UploadGate, when non-nil, replaces the store-private upload gate
	// with a shared iosched.Gate: a multi-volume host imposes ONE global
	// PUT budget while the gate guarantees each registered volume a
	// minimum share of it, so a hot neighbor cannot starve this volume's
	// destage. UploadID names this store to the gate (the host
	// registers/unregisters it around the volume's lifetime).
	UploadGate *iosched.Gate
	UploadID   string

	// FetchSem, when non-nil, bounds the read-miss fetch path
	// (FetchSpan): one budget of concurrent range GETs, the channel's
	// capacity, shared by every store handed the same channel. A store
	// without one issues its miss GETs unbounded.
	FetchSem chan struct{}

	// Replicated marks the volume as having an asynchronous replica: a
	// shipper (internal/replica) attaches via ShipAttach and drains the
	// commit feed (ship.go). The flag also arms the shipped-watermark
	// pin in the reaper (pinnedLocked), so released rows stay held for
	// the replica even across sessions where the shipper has not
	// attached yet.
	Replicated bool
}

func (c *Config) setDefaults() {
	if c.BatchBytes == 0 {
		c.BatchBytes = 8 * block.MiB
	}
	if c.GCLowWater > 0 && c.GCHighWater < c.GCLowWater {
		c.GCHighWater = c.GCLowWater + 0.05
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 32
	}
	if c.UploadDepth <= 0 && c.UploadGate != nil {
		c.UploadDepth = c.UploadGate.Capacity()
	}
	if c.UploadDepth <= 0 {
		c.UploadDepth = DefaultUploadDepth
	}
}

// objInfo tracks one backend object: its row in the object table.
// state is its place in the object lifecycle (reap.go), written only by
// transition; killedBy bounds the objects whose installs killed it, for
// the snapshot pin (pinnedLocked); shipped records the shipper's ack
// (ship.go).
type objInfo struct {
	seq         uint32
	typ         journal.Type
	totalBytes  int64
	hdrSectors  uint32
	dataSectors uint32
	liveSectors uint32
	writeSeq    uint64

	state    objState
	killedBy uint32
	shipped  bool
}

// snapshot is a named pointer into the object stream.
type snapshot struct {
	Name string
	Seq  uint32
}

// deferredDelete is one entry of a checkpoint's deferred list: a row
// that is not live, and its killedBy.
type deferredDelete struct {
	Obj   uint32
	GCSeq uint32
}

// Stats reports block store activity.
type Stats struct {
	Objects         int
	NextSeq         uint32
	LiveSectors     uint64
	DataSectors     uint64
	MapExtents      int
	BytesAppended   uint64 // client bytes in
	BytesPut        uint64 // object payload bytes out (incl. GC)
	BytesCoalesced  uint64 // client bytes eliminated by batch merge
	GCBytesCopied   uint64
	GCRuns          uint64
	GCVictims       uint64 // objects whose live data the GC relocated
	GCPaceWaits     uint64 // paced copy batches that waited for WAF budget
	GCBackoffs      uint64 // paced copy batches deferred to destage pressure
	GCYields        uint64 // paced passes cut short by a waiting fence
	GCBudgetBytes   int64  // current WAF token-bucket level
	ObjectsDeleted  uint64
	Checkpoints     uint64
	DurableWriteSeq uint64
	PendingBatch    int64 // batched + in-flight client bytes not yet committed
	InflightObjects int   // sealed objects whose upload/commit is pending
	UploadRetries   uint64
	SealStalls      uint64 // seals that blocked on a full upload pipeline
	UploadGrants    uint64 // upload slots granted within this volume's gate share
	UploadBorrows   uint64 // upload slots borrowed beyond the share (idle capacity)
	UploadWaits     uint64 // upload slot acquisitions that blocked on the gate
	DeferredDeletes int
	BackendRetries  uint64 // transient backend failures absorbed by the Retrier
	FetchGETs       uint64 // backend range GETs issued by the read-miss fetch path
	FetchesDeduped  uint64 // span fetches served by joining another reader's in-flight GET
	RunsCoalesced   uint64 // extra map runs folded into an existing span GET
	HeaderFetches   uint64 // object header fetches that went to the backend

	// Replication feed state (ship.go); all zero unless Replicated.
	ShippedSeq     uint32 // shipped watermark (contiguously replicated prefix)
	ShipLagObjects int    // committed objects not yet acked by the shipper
	ShipLagBytes   int64  // their payload bytes — the measured RPO in bytes

	// Recovery/open telemetry, fixed at Open time (zero for Create).
	RecoveredObjects int    // objects replayed after the checkpoint at open
	RecoveryGETs     uint64 // backend read ops (Get/GetRange/Size/List) open issued
	OpenNanos        int64  // wall time of the last open/recovery
	// LastCkptStallNanos is the s.mu hold time of the most recent
	// checkpoint snapshot — the only part of a checkpoint foreground
	// writes can ever stall behind.
	LastCkptStallNanos int64
}

// Store is a log-structured block store for one volume.
//
// mu is an RWMutex: mutators and multi-step invariants take the write
// lock exactly as before (commitCond sits on its write side), while
// pure readers — map lookups, name resolution, stats — share the read
// lock so concurrent readers never serialize behind each other or
// behind a backend fetch (no backend I/O happens under mu at all; see
// fetch.go and the GC lock-drop protocol in gc.go).
type Store struct {
	mu  sync.RWMutex //lsvd:lock bs.mu
	cfg Config
	ctx context.Context

	volSectors block.LBA
	m          *extmap.Map
	objects    map[uint32]*objInfo
	nextSeq    uint32
	lastCkpt   uint32

	baseVol string
	baseSeq uint32

	// epoch is this session's, stamped in the header of every object it
	// writes (journal.Follows). Set before the store is published and
	// never changed, so it is read without s.mu.
	epoch uint32

	readOnly bool

	snapshots []snapshot

	// toReap lists the rows released into stateReaping under this hold of
	// s.mu, for the caller to delete once it drops the lock (reap.go); it
	// is empty whenever s.mu is free.
	toReap []uint32

	// durable is the last superblock known to have landed: the
	// checkpoint recovery loads and the snapshots it keeps mountable. The
	// release rule and the snapshot pins read it as well as lastCkpt and
	// snapshots, which run ahead of it while a super is owed.
	durable *superblock
	// ckpts lists the checkpoint objects in the table, ascending, for
	// the snapshot pins (snapPinsLocked).
	ckpts []uint32

	// count is the running tally of the table (tallyLocked): the
	// utilization sums over live own data/GC rows, so the per-seal GC
	// trigger is O(1), and the rows in each state.
	count tally

	batch *batch

	// Upload pipeline state (upload.go): sealed objects awaiting
	// build/upload/commit in sequence order, with a gate bounding
	// concurrent build+PUTs and a condition variable (on mu) signalled
	// at every upload completion.
	inflight      []*inflightObj
	inflightBytes int64
	gate          *iosched.Gate
	gateID        string
	commitCond    *sync.Cond
	aborting      bool
	gcBusy        bool  // a GC pass (service or RunGC) holds the single slot
	asyncErr      error // sticky commit-side (GC) failure, surfaced at the next fence

	// Background GC service state (gc.go): the service goroutine
	// sleeps on gcCond (same mutex as commitCond) and is woken by
	// foreground commits (budget refills / utilization drops),
	// idle-trickle timers, StopGC and Abort. fenceWaiters counts
	// waiters in waitInflightLocked/RunGC/Abort so a paced pass
	// yields the gcBusy slot promptly instead of stalling a fence on a
	// budget wait.
	gcCond       *sync.Cond
	gcStop       bool
	gcDone       chan struct{} // non-nil while the service goroutine runs
	gcBudget     int64         // WAF token bucket, payload bytes the GC may copy
	gcRefills    uint64        // refill epoch, for idle-grant detection
	fenceWaiters int
	gcGateID     string // borrower-only gate identity for GC backend I/O

	durableWriteSeq uint64
	sinceCkpt       int

	// Checkpoint machinery (checkpoint.go). ckptQueued: a checkpoint
	// marker sits in the upload pipeline or is owed its superblock.
	// superOwed is the marker whose checkpoint object has landed and
	// whose super has not.
	// ckptBuf is the payload encode buffer reused across checkpoints.
	ckptQueued bool
	superOwed  *inflightObj
	ckptBuf    []byte

	hdrCache map[uint32]*hdrEntry

	// Header fetch singleflight (read.go): concurrent misses on the
	// same object's header share one backend fetch, issued without mu.
	hdrMu      sync.Mutex //lsvd:lock bs.hdrMu
	hdrFlights map[uint32]*hdrFlight

	// Read-miss fetch machinery (fetch.go): the in-flight/retained
	// window table; Config.FetchSem bounds its GETs.
	fetchMu sync.Mutex //lsvd:lock bs.fetchMu
	flights map[fetchKey]*flight

	// Replication change feed (ship.go), guarded by mu. shipCond (write
	// side of mu, like commitCond) wakes the shipper when events arrive
	// or the feed closes. The rows published up to shipMaxPub and not
	// yet shipped are the lag, shipLag rows of shipLagBytes; shipMark is
	// the watermark.
	shipCond     *sync.Cond
	shipFeed     []ShipEvent
	shipAttached bool
	shipClosed   bool
	shipMaxPub   uint32
	shipMark     uint32
	shipLag      int
	shipLagBytes int64

	stats struct {
		bytesAppended, bytesPut, bytesCoalesced uint64
		gcBytesCopied, gcRuns, objectsDeleted   uint64
		checkpoints, uploadRetries, sealStalls  uint64
		gcVictims, gcPaceWaits, gcBackoffs      uint64
		gcYields                                uint64
		recoveredObjects                        int
		recoveryGETs                            uint64
		openNanos                               int64
		lastCkptStallNanos                      int64
	}

	// Read-path counters are atomics: the fetch path never holds mu.
	fetchStats struct {
		gets, deduped, coalesced, headerFetches atomic.Uint64
	}
}

type hdrEntry struct {
	extents    []journal.ExtentEntry
	hdrSectors uint32
}

func objName(vol string, seq uint32) string { return fmt.Sprintf("%s.%08d", vol, seq) }

func superName(vol string) string { return vol + ".super" }

// name returns the object name for seq, resolving clone-base objects
// to the base volume's prefix (§3.6).
func (s *Store) name(seq uint32) string {
	if s.baseVol != "" && seq <= s.baseSeq {
		return objName(s.baseVol, seq)
	}
	return objName(s.cfg.Volume, seq)
}

// parseSeq extracts the sequence number from an object name with the
// given volume prefix; ok is false for non-sequence names (super etc).
func parseSeq(vol, name string) (uint32, bool) {
	suffix, found := strings.CutPrefix(name, vol+".")
	if !found || len(suffix) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(suffix, 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// Create initializes a new empty volume: a superblock and an initial
// checkpoint object.
func Create(ctx context.Context, cfg Config) (*Store, error) {
	cfg.setDefaults()
	if cfg.VolSectors == 0 {
		return nil, fmt.Errorf("blockstore: zero volume size")
	}
	if err := requireAbsent(ctx, cfg, cfg.Volume); err != nil {
		return nil, err
	}
	s := newStore(ctx, cfg)
	s.volSectors = cfg.VolSectors
	s.nextSeq = 1
	s.mu.Lock()
	err := s.checkpointFenceLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.startGCService()
	return s, nil
}

// requireAbsent is the probe Create and Clone run before writing a new
// volume's first superblock. Only ErrNotFound means the name is free: a
// probe that failed any other way says nothing, and treating it as
// "absent" would overwrite an existing volume's super.
func requireAbsent(ctx context.Context, cfg Config, vol string) error {
	_, err := cfg.Store.Get(ctx, superName(vol))
	switch {
	case err == nil:
		return fmt.Errorf("blockstore: volume %q already exists", vol)
	case errors.Is(err, objstore.ErrNotFound):
		return nil
	}
	return fmt.Errorf("blockstore: probing for volume %q: %w", vol, err)
}

func newStore(ctx context.Context, cfg Config) *Store {
	s := &Store{
		cfg:        cfg,
		ctx:        ctx,
		m:          extmap.New(),
		objects:    make(map[uint32]*objInfo),
		hdrCache:   make(map[uint32]*hdrEntry),
		hdrFlights: make(map[uint32]*hdrFlight),
		flights:    make(map[fetchKey]*flight),
		durable:    &superblock{},
	}
	s.batch = newBatch(cfg.NoCoalesce)
	s.commitCond = sync.NewCond(&s.mu)
	s.gcCond = sync.NewCond(&s.mu)
	s.shipCond = sync.NewCond(&s.mu)
	s.gcGateID = cfg.UploadID + "#gc"
	if cfg.UploadGate != nil {
		s.gate, s.gateID = cfg.UploadGate, cfg.UploadID
	} else {
		s.gate = iosched.NewGate(cfg.UploadDepth)
		s.gate.Register(s.gateID) // sole user: full capacity is its share
	}
	return s
}

// PipelineBytes is the most client data the write pipeline holds
// uncommitted at once: the open batch plus the 2×UploadDepth sealed
// objects reserveUploadSlotLocked admits.
func (s *Store) PipelineBytes() int64 {
	return int64(2*s.cfg.UploadDepth+1) * s.cfg.BatchBytes
}

// VolSectors returns the virtual disk size in sectors.
func (s *Store) VolSectors() block.LBA { return s.volSectors }

// DurableWriteSeq returns the newest client write sequence durable in
// the backend (the destage watermark).
func (s *Store) DurableWriteSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.durableWriteSeq
}

// Utilization returns live/total over the volume's own data objects;
// 1.0 when empty.
func (s *Store) Utilization() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.utilizationLocked()
}

// utilizationLocked is live/total over the volume's own live data and
// GC rows. A row that has died is out of the pool (transition): its
// deletion is merely owed, and counting it would make collection look
// futile and trigger runaway over-collection.
//
//lsvd:requires bs.mu
func (s *Store) utilizationLocked() float64 {
	if s.count.data == 0 {
		return 1.0
	}
	return float64(s.count.live) / float64(s.count.data)
}

// counted reports whether o is in the utilization counters: an own,
// live data or GC row.
func (s *Store) counted(o *objInfo) bool {
	return o.state == stateLive && o.seq > s.baseSeq &&
		(o.typ == journal.TypeData || o.typ == journal.TypeGC)
}

// tally is what the table sums to: live and data sectors over the
// counted rows, and the number of rows in each state.
type tally struct {
	live, data uint64
	rows       [numStates]int
}

// owed is the number of rows whose deletion is owed: every row that is
// not live.
func (t *tally) owed() int { return t.rows[stateDead] + t.rows[stateHeld] + t.rows[stateReaping] }

// tallyLocked recounts the table.
//
//lsvd:requires bs.mu
func (s *Store) tallyLocked() tally {
	var t tally
	for _, o := range s.objects {
		if s.counted(o) {
			t.live += uint64(o.liveSectors)
			t.data += uint64(o.dataSectors)
		}
		t.rows[o.state]++
	}
	return t
}

// AuditUtilization recounts the table and fails if the running tally
// disagrees with it, if a row is still live that the release rule counts
// as garbage — an own data or GC object with no live sector, or (on a
// writable store) a checkpoint no chain walk reads — if a writable store
// holds a dead row the release rule would release now, or if a release
// was left queued with s.mu free. Tests call it after
// abort/crash/recovery interleavings to prove the accounting cannot
// drift and no garbage is forgotten.
func (s *Store) AuditUtilization() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.tallyLocked(); t != s.count {
		return fmt.Errorf("blockstore: table tally drifted: have %+v, rows sum to %+v", s.count, t)
	}
	if len(s.toReap) != 0 {
		return fmt.Errorf("blockstore: releases %v queued with the store lock free", s.toReap)
	}
	var keep uint32 // a read-only mount releases no checkpoint
	if !s.readOnly {
		keep = s.ckptKeepLocked()
	}
	for seq, o := range s.objects {
		if o.state == stateLive && s.deadLocked(o, keep) {
			return fmt.Errorf("blockstore: dead object %d (%v) was never recorded", seq, o.typ)
		}
		if !s.readOnly && o.state == stateDead && seq < s.durable.lastCkpt {
			return fmt.Errorf("blockstore: dead object %d lies below the named checkpoint %d and was never released", seq, s.durable.lastCkpt)
		}
	}
	return nil
}

// Stats returns a statistics snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Objects: len(s.objects), NextSeq: s.nextSeq, MapExtents: s.m.Len(),
		BytesAppended: s.stats.bytesAppended, BytesPut: s.stats.bytesPut,
		BytesCoalesced: s.stats.bytesCoalesced, GCBytesCopied: s.stats.gcBytesCopied,
		GCRuns: s.stats.gcRuns, GCVictims: s.stats.gcVictims,
		GCPaceWaits: s.stats.gcPaceWaits, GCBackoffs: s.stats.gcBackoffs,
		GCYields: s.stats.gcYields, GCBudgetBytes: s.gcBudget, ObjectsDeleted: s.stats.objectsDeleted,
		Checkpoints: s.stats.checkpoints, DurableWriteSeq: s.durableWriteSeq,
		PendingBatch:    s.batch.fill + s.inflightBytes,
		InflightObjects: len(s.inflight), UploadRetries: s.stats.uploadRetries,
		SealStalls:      s.stats.sealStalls,
		DeferredDeletes: s.count.owed(),
		ShippedSeq:      s.shipMark,
		ShipLagObjects:  s.shipLag,
		ShipLagBytes:    s.shipLagBytes,
		FetchGETs:       s.fetchStats.gets.Load(),
		FetchesDeduped:  s.fetchStats.deduped.Load(),
		RunsCoalesced:   s.fetchStats.coalesced.Load(),
		HeaderFetches:   s.fetchStats.headerFetches.Load(),

		RecoveredObjects:   s.stats.recoveredObjects,
		RecoveryGETs:       s.stats.recoveryGETs,
		OpenNanos:          s.stats.openNanos,
		LastCkptStallNanos: s.stats.lastCkptStallNanos,
	}
	gs := s.gate.Stats(s.gateID)
	st.UploadGrants, st.UploadBorrows, st.UploadWaits = gs.Grants, gs.Borrows, gs.Waits
	// The store chain may nest a namespace wrapper (host volumes are
	// Retrier(Prefixed(raw)) or Prefixed(Retrier(raw))): walk it to
	// find the Retrier.
	for inner := s.cfg.Store; inner != nil; {
		switch v := inner.(type) {
		case *objstore.Retrier:
			st.BackendRetries = v.Retries()
			inner = nil
		case *objstore.Prefixed:
			inner = v.Inner()
		default:
			inner = nil
		}
	}
	for _, o := range s.objects {
		if o.typ == journal.TypeData || o.typ == journal.TypeGC {
			st.LiveSectors += uint64(o.liveSectors)
			st.DataSectors += uint64(o.dataSectors)
		}
	}
	return st
}

// applyDisplaced decrements live counters for the map runs displaced by
// installing object by; an own object that loses its last live sector
// dies (diedLocked).
//
//lsvd:requires bs.mu
func (s *Store) applyDisplaced(displaced []extmap.Run, by uint32) {
	for _, r := range displaced {
		o := s.objects[r.Target.Obj]
		if o == nil {
			continue
		}
		dec := r.Sectors
		if o.liveSectors < dec {
			dec = o.liveSectors
		}
		o.liveSectors -= dec
		if s.counted(o) {
			s.count.live -= uint64(dec)
			if o.liveSectors == 0 {
				s.diedLocked(o, by)
			}
		}
	}
}

// ckptKeepLocked is the oldest checkpoint a snapshot mount's walk reads.
// The walk starts at the named checkpoint and follows prevCkpt down to
// the newest checkpoint at or below the sequence it mounts, so with no
// snapshot pinned only the named checkpoint is read, and with snapshots
// every checkpoint from the one the oldest snapshot loads upward.
//
//lsvd:requires bs.mu
func (s *Store) ckptKeepLocked() uint32 {
	keep := s.durable.lastCkpt
	for _, p := range s.snapPinsLocked() {
		keep = min(keep, p.ckpt)
	}
	return keep
}

// snapPin is a snapshot whose mount the reaper keeps readable: its
// sequence number and the checkpoint the mount loads.
type snapPin struct{ seq, ckpt uint32 }

// snapPinsLocked returns a pin for every snapshot listed now or by the
// durable super: one DeleteSnapshot has dropped stays mountable until
// the super that drops it lands. A mount loads the newest checkpoint in
// the table at or below the snapshot's sequence number, or 0 if there
// is none. The cost is a binary search per snapshot.
//
//lsvd:requires bs.mu
func (s *Store) snapPinsLocked() []snapPin {
	var pins []snapPin
	for _, list := range [][]snapshot{s.snapshots, s.durable.snapshots} {
		for _, sn := range list {
			p := snapPin{seq: sn.Seq}
			if j, _ := slices.BinarySearch(s.ckpts, sn.Seq+1); j > 0 {
				p.ckpt = s.ckpts[j-1]
			}
			pins = append(pins, p)
		}
	}
	return pins
}

// indexCkpts rebuilds s.ckpts from the table, for recovery and Clone
// before the store is published; the live path adds each checkpoint as
// it lands (checkpointObjectDurableLocked) and drops it as it retires.
func (s *Store) indexCkpts() {
	s.ckpts = s.ckpts[:0]
	for seq, o := range s.objects {
		if o.typ == journal.TypeCheckpoint {
			s.ckpts = append(s.ckpts, seq)
		}
	}
	slices.Sort(s.ckpts)
}

// deadLocked reports whether the release rule counts o as garbage: an
// own data or GC object with no live sector, or an own checkpoint below
// keep (ckptKeepLocked) that no chain walk reads.
//
//lsvd:requires bs.mu
func (s *Store) deadLocked(o *objInfo, keep uint32) bool {
	if o.seq <= s.baseSeq {
		return false
	}
	switch o.typ {
	case journal.TypeData, journal.TypeGC:
		return o.liveSectors == 0
	case journal.TypeCheckpoint:
		return o.seq < keep
	}
	return false
}

// sweepDeadLocked is open's pass over the table: it kills every live
// row that is garbage — a death a crash interrupted before any
// checkpoint recorded it, and the checkpoints the named one supersedes —
// and then applies the release rule to the whole table (redriveLocked).
// In the live path data and GC objects die as they are displaced, and a
// landed super needs only supersededLocked.
//
//lsvd:requires bs.mu
func (s *Store) sweepDeadLocked() {
	for _, o := range s.objects {
		if s.counted(o) && o.liveSectors == 0 {
			s.diedLocked(o, s.nextSeq-1)
		}
	}
	s.supersededLocked()
	s.redriveLocked()
}

// supersededLocked kills every own checkpoint no chain walk reads any
// more (deadLocked), found through the checkpoint index: its prefix
// below ckptKeepLocked, which holds only what is not yet deleted.
//
//lsvd:requires bs.mu
func (s *Store) supersededLocked() {
	keep := s.ckptKeepLocked()
	for _, seq := range s.ckpts {
		if seq >= keep {
			return
		}
		if o := s.objects[seq]; seq > s.baseSeq && o.state == stateLive {
			s.diedLocked(o, seq)
		}
	}
}

// --- superblock ---

type superblock struct {
	volSectors block.LBA
	lastCkpt   uint32
	baseVol    string
	baseSeq    uint32
	snapshots  []snapshot
}

func encodeSuper(sb *superblock) ([]byte, error) {
	var w journal.Codec
	w.PutU64(uint64(sb.volSectors))
	w.PutU32(sb.lastCkpt)
	w.PutStr(sb.baseVol)
	w.PutU32(sb.baseSeq)
	w.PutU32(uint32(len(sb.snapshots)))
	for _, sn := range sb.snapshots {
		w.PutStr(sn.Name)
		w.PutU32(sn.Seq)
	}
	h := &journal.Header{Type: journal.TypeSuper, DataLen: uint64(len(w.Buf))}
	return journal.Encode(h, w.Buf, false)
}

func decodeSuper(raw []byte) (*superblock, error) {
	h, data, _, err := journal.Decode(raw, false)
	if err != nil {
		return nil, err
	}
	if h.Type != journal.TypeSuper {
		return nil, fmt.Errorf("blockstore: superblock object holds %v record", h.Type)
	}
	r := journal.Codec{Buf: data}
	sb := &superblock{}
	sb.volSectors = block.LBA(r.U64())
	sb.lastCkpt = r.U32()
	sb.baseVol = r.Str()
	sb.baseSeq = r.U32()
	n := int(r.U32())
	for i := 0; i < n && r.Err == nil; i++ {
		name := r.Str()
		seq := r.U32()
		sb.snapshots = append(sb.snapshots, snapshot{Name: name, Seq: seq})
	}
	if r.Err != nil {
		return nil, fmt.Errorf("blockstore: corrupt superblock: %w", r.Err)
	}
	return sb, nil
}

// SuperInfo is the decoded, tool-facing view of a volume superblock.
type SuperInfo struct {
	VolSectors     block.LBA
	LastCheckpoint uint32
	BaseVolume     string
	BaseSeq        uint32
	Snapshots      []SnapshotInfo
}

// DecodeSuperInfo parses a raw superblock object (for replication and
// admin tooling).
func DecodeSuperInfo(raw []byte) (*SuperInfo, error) {
	sb, err := decodeSuper(raw)
	if err != nil {
		return nil, err
	}
	info := &SuperInfo{
		VolSectors: sb.volSectors, LastCheckpoint: sb.lastCkpt,
		BaseVolume: sb.baseVol, BaseSeq: sb.baseSeq,
	}
	for _, sn := range sb.snapshots {
		info.Snapshots = append(info.Snapshots, SnapshotInfo{Name: sn.Name, Seq: sn.Seq})
	}
	return info, nil
}

// sortedSeqs returns the volume's own object sequence numbers present
// in names, ascending.
func sortedSeqs(vol string, names []string) []uint32 {
	var out []uint32
	for _, n := range names {
		if seq, ok := parseSeq(vol, n); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
