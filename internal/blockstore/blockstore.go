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
	// no collector is started and only RunGC collects.
	GCLowWater, GCHighWater float64
	// CheckpointEvery writes a map checkpoint after this many sealed
	// objects. Default 32.
	CheckpointEvery int
	// DefragHoleSectors plugs vLBA holes up to this size during GC by
	// copying extra data, reducing map fragmentation (§4.6). 0 = off.
	DefragHoleSectors uint32
	// GCWAFTarget bounds the paced service's write amplification:
	// total backend payload volume (foreground + GC copies) is held at
	// or below GCWAFTarget × foreground volume, enforced by a token
	// bucket refilled as foreground commits land (an idle trickle keeps
	// quiet volumes converging to the watermark). Default 2.0; < 0
	// disables pacing (the service copies as fast as it can).
	GCWAFTarget float64
	// GCBackoff, when set, is polled by the paced service between copy
	// batches; while it returns true (foreground destage under
	// pressure) the service defers copying even with budget available.
	// It is invoked with the store lock held and must not call back
	// into the Store.
	GCBackoff func() bool
	// NoCoalesce disables intra-batch write coalescing (Table 5's
	// "no merge" mode).
	NoCoalesce bool
	// FetchFromCache, when set, lets the GC read live data from the
	// local cache instead of the backend (§3.5). It returns true if it
	// filled buf for ext. It is invoked with the store lock held and
	// must not call back into the Store.
	FetchFromCache func(ext block.Extent, buf []byte) bool
	// OnDestage is called when client writes up to writeSeq become
	// durable in the backend. It runs WITHOUT the store lock, possibly
	// concurrently and with non-monotonic watermarks when several
	// commits race; callees must treat writeSeq as a high-water mark
	// (keep the max), which writecache.SetDestaged does.
	OnDestage func(writeSeq uint64)
	// UploadDepth is the depth of the upload pipeline (upload.go): sealed
	// objects are PUT by up to UploadDepth concurrent uploads while the
	// next batch fills; map/watermark commit stays strictly in sequence
	// order. Default 4.
	UploadDepth int
	// Retry is the backend retry policy. setDefaults wraps Store in an
	// objstore.Retrier with it, so every backend operation — reads, GC
	// fetches, recovery, uploads — retries transient failures under one
	// policy; the upload pipeline's per-fence resubmission budget is
	// Retry.Attempts() as well. MaxAttempts < 0 disables wrapping.
	Retry objstore.RetryPolicy
	// FetchDepth bounds the number of concurrent backend range GETs the
	// read-miss fetch path (FetchSpan) keeps in flight across all
	// readers. 0 leaves the pool unbounded; 1 serializes miss fetches.
	FetchDepth int

	// UploadGate, when non-nil, replaces the store-private upload
	// concurrency bound with a shared iosched.Gate: a multi-volume host
	// imposes ONE global PUT budget while the gate guarantees each
	// registered volume a minimum share of it, so a hot neighbor cannot
	// starve this volume's destage. UploadID names this store to the
	// gate (the host registers/unregisters it around the volume's
	// lifetime). UploadDepth still sizes the per-store derived limits
	// (upload maxInflight = 2*UploadDepth).
	UploadGate *iosched.Gate
	UploadID   string

	// FetchSem, when non-nil, replaces the store-private fetch
	// semaphore with a shared one: one global budget of concurrent
	// miss-path range GETs across every volume on the backend session.
	// Capacity is the channel's; FetchDepth still gates whether the
	// bound applies at all.
	FetchSem chan struct{}

	// Replicated marks the volume as having an asynchronous replica: a
	// shipper (internal/replica) attaches via ShipAttach and drains the
	// commit feed (ship.go). The flag also arms the shipped-watermark
	// pin in the reaper (pinnedLocked), so deferred deletions wait for
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
	if c.GCWAFTarget == 0 {
		c.GCWAFTarget = 2.0
	}
	if c.UploadDepth <= 0 {
		c.UploadDepth = 4
	}
	if c.Retry.MaxAttempts >= 0 && c.Store != nil {
		if _, ok := c.Store.(*objstore.Retrier); !ok {
			c.Store = objstore.NewRetrier(c.Store, c.Retry)
		}
	}
}

// objInfo tracks one backend object.
type objInfo struct {
	seq         uint32
	typ         journal.Type
	totalBytes  int64
	hdrSectors  uint32
	dataSectors uint32
	liveSectors uint32
	writeSeq    uint64
}

// snapshot is a named pointer into the object stream.
type snapshot struct {
	Name string
	Seq  uint32
}

// deferredDelete records a dead object awaiting deletion. GCSeq bounds
// the objects that displaced it, for the snapshot pin (pinnedLocked).
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
	GCVictims       uint64  // objects whose live data the GC relocated
	GCPaceWaits     uint64  // paced copy batches that waited for WAF budget
	GCBackoffs      uint64  // paced copy batches deferred to destage pressure
	GCYields        uint64  // paced passes cut short by a waiting fence
	GCBudgetBytes   int64   // current WAF token-bucket level
	GCWAFTarget     float64 // configured write-amplification budget
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
	OrphanObjects   int    // stranded objects whose deletion failed, awaiting sweep
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

	readOnly bool

	// A cleaned (dead) object's deferredDelete sits on exactly one of
	// three lists until its delete retires (reap.go): pending (dead,
	// waiting for the release rule, releaseLocked), deferred (released,
	// but pinned by a snapshot or the shipped watermark, or its delete
	// failed: every landed super and every watermark advance re-drives
	// it), reaping (backend delete in flight, off s.mu). Fences and Abort
	// wait for reaping to empty.
	snapshots []snapshot
	deferred  []deferredDelete
	pending   []deferredDelete
	reaping   map[uint32]deferredDelete // by Obj
	cleaned   map[uint32]bool           // dead objects awaiting deletion

	// durable is the last superblock known to have landed: the
	// checkpoint recovery loads and the snapshots it keeps mountable. The
	// release rule and the snapshot pins read it as well as lastCkpt and
	// snapshots, which run ahead of it while a super is owed.
	durable *superblock
	// ckpts lists the checkpoint objects in the table, ascending, for
	// the snapshot pins (snapPinsLocked).
	ckpts []uint32

	// Running utilization counters over own, non-cleaned data/GC
	// objects, so the per-seal GC trigger is O(1).
	utilLive, utilData uint64

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

	// orphans are stranded objects recovery could not delete; they are
	// swept before every subsequent object PUT so a stale object can
	// never become replayable again (see sweepOrphansLocked).
	orphans map[uint32]bool

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

	// Read-miss fetch machinery (fetch.go): in-flight/retained window
	// table and the bounded fetcher pool.
	fetchMu  sync.Mutex //lsvd:lock bs.fetchMu
	flights  map[fetchKey]*flight
	fetchSem chan struct{} // nil when FetchDepth == 0 (unbounded)

	// Replication change feed (ship.go), guarded by mu. shipCond (write
	// side of mu, like commitCond) wakes the shipper when events arrive
	// or the feed closes. shipUnacked is the published-but-unacked seq
	// set; shipMark caches the derived watermark (min(unacked)-1, or
	// shipMaxPub when the set is empty).
	shipCond     *sync.Cond
	shipFeed     []ShipEvent
	shipAttached bool
	shipClosed   bool
	shipMaxPub   uint32
	shipUnacked  map[uint32]struct{}
	shipMark     uint32
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
		cleaned:    make(map[uint32]bool),
		reaping:    make(map[uint32]deferredDelete),
		orphans:    make(map[uint32]bool),
		durable:    &superblock{},
	}
	s.batch = newBatch(cfg.NoCoalesce)
	s.commitCond = sync.NewCond(&s.mu)
	s.gcCond = sync.NewCond(&s.mu)
	s.shipCond = sync.NewCond(&s.mu)
	s.shipUnacked = make(map[uint32]struct{})
	s.gcGateID = cfg.UploadID + "#gc"
	if cfg.UploadGate != nil {
		s.gate, s.gateID = cfg.UploadGate, cfg.UploadID
	} else {
		s.gate = iosched.NewGate(cfg.UploadDepth)
		s.gate.Register(s.gateID) // sole user: full capacity is its share
	}
	if cfg.FetchSem != nil {
		s.fetchSem = cfg.FetchSem
	} else if cfg.FetchDepth > 0 {
		s.fetchSem = make(chan struct{}, cfg.FetchDepth)
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

// utilizationLocked is live/total over the volume's own data objects,
// excluding objects the GC has already cleaned (their deletion is
// merely deferred; counting them would make collection look futile and
// trigger runaway over-collection). The running counters cover EVERY
// own data/GC object — cleaned ones included — and the exclusion is
// computed here by walking the (checkpoint-bounded) cleaned set. A
// cleaned object therefore leaves the pool exactly when its delete
// retires, never earlier: an aborted pass, a crash before the delete,
// or a snapshot pin cannot strand the counters out of sync with the
// object table (the drift class the old subtract-at-clean-time scheme
// allowed).
//
//lsvd:requires bs.mu
func (s *Store) utilizationLocked() float64 {
	live, data := s.utilLive, s.utilData
	for seq := range s.cleaned {
		o := s.objects[seq]
		if o == nil || o.seq <= s.baseSeq ||
			(o.typ != journal.TypeData && o.typ != journal.TypeGC) {
			continue
		}
		live -= uint64(o.liveSectors)
		data -= uint64(o.dataSectors)
	}
	if data == 0 {
		return 1.0
	}
	return float64(live) / float64(data)
}

// utilCounted reports whether o participates in the utilization
// counters (own data/GC object, cleaned or not — cleaned objects are
// excluded on the fly by utilizationLocked and leave the counters at
// delete retirement).
func (s *Store) utilCounted(o *objInfo) bool {
	return o != nil && o.seq > s.baseSeq &&
		(o.typ == journal.TypeData || o.typ == journal.TypeGC)
}

// AuditUtilization recomputes the utilization counters from the object
// table and fails if they disagree with the running values, if a
// cleaned object is awaiting deletion without a pending, deferred or
// reaping entry to retire it, if a dead object was never recorded — an
// own data or GC object with no live sector, or (on a writable store) a
// checkpoint no chain walk reads — or if a writable store holds on
// s.pending an entry the release rule would release now. Tests call it
// after abort/crash/recovery interleavings to prove the accounting
// cannot drift and no garbage is forgotten.
func (s *Store) AuditUtilization() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var live, data uint64
	for _, o := range s.objects {
		if s.utilCounted(o) {
			live += uint64(o.liveSectors)
			data += uint64(o.dataSectors)
		}
	}
	if live != s.utilLive || data != s.utilData {
		return fmt.Errorf("blockstore: utilization counters drifted: have live/data %d/%d, objects sum to %d/%d",
			s.utilLive, s.utilData, live, data)
	}
	retiring := make(map[uint32]bool, len(s.deferred)+len(s.pending)+len(s.reaping))
	for _, d := range s.deferred {
		retiring[d.Obj] = true
	}
	for _, d := range s.pending {
		retiring[d.Obj] = true
	}
	for seq := range s.reaping {
		retiring[seq] = true
	}
	for seq := range s.cleaned {
		if s.objects[seq] != nil && !retiring[seq] {
			return fmt.Errorf("blockstore: cleaned object %d has no pending/deferred delete", seq)
		}
	}
	var keep uint32 // a read-only mount releases no checkpoint
	if !s.readOnly {
		keep = s.ckptKeepLocked()
	}
	for seq, o := range s.objects {
		if s.deadLocked(o, keep) && !retiring[seq] {
			return fmt.Errorf("blockstore: dead object %d (%v) was never released", seq, o.typ)
		}
	}
	if !s.readOnly {
		for _, d := range s.pending {
			if d.Obj < s.durable.lastCkpt {
				return fmt.Errorf("blockstore: dead object %d lies below the named checkpoint %d and was never released", d.Obj, s.durable.lastCkpt)
			}
		}
	}
	return nil
}

// recomputeUtilLocked rebuilds the running counters from the table.
//
//lsvd:requires bs.mu
func (s *Store) recomputeUtilLocked() {
	s.utilLive, s.utilData = 0, 0
	for _, o := range s.objects {
		if s.utilCounted(o) {
			s.utilLive += uint64(o.liveSectors)
			s.utilData += uint64(o.dataSectors)
		}
	}
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
		GCYields: s.stats.gcYields, GCBudgetBytes: s.gcBudget,
		GCWAFTarget: s.cfg.GCWAFTarget, ObjectsDeleted: s.stats.objectsDeleted,
		Checkpoints: s.stats.checkpoints, DurableWriteSeq: s.durableWriteSeq,
		PendingBatch:    s.batch.fill + s.inflightBytes,
		InflightObjects: len(s.inflight), UploadRetries: s.stats.uploadRetries,
		SealStalls:      s.stats.sealStalls,
		DeferredDeletes: len(s.deferred) + len(s.pending) + len(s.reaping),
		OrphanObjects:   len(s.orphans),
		ShippedSeq:      s.shipMark,
		ShipLagObjects:  len(s.shipUnacked),
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
		if s.utilCounted(o) {
			s.utilLive -= uint64(dec)
			if o.liveSectors == 0 {
				s.diedLocked(o, by)
			}
		}
	}
}

// diedLocked records the death of an own data or GC object whose live
// count is zero: it waits on s.pending for the release rule
// (releaseLocked). by, its GCSeq for the snapshot pin, is the object
// whose install killed it, or a sequence number no lower.
//
//lsvd:requires bs.mu
func (s *Store) diedLocked(o *objInfo, by uint32) {
	if s.cleaned[o.seq] {
		return
	}
	s.cleaned[o.seq] = true
	s.pending = append(s.pending, deferredDelete{Obj: o.seq, GCSeq: by})
}

// releaseLocked is the release rule, the one place it is written: it
// takes off s.pending, and returns for the reaper, every dead object
// below the checkpoint the durable superblock names. Recovery loads
// that checkpoint and replays only the objects after it, so such an
// object is read through the checkpoint's map alone; objects commit in
// sequence order, so every install that killed it lies in the prefix
// every recovery replays. The rest wait: an object in the replay suffix
// until a super names a newer checkpoint. A read-only store releases
// nothing.
//
// Callers hand the result to the reaper before they drop s.mu. They
// are every place the rule's answer can change: the commit walk, a GC
// pass's victim, a landed super and open. One call is one pass over
// s.pending, which holds only what died since the named checkpoint.
//
//lsvd:requires bs.mu
func (s *Store) releaseLocked() []deferredDelete {
	if s.readOnly || len(s.pending) == 0 {
		return nil
	}
	var out []deferredDelete
	waiting := s.pending[:0]
	for _, d := range s.pending {
		if d.Obj < s.durable.lastCkpt {
			out = append(out, d)
		} else {
			waiting = append(waiting, d)
		}
	}
	s.pending = waiting
	return out
}

// ckptKeepLocked is the oldest checkpoint an OpenAt chain walk reads.
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

// sweepDeadLocked is one pass over the table, for open: it records on
// s.pending every dead object nothing has recorded yet, for the release
// rule that follows — a death a crash interrupted before any checkpoint
// listed it, and the checkpoints the named one supersedes. In the live
// path data and GC objects die as they are displaced, and a landed super
// needs only supersededLocked.
//
//lsvd:requires bs.mu
func (s *Store) sweepDeadLocked() {
	for _, o := range s.objects {
		if s.utilCounted(o) && o.liveSectors == 0 {
			s.diedLocked(o, s.nextSeq-1)
		}
	}
	s.supersededLocked()
}

// supersededLocked records on s.pending every own checkpoint no chain
// walk reads any more (deadLocked), found through the checkpoint index:
// its prefix below ckptKeepLocked, which holds only what is not yet
// deleted.
//
//lsvd:requires bs.mu
func (s *Store) supersededLocked() {
	keep := s.ckptKeepLocked()
	for _, seq := range s.ckpts {
		if seq >= keep {
			return
		}
		if seq > s.baseSeq && !s.cleaned[seq] {
			s.cleaned[seq] = true
			s.pending = append(s.pending, deferredDelete{Obj: seq, GCSeq: seq})
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
