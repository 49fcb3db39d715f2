// Package core assembles the LSVD virtual disk (paper Fig 1): a
// log-structured write-back cache and a read cache on a local SSD, and
// a log-structured block store on an S3-like backend. It implements the
// three block-device operations — write, read, commit barrier (§3.2) —
// plus discard, and the crash-recovery orchestration of §3.3:
//
//   - Writes are logged to the cache SSD (acknowledged on log write),
//     then handed to a background destage pipeline that batches them
//     into numbered immutable objects and uploads those concurrently.
//   - Reads consult the write cache, then the read cache, then the
//     backend; backend misses prefetch temporally adjacent data into
//     the read cache. Reads run concurrently with each other and with
//     destage.
//   - A commit barrier is one cache-device flush.
//   - On open after a crash, the cache log is rewound to the last
//     backend object and the tail replayed, bringing the backend up to
//     date with every write the cache preserved; if the cache is lost
//     entirely, the recovered volume is a consistent prefix of
//     committed writes (prefix consistency, §3.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/invariant"
	"lsvd/internal/iosched"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/readcache"
	"lsvd/internal/replica"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
	"lsvd/internal/writecache"
)

// Options configures an LSVD disk: the host-owned half and the
// per-volume half, each declared once below. A multi-volume host
// supplies the first to every volume it opens; the single-volume
// constructors take both from the caller.
type Options struct {
	HostOptions
	VolumeOptions
}

// HostOptions is the host-owned half of Options: the shared hardware
// (cache SSD, backend session) and the global concurrency budgets a
// multi-volume host divides among its tenants. lsvd.HostOptions is this
// type, and host.New takes it.
type HostOptions struct {
	// Store is the S3-like backend.
	Store objstore.Store
	// Cache is the local SSD. It is statically partitioned: the first
	// WriteCacheFrac of it logs writes, the rest is read cache.
	Cache simdev.Device
	// MaxVolumes is the number of write-cache slots a host carves from
	// the SSD's WriteCacheFrac (default 8). It bounds how many volumes
	// the host can serve; the read-cache arena (the rest of the SSD) is
	// shared dynamically and needs no slots. A single-volume disk is the
	// one-slot layout and ignores it.
	MaxVolumes int
	// WriteCacheFrac is the fraction of the SSD used for the write
	// log. Default 0.2 (§3.1's sizing discussion). The experiments of
	// Fig 9–16 and the ablations table set 0.6.
	WriteCacheFrac float64

	// UploadDepth is the number of concurrent backend object PUTs the
	// destage pipeline keeps in flight: the capacity of the upload gate
	// (Resources.UploadGate) every PUT draws from. Default 4. On a host
	// the gate is host-wide. Map commit stays strictly in sequence order
	// regardless.
	UploadDepth int
	// FetchDepth is the number of concurrent backend range GETs the
	// read-miss path keeps in flight: the capacity of the fetch
	// semaphore (Resources.FetchSem), host-wide on a host, and the size
	// of each volume's fetcher pool. A single read's misses fan out
	// across it, adjacent misses in the same object coalesce into one
	// range GET, and concurrent readers missing on the same window share
	// a single GET. Default 8; 1 serializes all miss fetches.
	FetchDepth int
	// Retry is the backend retry policy (see objstore.RetryPolicy):
	// every backend operation retries transient failures with
	// exponential backoff under one per-op attempt budget. The zero
	// value selects the defaults; MaxAttempts < 0 disables retries.
	Retry objstore.RetryPolicy
}

// SetDefaults fills the zero-valued host-level knobs: every door, a
// host's and a single volume's, defaults them here.
func (o *HostOptions) SetDefaults() {
	if o.MaxVolumes == 0 {
		o.MaxVolumes = 8
	}
	if o.WriteCacheFrac == 0 {
		o.WriteCacheFrac = 0.2
	}
	if o.UploadDepth <= 0 {
		o.UploadDepth = blockstore.DefaultUploadDepth
	}
	if o.FetchDepth <= 0 {
		o.FetchDepth = 8
	}
}

// VolumeOptions is the per-volume half of Options: identity, geometry
// and data-path tuning that each volume chooses independently of its
// neighbors on the host.
type VolumeOptions struct {
	// Volume names the object stream on the backend.
	Volume string
	// VolBytes is the virtual disk size (Create only).
	VolBytes int64

	// BatchBytes is the backend object batch size (8–32 MiB in the
	// paper). Default 8 MiB, applied by the block store.
	BatchBytes int64
	// GCLowWater/GCHighWater are the §3.5 utilization thresholds.
	// Defaults 0.70/0.75: here 0 means 0.70, and GCLowWater < 0 disables
	// GC, which reaches blockstore.Config as 0, whose 0 means off.
	GCLowWater, GCHighWater float64
	// PrefetchSectors is the temporal read-ahead window, in sectors of
	// the object's data region. 0 selects the default, 256 sectors
	// (128 KiB). Every miss fetches it while the read arena has a free
	// slab; once the arena is full, only a miss that continues a stream
	// does, and any other fetches just its own 4 KiB blocks
	// (readpath.go). 1 sector never reaches past the demand miss and is
	// the "off" setting of the ablations table's temporal-prefetch rows.
	PrefetchSectors uint32
	// CheckpointEvery objects between backend map checkpoints. Default
	// 32, applied by the block store. Fig 15 sets 8, so cleaned objects
	// are released while its backend composition is sampled.
	CheckpointEvery int
	// DisableGCCacheFetch stops the GC from reading live data out of
	// the local write cache: the "off" column of the ablations table's
	// GC-fetch row (§3.5's optimization).
	DisableGCCacheFetch bool
	// DestageQueueDepth is the capacity of the in-memory destage queue
	// between WriteAt and the destager goroutine; a full queue blocks
	// the writer (§3.2 backpressure). Default 256 requests. No product
	// path sets it: it stays a field because the tortures need a
	// shallower queue to reach that wait at all. At 32 the concurrent
	// and checkpoint-crash tortures block on a full queue about a hundred
	// times each in 24 iterations; at 256 none ever does.
	DestageQueueDepth int

	// ReplicaStore, when non-nil, enables asynchronous replication
	// (paper §4.8, DESIGN.md §14): a per-volume shipper drains the
	// block store's commit feed into this second backend, keeping the
	// replica a crash-consistent prefix of the primary. The store is
	// wrapped in a Retrier under the same Retry policy as the primary
	// unless it already is one.
	ReplicaStore objstore.Store
	// ReplicaMaxLagObjects bounds the replication lag — the RPO knob.
	// When more committed objects than this are unshipped, new writes
	// and trims stall until the shipper catches up ("bounded or
	// blocked", never silent exposure). 0 leaves the lag unbounded.
	ReplicaMaxLagObjects int
}

// Resources are what a Disk runs on beyond its own state: a write-cache
// log section, a read-cache view and the backend budgets. A host leases
// them to each volume it opens (CreateShared, OpenShared); Create, Open
// and the read-only mounts build the same set for a volume that has
// Options.Cache to itself (ownResources). Every disk runs on one.
//
//   - WCDev: this volume's write-cache log section (a CacheLayout slot).
//   - ReadCache: this volume's view of the read-cache arena (fair
//     eviction across volumes happens inside the arena).
//   - UploadGate/FetchSem: the backend concurrency budgets every
//     destage PUT and miss-path GET draws from, of UploadDepth and
//     FetchDepth slots. The block store sizes its upload pipeline from
//     the gate's capacity. The gate guarantees each registered volume a
//     minimum share of the PUT budget (UploadID names this volume to
//     it); the builder owns registration.
//   - OnClose: invoked exactly once when the disk shuts down (Close or
//     Kill), so the builder can release the volume's lease.
type Resources struct {
	WCDev      simdev.Device
	ReadCache  *readcache.Cache
	UploadGate *iosched.Gate
	UploadID   string
	FetchSem   chan struct{}
	OnClose    func()
}

// CacheLayout is the one split of a cache SSD: the first frac of it,
// block-aligned, is cut into n equal write-cache log slots, and the rest
// is the read arena. A single volume is the one-slot layout.
func CacheLayout(dev simdev.Device, n int, frac float64) ([]simdev.Device, simdev.Device, error) {
	total := dev.Size()
	slotBytes := (int64(float64(total)*frac) &^ (block.BlockSize - 1)) / int64(n) &^ (block.BlockSize - 1)
	if slotBytes <= 0 {
		return nil, nil, fmt.Errorf("core: cache of %d bytes cannot hold %d write-cache slots", total, n)
	}
	arena, err := simdev.NewSection(dev, int64(n)*slotBytes, total-int64(n)*slotBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cache layout: %w", err)
	}
	slots := make([]simdev.Device, n)
	for i := range slots {
		slots[i], _ = simdev.NewSection(dev, int64(i)*slotBytes, slotBytes) // in bounds: the arena follows
	}
	return slots, arena, nil
}

// ownResources builds the Resources of a volume with the cache device to
// itself: slot 0 of a one-slot CacheLayout, the arena's "" view, and an
// upload gate and fetch semaphore of its own depths.
func ownResources(opts Options) (*Resources, error) {
	slots, arenaDev, err := CacheLayout(opts.Cache, 1, opts.WriteCacheFrac)
	if err != nil {
		return nil, err
	}
	rc, err := readcache.New(arenaDev, readcache.SizedConfig(arenaDev.Size(), readcache.FIFO))
	if err != nil {
		return nil, err
	}
	gate := iosched.NewGate(opts.UploadDepth)
	gate.Register(opts.Volume)
	return &Resources{
		WCDev:      slots[0],
		ReadCache:  rc,
		UploadGate: gate,
		UploadID:   opts.Volume,
		FetchSem:   make(chan struct{}, opts.FetchDepth),
		OnClose:    func() { gate.Unregister(opts.Volume) },
	}, nil
}

// Check refuses host options with no backend or no cache device. Every
// disk constructor runs it, and so does host.New.
func (o *HostOptions) Check() error {
	if o.Store == nil || o.Cache == nil {
		return errors.New("core: Store and Cache are required")
	}
	return nil
}

// CheckVolume refuses a name that cannot be a volume's key namespace:
// empty, "." or "..", a path separator, or the directory store's
// temporary-file marker. Every disk constructor runs it, and so does
// the host before it leases a slot.
func CheckVolume(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.Contains(name, "#tmp#") {
		return fmt.Errorf("core: invalid volume name %q", name)
	}
	return nil
}

// setDefaults checks the options every constructor is handed, then
// fills the zero-valued knobs.
func (o *Options) setDefaults() error {
	if err := o.Check(); err != nil {
		return err
	}
	if err := CheckVolume(o.Volume); err != nil {
		return err
	}
	o.HostOptions.SetDefaults()
	if o.GCLowWater == 0 {
		o.GCLowWater = 0.70
	}
	if o.GCHighWater == 0 {
		o.GCHighWater = 0.75
	}
	if o.GCLowWater < 0 {
		o.GCLowWater = 0
	}
	if o.PrefetchSectors == 0 {
		o.PrefetchSectors = 256
	}
	if o.DestageQueueDepth <= 0 {
		o.DestageQueueDepth = 256
	}
	o.Store = o.retrier(o.Store)
	if o.ReplicaStore != nil {
		o.ReplicaStore = o.retrier(o.ReplicaStore)
	}
	return nil
}

// retrier wraps s in the one Retrier of Options.Retry that every door
// hands the block store and the shipper, unless s already is one or
// retries are off.
func (o *Options) retrier(s objstore.Store) objstore.Store {
	if _, ok := s.(*objstore.Retrier); ok || o.Retry.MaxAttempts < 0 {
		return s
	}
	return objstore.NewRetrier(s, o.Retry)
}

// Stats aggregates counters from all three layers.
type Stats struct {
	Writes, Reads, Flushes, Trims uint64
	BytesWritten, BytesRead       uint64
	WriteCacheHitSectors          uint64
	ReadCacheHitSectors           uint64
	BackendReadSectors            uint64
	ZeroFillSectors               uint64
	PrefetchedSectors             uint64
	WriteSeq                      uint64
	RecoveredReplayed             int    // cache records replayed to backend at open
	OpenNanos                     int64  // wall time of the open/recovery sequence
	DestageQueued                 int    // requests waiting in the destage queue
	RingKicks                     uint64 // ring-full: non-fencing seals kicked
	RingFences                    uint64 // ring-full: watermark stalled, full fence

	// Read-miss pipeline counters. PrefetchHitSectors mirrors the read
	// cache's: prefetched sectors read at least once, each counted on
	// its first read. AdmissionsDropped counts cache admissions shed under
	// pressure. GET counts, dedup and coalescing are the block store's:
	// Backend.FetchGETs, Backend.FetchesDeduped, Backend.RunsCoalesced.
	PrefetchHitSectors uint64
	AdmissionsDropped  uint64

	// Replication telemetry (DESIGN.md §14). ReplicaEnabled marks the
	// volume as replicated; Replica carries the shipper's cumulative
	// counters and live lag; ReplicaStalls counts foreground operations
	// that blocked on the RPO bound.
	ReplicaEnabled bool
	Replica        replica.Stats
	ReplicaStalls  uint64

	WriteCache writecache.Stats
	ReadCache  readcache.Stats
	Backend    blockstore.Stats
}

// counters holds the core's own statistics; every field is updated
// atomically so the read path stays lock-free.
type counters struct {
	writes, reads, flushes, trims atomic.Uint64
	bytesWritten, bytesRead       atomic.Uint64
	wcHitSectors, rcHitSectors    atomic.Uint64
	backendReadSectors            atomic.Uint64
	zeroFillSectors               atomic.Uint64
	prefetchedSectors             atomic.Uint64
}

// stagedBuf tracks one write's staging buffer until the destage
// watermark passes its sequence number.
type stagedBuf struct {
	ws  uint64
	buf []byte
}

// stagePool recycles write-path staging buffers. WriteAt copies the
// caller's payload into a staging buffer whose ownership then flows
// through the destage queue, the block-store batch and the object
// vector; the buffer dies when its object commits. Recycling at the
// destage watermark (the commit is what advances it) keeps the hot
// write path from allocating — and the garbage collector from
// scanning — a fresh buffer per write.
//
// Dead buffers wait in power-of-two size classes, so a volume that
// mixes write sizes finds each size on its own list. The pool keeps at
// most limit bytes of them — what the destage pipeline can hold in
// flight, so a steady stream recycles every buffer; beyond it, dead
// buffers fall to the garbage collector.
type stagePool struct {
	mu        sync.Mutex
	limit     int64                   // bound on freeBytes
	freeBytes int64                   // capacity held on the free lists
	free      [bits.UintSize][][]byte // free[c] holds buffers of capacity 1<<c
	pending   []stagedBuf             // in-flight, appended in ws order under wmu
}

// stageClass returns the smallest c with 1<<c >= n.
func stageClass(n int) int { return bits.Len(uint(n - 1)) }

func (p *stagePool) get(n int) []byte {
	c := stageClass(n)
	p.mu.Lock()
	if l := p.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[c] = l[:len(l)-1]
		p.freeBytes -= int64(cap(b))
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// track records a buffer now owned by the destage pipeline. Callers
// serialize under wmu, so pending stays ws-ordered.
func (p *stagePool) track(ws uint64, buf []byte) {
	p.mu.Lock()
	p.pending = append(p.pending, stagedBuf{ws: ws, buf: buf})
	p.mu.Unlock()
}

// destaged releases every buffer at or below the watermark: its object
// has committed (commits are strictly in write order), so nothing
// references the bytes anymore.
func (p *stagePool) destaged(ws uint64) {
	p.mu.Lock()
	i := 0
	for ; i < len(p.pending) && p.pending[i].ws <= ws; i++ {
		p.put(p.pending[i].buf)
	}
	if i > 0 {
		p.pending = p.pending[:copy(p.pending, p.pending[i:])]
	}
	p.mu.Unlock()
}

// drop empties the free lists and admits nothing more: a shut-down disk
// that stays reachable (a host's table, a caller's stats) pins no
// staging memory.
func (p *stagePool) drop() {
	p.mu.Lock()
	p.limit, p.freeBytes, p.free, p.pending = 0, 0, [bits.UintSize][][]byte{}, nil
	p.mu.Unlock()
}

// put returns a dead buffer to its class. When it does not fit under
// the limit it first pushes out buffers of other classes — it is the
// size in use now, they are what an earlier phase of the workload left
// behind — and is dropped only when its own class fills the pool.
func (p *stagePool) put(b []byte) {
	c, size := stageClass(cap(b)), int64(cap(b))
	for o := 0; o < len(p.free) && p.freeBytes+size > p.limit; o++ {
		l := p.free[o]
		for o != c && len(l) > 0 && p.freeBytes+size > p.limit {
			l[len(l)-1] = nil
			l = l[:len(l)-1]
			p.freeBytes -= 1 << o
		}
		p.free[o] = l
	}
	if p.freeBytes+size <= p.limit {
		p.free[c] = append(p.free[c], b)
		p.freeBytes += size
	}
}

// destageReq is one unit of work for the destager goroutine: a logged
// write or trim (nil data) to forward to the block store; a kick — a non-fencing
// seal request issued by ring-full backpressure, which needs the records
// ahead of it on their way to the backend but not the whole pipeline
// drained; or a fence marker (non-nil fence), a consistency point at its
// place in the write stream.
type destageReq struct {
	ws   uint64
	ext  block.Extent
	data []byte
	sum  uint32 // journal.Sum(data), taken once on the ack path
	kick bool

	fence chan fenceReply
	ckpt  bool   // the marker writes a checkpoint (Checkpoint, Snapshot), not a pipeline fence (Drain)
	name  string // the snapshot a checkpoint marker names, or ""
}

// fenceReply is the destager's answer to a fence marker: the block
// store's marker to wait for, or the pipeline fence's outcome.
type fenceReply struct {
	m   *blockstore.Marker
	err error
}

// Disk is an LSVD virtual disk. Mutations (write/trim) and fence markers
// enter the write stream one at a time, in writeSeq order — the write
// log must stay strictly ordered — but return as soon as the cache log
// append and queue handoff are done; destage to the backend happens on a
// background goroutine. Nothing waits under wmu (enter). Reads take no
// disk-level lock at all: each cache layer and the block store guard
// their own state, and the combined lookup+read methods make each
// level's snapshot internally consistent.
type Disk struct {
	opts Options

	// res is what the disk runs on (a host's lease or its own); the
	// release once-guard fires OnClose exactly once across Close/Kill.
	res     *Resources
	release sync.Once

	wc *writecache.Cache
	rc *readcache.Cache
	bs *blockstore.Store

	// shipper is the volume's replication goroutine (nil unless
	// Options.ReplicaStore is set on a writable disk). replicaStalls
	// counts foreground mutations that blocked on the RPO lag bound.
	// replicaWake is the broadcast channel those stalled writers sleep
	// on (awaitReplicaLag): notifyReplicaWake closes and replaces it
	// whenever the shipper acks an object, the pipeline fails, or the
	// disk closes. Nil unless the disk has a shipper.
	shipper       *replica.Shipper
	replicaStalls atomic.Uint64
	replicaMu     sync.Mutex //lsvd:lock core.replicaWake
	replicaWake   chan struct{}

	volSectors block.LBA
	readOnly   bool

	// wmu covers the metadata step of an admission (handoffLocked):
	// the closed check, sequence number, ring reservation and queue slot.
	// closed is closed under it, once, by Close or Kill.
	wmu      sync.Mutex //lsvd:lock core.wmu
	closed   chan struct{}
	writeSeq atomic.Uint64

	// Destage pipeline (nil channels on read-only mounts). turn is the
	// admission ticket (enter).
	turn chan struct{}
	ch   chan destageReq
	quit chan struct{} // closed by Kill: drop the queue, stop now
	done chan struct{} // closed when the destager exits
	perr atomic.Pointer[error]

	// destageTick is pulsed (non-blocking, capacity 1) whenever the
	// destage watermark advances, the pipeline fails or the destager
	// takes a request off a full queue; an admission waiting for room
	// sleeps on it.
	destageTick chan struct{}
	ringKicks   atomic.Uint64 // non-fencing seals issued by ring-full backpressure
	ringFences  atomic.Uint64 // full fences after the watermark stalled
	stage       stagePool     // staging buffers recycled at the destage watermark

	// rcGen is bumped by every write/trim before it invalidates the
	// read cache. A reader records the epoch before its write-cache
	// lookup and self-invalidates its inserts if it changed, so a stale
	// fetch can never linger in the read cache past a concurrent
	// overwrite.
	rcGen atomic.Uint64

	// adm applies read-cache admissions (demand fills + temporal
	// prefetch) on a background goroutine, off the read ack path.
	adm admitter
	// stream sizes each read-miss GET's temporal prefetch (readpath.go).
	stream stream

	c                 counters
	recoveredReplayed int
	openNanos         int64
}

// ErrReadOnly is returned for mutations on snapshot mounts.
var ErrReadOnly = blockstore.ErrReadOnly

// ErrClosed is returned for operations on a closed (or killed) disk.
var ErrClosed = errors.New("core: disk is closed")

var _ vdisk.Disk = (*Disk)(nil)

// Create initializes a new LSVD volume on a fresh cache device and
// backend prefix.
func Create(ctx context.Context, opts Options) (*Disk, error) {
	return CreateShared(ctx, opts, nil)
}

// CreateShared is Create on a host's lease (res nil is plain Create).
func CreateShared(ctx context.Context, opts Options, res *Resources) (*Disk, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.VolBytes <= 0 || opts.VolBytes%block.SectorSize != 0 {
		return nil, fmt.Errorf("core: invalid volume size %d", opts.VolBytes)
	}
	d := &Disk{opts: opts, volSectors: block.LBAFromBytes(opts.VolBytes), destageTick: make(chan struct{}, 1)}
	err := d.attach(res)
	if err != nil {
		return nil, err
	}
	if d.wc, err = writecache.Format(d.res.WCDev, writecache.Config{}); err != nil {
		return nil, err
	}
	if d.bs, err = blockstore.Create(ctx, d.storeConfig()); err != nil {
		return nil, err
	}
	d.startPipeline(ctx)
	return d, nil
}

// attach sets the disk on res, or on Resources of its own when res is
// nil.
func (d *Disk) attach(res *Resources) error {
	if res == nil {
		var err error
		if res, err = ownResources(d.opts); err != nil {
			return err
		}
	}
	d.res, d.rc = res, res.ReadCache
	return nil
}

// released fires OnClose exactly once (Close or Kill).
func (d *Disk) released() { d.release.Do(d.res.OnClose) }

// Open recovers an LSVD volume: the cache log is replayed from the start
// its superblock names, the backend recovered by the prefix rule, and
// the two reconciled — the cache drops what the backend holds and
// re-sends what it lacks (§3.3).
func Open(ctx context.Context, opts Options) (*Disk, error) {
	return OpenShared(ctx, opts, nil)
}

// OpenShared is Open on a host's lease (res nil is plain Open). The
// cache is opened before the store — the GC service starts inside
// blockstore.Open and polls the cache — and reconciled after it, when
// the backend's durable watermark is known.
func OpenShared(ctx context.Context, opts Options, res *Resources) (*Disk, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	d := &Disk{opts: opts, destageTick: make(chan struct{}, 1)}
	err := d.attach(res)
	if err != nil {
		return nil, err
	}
	wc, wcErr := writecache.Open(d.res.WCDev)
	if wcErr != nil {
		// Cache lost, blank or laid out by an earlier version (§3.4 worst
		// case): reformat it; the volume falls back to the backend's
		// consistent prefix.
		if wc, err = writecache.Format(d.res.WCDev, writecache.Config{}); err != nil {
			return nil, err
		}
	}
	d.wc = wc
	if d.bs, err = blockstore.Open(ctx, d.storeConfig()); err != nil {
		return nil, err
	}
	d.volSectors = d.bs.VolSectors()

	// Reconcile the two logs, then rewind & replay: the cache drops
	// every record at or below the backend's durable watermark — the
	// backend owns those, and may have run ahead of what the cache device
	// kept — and what is left is pushed back through the block store.
	if err := d.wc.Reconcile(d.bs.DurableWriteSeq()); err != nil {
		return nil, fmt.Errorf("core: cache reconcile: %w", err)
	}
	replayed := 0
	err = d.wc.Records(func(ws uint64, typ journal.Type, ext block.Extent, data []byte) error {
		replayed++
		if typ == journal.TypeTrim {
			return d.bs.Trim(ws, ext)
		}
		return d.bs.Append(ws, ext, data)
	})
	if err != nil {
		return nil, fmt.Errorf("core: cache replay: %w", err)
	}
	if replayed > 0 {
		if err := d.bs.Seal(); err != nil {
			return nil, err
		}
	}
	d.recoveredReplayed = replayed
	d.wc.SetDestaged(d.bs.DurableWriteSeq())
	ws := d.bs.DurableWriteSeq()
	if m := d.wc.MaxWriteSeq(); m > ws {
		ws = m
	}
	d.writeSeq.Store(ws)
	d.openNanos = int64(time.Since(start))
	d.startPipeline(ctx)
	return d, nil
}

// OpenSnapshot mounts a named snapshot of the volume as a read-only
// disk (§3.6: "can be mounted read-only by backtracking to the last
// map checkpoint before that point"). The cache device is used only
// for read caching; writes and trims are rejected.
func OpenSnapshot(ctx context.Context, opts Options, snapshot string) (*Disk, error) {
	return openReadOnly(ctx, opts, func(cfg blockstore.Config) (*blockstore.Store, error) {
		return blockstore.OpenSnapshot(ctx, cfg, snapshot)
	})
}

// OpenReadOnly mounts the volume's newest consistent prefix read-only
// without taking write ownership — the restore-from-replica inspection
// mount (§4.8, DESIGN.md §14). Point Options.Store at the replica; a
// torn tail object left by a shipper killed mid-copy truncates
// recovery exactly like a crashed primary's own tail.
func OpenReadOnly(ctx context.Context, opts Options) (*Disk, error) {
	return openReadOnly(ctx, opts, func(cfg blockstore.Config) (*blockstore.Store, error) {
		return blockstore.OpenHeadReadOnly(ctx, cfg)
	})
}

func openReadOnly(ctx context.Context, opts Options, mount func(blockstore.Config) (*blockstore.Store, error)) (*Disk, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	opts.GCLowWater = 0
	d := &Disk{opts: opts, readOnly: true, destageTick: make(chan struct{}, 1)}
	err := d.attach(nil)
	if err != nil {
		return nil, err
	}
	// The write cache stays empty; it exists only so the read path's
	// three-level lookup works unchanged.
	if d.wc, err = writecache.Format(d.res.WCDev, writecache.Config{}); err != nil {
		return nil, err
	}
	if d.bs, err = mount(d.storeConfig()); err != nil {
		return nil, err
	}
	d.volSectors = d.bs.VolSectors()
	d.writeSeq.Store(d.bs.DurableWriteSeq())
	d.startPipeline(ctx)
	return d, nil
}

func (d *Disk) storeConfig() blockstore.Config {
	cfg := blockstore.Config{
		Volume:          d.opts.Volume,
		Store:           d.opts.Store,
		VolSectors:      d.volSectors,
		BatchBytes:      d.opts.BatchBytes,
		GCLowWater:      d.opts.GCLowWater,
		GCHighWater:     d.opts.GCHighWater,
		CheckpointEvery: d.opts.CheckpointEvery,
		OnDestage: func(ws uint64) {
			d.wc.SetDestaged(ws)
			d.stage.destaged(ws)
			d.notifyDestage()
		},
		UploadGate: d.res.UploadGate,
		UploadID:   d.res.UploadID,
		FetchSem:   d.res.FetchSem,
		// Polled by the paced GC service, which every writable store
		// runs, without the store lock. DestagePressure takes only the
		// cache's own lock.
		GCBackoff: func() bool { return d.wc.DestagePressure() },
		// Replicated arms the shipped-watermark pin even before (and
		// between) shipper attaches, so a crash-restart cycle cannot
		// delete objects the replica still lacks.
		Replicated: d.opts.ReplicaStore != nil && !d.readOnly,
	}
	if !d.opts.DisableGCCacheFetch {
		cfg.FetchFromCache = d.fetchFromWriteCache
	}
	return cfg
}

// startPipeline launches the read-path admitter (every disk reads), the
// replication shipper (when a replica store is configured), and the
// destager goroutine (skipped for read-only mounts).
func (d *Disk) startPipeline(ctx context.Context) {
	d.closed = make(chan struct{})
	d.adm.start(d)
	if !d.readOnly && d.opts.ReplicaStore != nil {
		rs := d.opts.ReplicaStore
		d.replicaWake = make(chan struct{})
		d.shipper = replica.Start(ctx, replica.Config{
			Backend:       d.bs,
			Replica:       rs,
			Gate:          d.res.UploadGate,
			GateID:        d.res.UploadID + "#ship",
			MaxLagObjects: d.opts.ReplicaMaxLagObjects,
			OnAck:         d.notifyReplicaWake,
		})
	}
	if d.readOnly {
		return
	}
	d.stage.limit = min(d.wc.Stats().LogBytes, d.bs.PipelineBytes())
	d.turn = make(chan struct{}, 1)
	d.ch = make(chan destageReq, d.opts.DestageQueueDepth)
	d.quit = make(chan struct{})
	d.done = make(chan struct{})
	invariant.Go("core-destage", d.destage)
}

// checkDestageOrder asserts that write sequence numbers reach the block
// store in order — the property prefix consistency (§3.1) rests on. The
// queue is FIFO and producers take the admission ticket, so ws never
// falls below the last one destaged.
func checkDestageOrder(ws, last uint64) {
	if ws < last {
		invariant.Failf("core: destage writeSeq regressed: %d after %d", ws, last)
	}
}

// destage drains the queue into the block store. On Kill (quit closed)
// it returns immediately, dropping whatever is still queued — those
// writes live on in the cache log and are replayed at the next Open.
//
// A fence marker is the consistency point of the operation that queued
// it: every write ahead of it in the queue is in the block store's batch
// and none behind it is. Checkpoint and Snapshot hand the store a
// checkpoint marker there (blockstore.Mark), which seals the batch and
// queues the checkpoint behind it in the upload pipeline, so the
// destager moves on at once; Drain fences the pipeline itself (Seal).
func (d *Disk) destage() {
	defer close(d.done)
	var lastWS uint64
	for {
		select {
		case <-d.quit:
			return
		case req, ok := <-d.ch:
			if !ok {
				return
			}
			if len(d.ch) == cap(d.ch)-1 {
				d.notifyDestage() // room for an admission waiting on the full queue
			}
			if req.fence != nil {
				var r fenceReply
				if req.ckpt {
					r.m, r.err = d.bs.Mark(req.name)
				} else {
					r.err = d.bs.Seal()
				}
				req.fence <- r
				continue
			}
			if req.kick {
				// Every record queued before the kick is now in the
				// batch; the store seals it without waiting, unless an
				// object already in flight will free the ring first, so
				// the commit (and the OnDestage watermark pulse the
				// kicker sleeps on) can land while writes continue.
				if err := d.bs.SealAsync(); err != nil {
					d.failPipeline(err)
				}
				continue
			}
			checkDestageOrder(req.ws, lastWS)
			lastWS = req.ws
			var err error
			if req.data == nil {
				err = d.bs.Trim(req.ws, req.ext)
			} else {
				err = d.bs.AppendSum(req.ws, req.ext, req.data, req.sum)
			}
			if err != nil {
				d.failPipeline(err)
			}
		}
	}
}

// failPipeline records the first destage failure; it is surfaced to
// the client on the next mutation or fence. The tick wakes any writer
// sleeping on destage progress so it sees the error promptly.
func (d *Disk) failPipeline(err error) {
	d.perr.CompareAndSwap(nil, &err)
	d.notifyDestage()
	d.notifyReplicaWake()
}

// notifyDestage pulses the destage-progress channel. Non-blocking: a
// pending tick already carries the same information.
func (d *Disk) notifyDestage() {
	select {
	case d.destageTick <- struct{}{}:
	default:
	}
}

func (d *Disk) pipelineErr() error {
	if p := d.perr.Load(); p != nil {
		return *p
	}
	return nil
}

// awaitReplicaLag is the RPO bound's escalation: while the replication
// lag exceeds ReplicaMaxLagObjects, foreground
// mutations stall here — OUTSIDE wmu, so the destage pipeline keeps
// committing and the shipper keeps acking — until the replica catches
// up. "Bounded or blocked": the volume never silently accumulates more
// unreplicated data than the configured exposure. Stalled writers
// sleep on the wake channel rather than polling; every shipper ack and
// pipeline failure broadcasts it, and Close and Kill close closed.
func (d *Disk) awaitReplicaLag() error {
	if d.shipper == nil || !d.shipper.OverBound() {
		return nil
	}
	d.replicaStalls.Add(1)
	for {
		// Capture the wake channel before checking the exit conditions:
		// an ack (or failure/close) landing between a check and the wait
		// has already closed this channel, so the wait cannot miss it.
		wake := d.replicaWakeCh()
		if err := d.pipelineErr(); err != nil {
			return err
		}
		if d.isClosed() {
			return ErrClosed
		}
		if !d.shipper.OverBound() {
			return nil
		}
		select {
		case <-wake:
		case <-d.closed:
		}
	}
}

// notifyReplicaWake broadcasts to every writer stalled in
// awaitReplicaLag by closing the current wake channel and installing a
// fresh one. No-op on disks without a shipper.
func (d *Disk) notifyReplicaWake() {
	d.replicaMu.Lock()
	if d.replicaWake != nil {
		close(d.replicaWake)
		d.replicaWake = make(chan struct{})
	}
	d.replicaMu.Unlock()
}

func (d *Disk) replicaWakeCh() <-chan struct{} {
	d.replicaMu.Lock()
	ch := d.replicaWake
	d.replicaMu.Unlock()
	return ch
}

// isClosed reports whether Close or Kill has begun.
func (d *Disk) isClosed() bool {
	select {
	case <-d.closed:
		return true
	default:
		return false
	}
}

// fetchFromWriteCache serves GC source reads (§3.5) from the write
// cache when the data is fully resident AND fully destaged. The
// destaged restriction is load-bearing for crash consistency: the GC
// copies what the backend map says the victim holds, and the cache's
// newest bytes for an LBA may belong to a younger acknowledged write
// that has not committed to an object yet — publishing those in a GC
// object would let recovery see data from beyond the durable prefix
// (§3.4). It is called without the block store lock; it only touches
// the write cache, which has its own lock.
func (d *Disk) fetchFromWriteCache(ext block.Extent, buf []byte) bool {
	return d.wc.ReadFullDestaged(ext, buf)
}

// Size returns the disk size in bytes.
func (d *Disk) Size() int64 { return d.volSectors.Bytes() }

func (d *Disk) checkIO(p []byte, off int64) (block.Extent, error) {
	if off%block.SectorSize != 0 {
		return block.Extent{}, fmt.Errorf("core: unaligned offset %d", off)
	}
	lba := block.LBAFromBytes(off)
	if err := block.CheckIO(d.volSectors, lba, p); err != nil {
		return block.Extent{}, err
	}
	return block.Extent{LBA: lba, Sectors: uint32(len(p) / block.SectorSize)}, nil
}

// WriteAt implements vdisk.Disk: the write is persisted to the cache
// log (acknowledged) and queued for background destage (§3.2). It does
// not wait for the backend.
func (d *Disk) WriteAt(p []byte, off int64) error {
	ext, err := d.checkIO(p, off)
	if err != nil {
		return err
	}
	if ext.Empty() {
		return nil
	}
	if err := d.mutate(ext, p); err != nil {
		return err
	}
	d.c.writes.Add(1)
	d.c.bytesWritten.Add(uint64(len(p)))
	return nil
}

// mutate logs a write of p, or a trim (nil p), of ext and queues it for
// destage. Only the metadata step (enter) is taken one mutation at a
// time: the payload is staged before it and lands on the cache SSD after
// it, so concurrent writers pipeline.
func (d *Disk) mutate(ext block.Extent, p []byte) error {
	if d.readOnly {
		return ErrReadOnly
	}
	if err := d.pipelineErr(); err != nil {
		return err
	}
	if err := d.awaitReplicaLag(); err != nil {
		return err
	}
	req := destageReq{ext: ext}
	if p != nil {
		// Stage first: the destage pipeline (and the block-store batch,
		// which holds references) outlives the caller's ownership of p.
		// The buffer comes from the recycle pool and returns to it when
		// its object commits. The one checksum pass the payload gets is
		// taken here, over the staged copy while it is cache-hot; the
		// cache record's CRC and, later, the backend object's are both
		// derived from it.
		req.data = d.stage.get(len(p))
		copy(req.data, p)
		req.sum = journal.Sum(req.data)
	}
	res, err := d.enter(req)
	if err != nil {
		return err
	}
	// The group commit leader lands the record; Commit returns when it
	// is readable.
	if err := d.wc.Commit(res, p, req.sum); err != nil {
		if errors.Is(err, writecache.ErrClosed) {
			return ErrClosed // Kill quiesced the cache since enter
		}
		return err
	}
	// Drop any stale read-cache copy (write-after-read hazard), and
	// bump the epoch so an in-flight backend fetch self-invalidates.
	d.rcGen.Add(1)
	d.rc.Invalidate(ext)
	return nil
}

// destageGrace bounds how long a ring-full writer sleeps waiting for
// the destage watermark before concluding it has stalled and falling
// back to the full fence (which resubmits failed uploads and surfaces
// their errors). Healthy pipelines tick far faster than this; it is
// long because a loaded host can leave a healthy destager unscheduled
// for tens of milliseconds, and the fence adds a full pipeline flush on
// top of that load, so escalating early makes the stall strictly worse.
const destageGrace = 60 * time.Millisecond

// errQueueFull is handoffLocked's answer while the destage queue has no
// room for another request.
var errQueueFull = errors.New("core: destage queue full")

// enter places req at the end of the write stream: a write or trim with
// its cache-log record reserved (the reservation is returned, and the
// caller must Commit it), or a marker. It holds the admission ticket
// throughout, a one-slot channel: Go queues blocked senders in arrival
// order, so the ticket is a FIFO, and an admission that has to wait for
// room — a full destage queue or a full ring — keeps every later one
// behind it, which keeps writeSeq order into both the ring and the
// queue, while it waits holding no lock. Close and Kill release the
// whole line.
//
// A full destage queue is waited out in handoff. A full ring means the
// records pinning its head have not destaged yet, so the writer kicks a
// non-fencing seal and dozes until the destage watermark advances,
// retrying as commits land and the head evicts. The block store decides
// what a kick seals (blockstore.SealAsync): a partial batch goes out only
// when it is worth a PUT or nothing else is in flight, so the kick is
// re-sent after every tick that did not free enough room — the in-flight
// object it deferred to may have been the last one. This is §3.2's "no
// writes accepted until cache space is freed" as flow control rather
// than stop-and-go: the volume's upload pipeline keeps running (and
// other volumes keep the shared backend busy) while this writer waits.
// Only a stalled watermark escalates to the full destage fence.
func (d *Disk) enter(req destageReq) (*writecache.Reservation, error) {
	select {
	case d.turn <- struct{}{}:
	case <-d.closed:
		return nil, ErrClosed
	}
	defer func() { <-d.turn }()
	fences := 0
	for {
		res, err := d.handoff(req)
		if !errors.Is(err, writecache.ErrFull) {
			return res, err
		}
		if perr := d.pipelineErr(); perr != nil {
			return nil, perr
		}
		d.ringKicks.Add(1)
		if _, qerr := d.handoff(destageReq{kick: true}); qerr != nil {
			return nil, qerr
		}
		if d.awaitDestage() {
			continue
		}
		// Watermark stalled: escalate to the fence, then retry.
		if fences >= 2 {
			return nil, err
		}
		fences++
		d.ringFences.Add(1)
		reply := make(chan fenceReply, 1)
		if _, qerr := d.handoff(destageReq{fence: reply}); qerr != nil {
			return nil, qerr
		}
		if _, ferr := d.awaitFence(reply); ferr != nil {
			return nil, ferr
		}
	}
}

// awaitDestage sleeps until destage progress is signalled or the grace
// period expires; true means progress, or that the disk is closing and
// the retry will say so.
func (d *Disk) awaitDestage() bool {
	expired, stop := objstore.After(objstore.ClockOf(d.opts.Store), "destage-grace", destageGrace)
	defer stop()
	select {
	case <-d.destageTick:
		return true
	case <-expired:
		return false
	case <-d.closed:
		return true
	}
}

// handoff puts req in the destage queue, waiting off wmu while the queue
// is full; a full ring is the caller's to wait out (writecache.ErrFull).
func (d *Disk) handoff(req destageReq) (*writecache.Reservation, error) {
	for {
		d.wmu.Lock()
		res, err := d.handoffLocked(req)
		d.wmu.Unlock()
		if err != errQueueFull {
			return res, err
		}
		d.awaitDestage()
	}
}

// handoffLocked is the metadata step of an admission, which never
// waits: the closed check, then, for a write or trim, its sequence
// number and ring reservation, then the queue slot. Only the ticket
// holder sends to the queue, so the room checked first is still there at
// the send; and a send under wmu with closed checked is one Close never
// races when it closes the queue.
//
//lsvd:requires core.wmu
func (d *Disk) handoffLocked(req destageReq) (*writecache.Reservation, error) {
	if d.isClosed() {
		return nil, ErrClosed
	}
	if len(d.ch) == cap(d.ch) {
		return nil, errQueueFull
	}
	var res *writecache.Reservation
	if req.fence == nil && !req.kick {
		typ := journal.TypeTrim
		if req.data != nil {
			typ = journal.TypeData
		}
		ws := d.writeSeq.Load() + 1
		var err error
		if res, err = d.wc.Reserve(ws, typ, req.ext, len(req.data)); err != nil {
			return nil, err
		}
		d.writeSeq.Store(ws)
		req.ws = ws
		if req.data != nil {
			d.stage.track(ws, req.data)
		}
	}
	select {
	case d.ch <- req:
		return res, nil
	default:
		panic("core: destage queue filled under the admission ticket")
	}
}

// fence puts a marker at the end of the write stream — behind every
// write and trim admitted before it, ahead of every later one — and
// waits off every lock for the destager's answer. Writes keep being
// admitted meanwhile.
func (d *Disk) fence(ckpt bool, name string) (blockstore.SnapshotInfo, error) {
	if d.readOnly {
		return blockstore.SnapshotInfo{}, ErrReadOnly
	}
	reply := make(chan fenceReply, 1)
	if _, err := d.enter(destageReq{fence: reply, ckpt: ckpt, name: name}); err != nil {
		return blockstore.SnapshotInfo{}, err
	}
	return d.awaitFence(reply)
}

// awaitFence waits for the destager's answer to a marker and then, for a
// checkpoint marker, for its checkpoint to land. Close and Kill end the
// first wait: the marker may still be processed, unreported.
func (d *Disk) awaitFence(reply <-chan fenceReply) (blockstore.SnapshotInfo, error) {
	select {
	case r := <-reply:
		if r.m == nil {
			return blockstore.SnapshotInfo{}, r.err
		}
		return r.m.Wait()
	case <-d.closed:
		return blockstore.SnapshotInfo{}, ErrClosed
	}
}

// ReadAt implements vdisk.Disk: write cache, then read cache, then
// backend (Fig 1), zero-filling uninitialized ranges. Reads take no
// disk-level lock and proceed concurrently with writes, destage and
// each other; a read that races a write to the same blocks may return
// either version, as on a physical disk.
func (d *Disk) ReadAt(p []byte, off int64) error {
	ext, err := d.checkIO(p, off)
	if err != nil {
		return err
	}
	if ext.Empty() {
		return nil
	}
	d.c.reads.Add(1)
	d.c.bytesRead.Add(uint64(len(p)))
	// Taken before the write-cache lookup: a write acknowledged before
	// this point is in that lookup's view or already in the map, and a
	// later one moves the epoch (readpath.go).
	epoch := d.rcGen.Load()

	// (1) Write cache.
	wcRuns, err := d.wc.ReadExtent(ext, p)
	if err != nil {
		return err
	}
	var missesWC []block.Extent
	for _, run := range wcRuns {
		if run.Present {
			d.c.wcHitSectors.Add(uint64(run.Sectors))
		} else {
			missesWC = append(missesWC, run.Extent)
		}
	}
	// (2) Read cache.
	var missesRC []block.Extent
	for _, miss := range missesWC {
		sub := p[(miss.LBA - ext.LBA).Bytes():][:miss.Bytes()]
		rcRuns, err := d.rc.ReadExtent(miss, sub)
		if err != nil {
			return err
		}
		for _, run := range rcRuns {
			if run.Present {
				d.c.rcHitSectors.Add(uint64(run.Sectors))
			} else {
				missesRC = append(missesRC, run.Extent)
			}
		}
	}
	// (3) Block store: all remaining misses fan out across the fetcher
	// pool, with temporal prefetch admitted to the read cache off the
	// ack path (readpath.go).
	if len(missesRC) > 0 {
		return d.readBackend(ext, missesRC, p, epoch)
	}
	return nil
}

// Flush implements the commit barrier: one flush of the cache device
// (§3.2); no map metadata is written and the destage pipeline is not
// drained — durability of acknowledged writes comes from the cache
// log plus replay-on-open.
func (d *Disk) Flush() error {
	if err := d.pipelineErr(); err != nil {
		return err
	}
	d.c.flushes.Add(1)
	return d.wc.Flush()
}

// Trim implements discard.
func (d *Disk) Trim(off, length int64) error {
	if length == 0 {
		return nil
	}
	if off%block.SectorSize != 0 || length%block.SectorSize != 0 {
		return fmt.Errorf("core: unaligned trim [%d,%d)", off, off+length)
	}
	lba := block.LBAFromBytes(off)
	n := block.LBA(length / block.SectorSize)
	if lba+n > d.volSectors {
		return fmt.Errorf("core: trim beyond end of disk")
	}
	if err := d.mutate(block.Extent{LBA: lba, Sectors: uint32(n)}, nil); err != nil {
		return err
	}
	d.c.trims.Add(1)
	return nil
}

// Drain fences the destage pipeline at a marker: every write
// acknowledged before the call is durable remotely when it returns, and
// cache and backend are synchronized (used before VM migration,
// §4.3/§4.4). Writes issued meanwhile queue behind the marker. It also
// waits for the read cache admissions queued before the call, so
// counters read after it include the prefetch of every read that
// returned before it.
func (d *Disk) Drain() error {
	defer d.adm.drain()
	_, err := d.fence(false, "")
	return err
}

// Checkpoint forces a backend map checkpoint at a marker — it covers
// every write acknowledged before the call — and moves the cache log's
// start past everything the backend now holds.
func (d *Disk) Checkpoint() error {
	if _, err := d.fence(true, ""); err != nil {
		return err
	}
	return d.wc.Checkpoint()
}

// shut marks the disk closed, under wmu: every admission, queued for the
// ticket or waiting for room, now fails with ErrClosed. It reports
// whether this call did it; the rest of Close and Kill runs off the lock.
func (d *Disk) shut() bool {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.isClosed() {
		return false
	}
	close(d.closed)
	return true
}

// Close destages, checkpoints and persists all metadata.
func (d *Disk) Close() error {
	if !d.shut() {
		return nil
	}
	// Stop the admitter on every exit path (queued windows are
	// released); the happy paths drain it first so admissions land in
	// the read cache before it is persisted. The host's OnClose fires
	// once the disk is down, whatever path got it there.
	defer d.released()
	defer d.stage.drop()
	defer d.adm.stop()
	if d.readOnly {
		d.adm.drain()
		return d.rc.Persist()
	}
	// No admission is mid-send (handoffLocked), so the queue can close:
	// the destager forwards what it holds, markers included, and exits.
	close(d.ch)
	<-d.done
	derr := d.bs.Seal()
	// Stop the background GC service before the final checkpoint so the
	// shutdown sequence races with no concurrent collector (on the error
	// path too — the disk is going down either way).
	d.bs.StopGC()
	if derr == nil {
		// The seal above left the batch empty and the destager is gone;
		// the checkpoint's own opening fence waits out whatever the
		// collector left in the pipeline.
		derr = d.bs.Checkpoint()
	}
	// Drain the shipper after the final checkpoint so a clean close
	// leaves the replica with the closing checkpoint and superblock — a
	// zero-lag replica. On error paths it still detaches; with the
	// replica backend down, the per-object drain budget caps the wait
	// and the replica simply stays at its last consistent watermark.
	if d.shipper != nil {
		d.shipper.Close()
	}
	if derr != nil {
		return derr
	}
	if err := d.wc.Close(); err != nil {
		return err
	}
	d.adm.drain()
	return d.rc.Persist()
}

// Kill models process death for crash testing: the destage pipeline
// stops without flushing — queued writes are dropped (they remain in
// the cache log and are replayed at the next Open) — and in-flight
// uploads are quiesced so the backend stops changing. The disk is
// unusable afterwards; recover with Open.
func (d *Disk) Kill() {
	if !d.shut() {
		return
	}
	// Stop replication before quiescing the backend: a late ack would
	// advance the watermark and re-drive deferred deletions, mutating
	// the backend after the kill point. Abort drops queued feed events —
	// the crash model — leaving the replica a consistent prefix.
	if d.shipper != nil {
		d.shipper.Abort()
	}
	if d.quit != nil {
		close(d.quit)
		<-d.done
	}
	// Writers admitted before the kill may still be committing their
	// cache-log group writes; wait them out so nothing touches the
	// (possibly host-shared) device after Kill returns.
	d.wc.Quiesce()
	d.adm.stop()
	d.bs.Abort()
	d.stage.drop()
	d.released()
}

// Snapshot creates a named snapshot (§3.6) at a marker: it holds exactly
// the writes acknowledged before the marker entered the write stream.
func (d *Disk) Snapshot(name string) (blockstore.SnapshotInfo, error) {
	return d.fence(true, name)
}

// DeleteSnapshot removes a snapshot.
func (d *Disk) DeleteSnapshot(name string) error {
	return d.bs.DeleteSnapshot(name)
}

// Snapshots lists snapshots.
func (d *Disk) Snapshots() []blockstore.SnapshotInfo {
	return d.bs.Snapshots()
}

// RunGC triggers a garbage-collection pass. It runs under the block
// store's own lock and may proceed concurrently with reads and with
// the foreground write path.
func (d *Disk) RunGC() error {
	return d.bs.RunGC()
}

// Stats returns a snapshot of all counters.
func (d *Disk) Stats() Stats {
	st := Stats{
		Writes: d.c.writes.Load(), Reads: d.c.reads.Load(),
		Flushes: d.c.flushes.Load(), Trims: d.c.trims.Load(),
		BytesWritten: d.c.bytesWritten.Load(), BytesRead: d.c.bytesRead.Load(),
		WriteCacheHitSectors: d.c.wcHitSectors.Load(),
		ReadCacheHitSectors:  d.c.rcHitSectors.Load(),
		BackendReadSectors:   d.c.backendReadSectors.Load(),
		ZeroFillSectors:      d.c.zeroFillSectors.Load(),
		PrefetchedSectors:    d.c.prefetchedSectors.Load(),
		WriteSeq:             d.writeSeq.Load(),
		RecoveredReplayed:    d.recoveredReplayed,
		OpenNanos:            d.openNanos,
		AdmissionsDropped:    d.adm.dropped.Load(),
		RingKicks:            d.ringKicks.Load(),
		RingFences:           d.ringFences.Load(),
		DestageQueued:        len(d.ch), // nil channel (length 0) on read-only mounts
	}
	if d.shipper != nil {
		st.ReplicaEnabled = true
		st.Replica = d.shipper.Stats()
		st.ReplicaStalls = d.replicaStalls.Load()
	}
	st.WriteCache = d.wc.Stats()
	st.ReadCache = d.rc.Stats()
	st.Backend = d.bs.Stats()
	st.PrefetchHitSectors = st.ReadCache.PrefetchHitSectors
	return st
}

// Backend exposes the block store (for replication tooling and the
// experiment harness).
func (d *Disk) Backend() *blockstore.Store { return d.bs }
