// Package host packs many LSVD volumes onto one cache SSD and one
// backend session (paper §3.7: a single local SSD is partitioned
// between the virtual disks of a host; the evaluation runs many
// volumes against one backend pool). A Host owns the shared hardware
// and the global budgets, and volumes lease from it:
//
//   - The SSD's write-cache region is statically carved into
//     MaxVolumes equal log sections, one per volume slot, so a
//     neighbor's burst can never consume another volume's log space.
//   - The rest of the SSD is ONE shared read-cache arena: all volumes
//     draw slabs from the same pool, with per-volume occupancy
//     accounting and fair eviction (a hot volume can only evict a
//     neighbor above its proportional share — see readcache.Arena).
//   - Backend uploads and miss fetches across ALL volumes share one
//     upload gate and one fetch semaphore, so the host's total backend
//     concurrency is bounded regardless of tenant count; the gate
//     additionally guarantees every open volume a minimum share of the
//     upload budget (iosched.Gate), so one hot volume cannot starve
//     its neighbors' destage pipelines.
//   - Each volume's objects live under its own key prefix
//     ("vol/<name>/…", objstore.Prefixed), so volumes are created,
//     listed and deleted independently inside one bucket.
//
// Volume-name → slot assignments persist in a small JSON object at
// key "host/slots", so reopening a host reattaches every volume to
// the write-cache section holding its log.
package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/invariant"
	"lsvd/internal/iosched"
	"lsvd/internal/nbd"
	"lsvd/internal/objstore"
	"lsvd/internal/readcache"
	"lsvd/internal/simdev"
)

// Options configures a Host: the shared hardware and global budgets of
// core.HostOptions plus the packing geometry. On a host, UploadDepth
// and FetchDepth are HOST-WIDE — at most that many object PUTs and
// range GETs in flight across all volumes combined: one tenant gets
// what a single-volume disk had, eight tenants share it. Per-volume
// knobs live in core.VolumeOptions, passed to Create/Open.
type Options struct {
	core.HostOptions

	// MaxVolumes is the number of write-cache slots carved from the
	// SSD's WriteCacheFrac (default 8). It bounds how many volumes the
	// host can serve; the read-cache arena (the rest of the SSD) is
	// shared dynamically and needs no slots.
	MaxVolumes int

	// FlatKeys serves a single volume with the historical flat key
	// layout ("<name>.<seq>" at bucket root, no slot metadata, no op
	// metering) so the pre-host lsvd.Open API stays byte-compatible
	// with existing buckets. Requires MaxVolumes == 1 (or 0, which
	// then defaults to 1).
	FlatKeys bool
}

func (o *Options) setDefaults() error {
	if o.MaxVolumes == 0 {
		if o.FlatKeys {
			o.MaxVolumes = 1
		} else {
			o.MaxVolumes = 8
		}
	}
	if o.FlatKeys && o.MaxVolumes != 1 {
		return fmt.Errorf("host: FlatKeys requires MaxVolumes == 1, got %d", o.MaxVolumes)
	}
	if o.MaxVolumes < 1 {
		return fmt.Errorf("host: MaxVolumes %d < 1", o.MaxVolumes)
	}
	o.HostOptions.SetDefaults()
	return nil
}

// slotsKey is where the volume→slot table lives in the bucket.
const slotsKey = "host/slots"

// volPrefix is the key namespace of one volume.
func volPrefix(name string) string { return "vol/" + name + "/" }

type slotsFile struct {
	Version int            `json:"version"`
	Slots   map[string]int `json:"slots"`
}

// Host owns one cache SSD and one backend session and serves
// MaxVolumes volumes on top of them.
type Host struct {
	opts  Options
	store objstore.Store    // what volumes see (metered unless FlatKeys)
	meter *objstore.Metered // nil in FlatKeys mode

	// retry wraps the host's own direct backend operations (slot
	// table I/O, volume deletion sweeps) with the same transient-error
	// policy the volumes inherit.
	retry *objstore.Retrier

	arena      *readcache.Arena
	slotBytes  int64
	uploadGate *iosched.Gate
	fetchSem   chan struct{}

	// slotsMu serializes slot-table PUTs and guards slotsSaved, the
	// generation of the newest snapshot persisted. It is a leaf lock:
	// nothing else is taken under it.
	slotsMu    sync.Mutex
	slotsSaved uint64

	mu       sync.Mutex            //lsvd:lock host.mu
	slots    map[string]int        // volume name -> write-cache slot
	slotsGen uint64                // generation of the newest slot-table snapshot
	open     map[string]*core.Disk // volumes currently open
	closed   bool
}

// New opens a host on the SSD + bucket: the SSD is carved (write-cache
// slots + shared arena), the volume→slot table is loaded, and the
// global semaphores are built. Volumes are then opened individually.
func New(ctx context.Context, opts Options) (*Host, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.Store == nil || opts.CacheDev == nil {
		return nil, fmt.Errorf("host: Store and CacheDev are required")
	}
	h := &Host{
		opts:  opts,
		store: opts.Store,
		slots: make(map[string]int),
		open:  make(map[string]*core.Disk),
	}
	if !opts.FlatKeys {
		h.meter = &objstore.Metered{Inner: opts.Store}
		h.store = h.meter
	}
	h.retry = objstore.NewRetrier(h.store, opts.Retry)

	var arenaDev simdev.Device
	var err error
	h.slotBytes, arenaDev, err = carve(opts.CacheDev, opts.MaxVolumes, opts.WriteCacheFrac)
	if err != nil {
		return nil, err
	}
	h.arena, err = readcache.NewArena(arenaDev, readcache.SizedConfig(arenaDev.Size(), readcache.FIFO))
	if err != nil {
		return nil, fmt.Errorf("host: arena: %w", err)
	}

	h.uploadGate = iosched.NewGate(opts.UploadDepth)
	h.fetchSem = make(chan struct{}, opts.FetchDepth)

	if !opts.FlatKeys {
		if err := h.loadSlots(ctx); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// carve splits the SSD: MaxVolumes equal write-cache slots at the
// front, the shared read arena on the remainder.
func carve(dev simdev.Device, maxVolumes int, frac float64) (int64, simdev.Device, error) {
	total := dev.Size()
	wcBytes := int64(float64(total)*frac) &^ (block.BlockSize - 1)
	slotBytes := (wcBytes / int64(maxVolumes)) &^ (block.BlockSize - 1)
	wcBytes = slotBytes * int64(maxVolumes)
	if slotBytes <= 0 {
		return 0, nil, fmt.Errorf("host: cache of %d bytes cannot hold %d write-cache slots", total, maxVolumes)
	}
	arenaDev, err := simdev.NewSection(dev, wcBytes, total-wcBytes)
	if err != nil {
		return 0, nil, fmt.Errorf("host: arena carve: %w", err)
	}
	return slotBytes, arenaDev, nil
}

// InspectArena loads the persisted read-arena occupancy of a host
// cache device without opening any volume (offline observability:
// lsvd-ctl). The geometry arguments must match the host that wrote
// the device; zero values select the host defaults.
func InspectArena(dev simdev.Device, maxVolumes int, frac float64) (readcache.ArenaStats, error) {
	o := Options{MaxVolumes: maxVolumes, HostOptions: core.HostOptions{WriteCacheFrac: frac}}
	if err := o.setDefaults(); err != nil {
		return readcache.ArenaStats{}, err
	}
	_, arenaDev, err := carve(dev, o.MaxVolumes, o.WriteCacheFrac)
	if err != nil {
		return readcache.ArenaStats{}, err
	}
	a, err := readcache.NewArena(arenaDev, readcache.SizedConfig(arenaDev.Size(), readcache.FIFO))
	if err != nil {
		return readcache.ArenaStats{}, err
	}
	return a.Stats(), nil
}

func (h *Host) loadSlots(ctx context.Context) error {
	raw, err := h.retry.Get(ctx, slotsKey)
	if err != nil {
		if errors.Is(err, objstore.ErrNotFound) {
			return nil // fresh bucket
		}
		return fmt.Errorf("host: loading %s: %w", slotsKey, err)
	}
	var f slotsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("host: parsing %s: %w", slotsKey, err)
	}
	for name, slot := range f.Slots {
		if slot < 0 || slot >= h.opts.MaxVolumes {
			return fmt.Errorf("host: %s assigns %q slot %d outside 0..%d (MaxVolumes shrank?)",
				slotsKey, name, slot, h.opts.MaxVolumes-1)
		}
		h.slots[name] = slot
	}
	return nil
}

// saveSlots persists the slot table. It must be called WITHOUT h.mu:
// the backend PUT (which can retry through a whole backoff schedule)
// must never stall Volumes/Disk/Open on the host lock. Each snapshot
// is stamped with a generation under h.mu; a PUT whose snapshot is
// older than one already persisted is skipped, so the persisted table
// can only move forward.
func (h *Host) saveSlots(ctx context.Context) error {
	if h.opts.FlatKeys {
		return nil
	}
	h.mu.Lock()
	h.slotsGen++
	gen := h.slotsGen
	f := slotsFile{Version: 1, Slots: make(map[string]int, len(h.slots))}
	for name, slot := range h.slots {
		f.Slots[name] = slot
	}
	h.mu.Unlock()
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	h.slotsMu.Lock()
	defer h.slotsMu.Unlock()
	if h.slotsSaved > gen {
		return nil
	}
	if err := h.retry.Put(ctx, slotsKey, raw); err != nil {
		return err
	}
	h.slotsSaved = gen
	return nil
}

func checkVolName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.Contains(name, "#tmp#") {
		return fmt.Errorf("host: invalid volume name %q", name)
	}
	return nil
}

// volStore returns the namespaced backend view of one volume.
func (h *Host) volStore(name string) (objstore.Store, error) {
	if h.opts.FlatKeys {
		return h.store, nil
	}
	return objstore.NewPrefixed(h.store, volPrefix(name))
}

// leaseLocked reserves the volume's slot and marks it open (mu held).
// assign controls whether a missing name gets a fresh slot.
//
//lsvd:requires host.mu
func (h *Host) leaseLocked(name string, assign bool) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("host: closed")
	}
	if invariant.Enabled {
		// Slot assignments are a bijection: two volumes sharing a
		// write-cache slot would corrupt each other's logs.
		seen := make(map[int]string, len(h.slots))
		for n, s := range h.slots {
			prev, dup := seen[s]
			invariant.Assertf(!dup, "host: volumes %q and %q share write-cache slot %d", prev, n, s)
			seen[s] = n
		}
	}
	if _, isOpen := h.open[name]; isOpen {
		return 0, fmt.Errorf("host: volume %q is already open", name)
	}
	slot, ok := h.slots[name]
	if !ok {
		if !assign {
			return 0, fmt.Errorf("host: unknown volume %q", name)
		}
		used := make([]bool, h.opts.MaxVolumes)
		for _, s := range h.slots {
			if s >= 0 && s < len(used) {
				used[s] = true
			}
		}
		slot = -1
		for i, u := range used {
			if !u {
				slot = i
				break
			}
		}
		if slot < 0 {
			return 0, fmt.Errorf("host: all %d volume slots in use", h.opts.MaxVolumes)
		}
		h.slots[name] = slot
	}
	// Reserve against concurrent Create/Open of the same name; the
	// entry is replaced with the real disk (or removed) by the caller.
	h.open[name] = nil
	return slot, nil
}

// resources builds the core.Resources lease for one volume,
// registering it on the shared upload gate so it is guaranteed a
// minimum share of the host's PUT budget while open.
func (h *Host) resources(name string, slot int) (*core.Resources, error) {
	wcDev, err := simdev.NewSection(h.opts.CacheDev, int64(slot)*h.slotBytes, h.slotBytes)
	if err != nil {
		return nil, fmt.Errorf("host: slot %d carve: %w", slot, err)
	}
	viewName := name
	if h.opts.FlatKeys {
		viewName = "" // the historical single-view arena name
	}
	h.uploadGate.Register(name)
	return &core.Resources{
		WCDev:      wcDev,
		ReadCache:  h.arena.Open(viewName),
		UploadGate: h.uploadGate,
		UploadID:   name,
		FetchSem:   h.fetchSem,
		OnClose: func() {
			h.uploadGate.Unregister(name)
			h.mu.Lock()
			delete(h.open, name)
			h.mu.Unlock()
		},
	}, nil
}

// coreOptions assembles the full core.Options for one volume: the
// host-level half from the host (with the volume's namespaced view of
// the store), the volume-level half from v.
func (h *Host) coreOptions(name string, v core.VolumeOptions) (core.Options, error) {
	st, err := h.volStore(name)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{HostOptions: h.opts.HostOptions, VolumeOptions: v}
	opts.Store = st
	opts.Volume = name
	return opts, nil
}

func (h *Host) openVolume(ctx context.Context, name string, v core.VolumeOptions, create bool) (*core.Disk, error) {
	if err := checkVolName(name); err != nil {
		return nil, err
	}
	h.mu.Lock()
	// A flat-key host has no slot table: Open of a pre-host bucket
	// self-assigns the (only) slot.
	slot, err := h.leaseLocked(name, create || h.opts.FlatKeys)
	if err != nil {
		h.mu.Unlock()
		return nil, err
	}
	h.mu.Unlock()

	fail := func(err error) (*core.Disk, error) {
		h.uploadGate.Unregister(name) // no-op unless resources() registered it
		h.mu.Lock()
		delete(h.open, name)
		if create {
			delete(h.slots, name)
		}
		h.mu.Unlock()
		if create {
			_ = h.saveSlots(ctx) // best effort rollback
		}
		return nil, err
	}
	if create {
		if err := h.saveSlots(ctx); err != nil {
			return fail(err)
		}
	}
	opts, err := h.coreOptions(name, v)
	if err != nil {
		return fail(err)
	}
	res, err := h.resources(name, slot)
	if err != nil {
		return fail(err)
	}
	var d *core.Disk
	if create {
		d, err = core.CreateShared(ctx, opts, res)
	} else {
		d, err = core.OpenShared(ctx, opts, res)
	}
	if err != nil {
		return fail(err)
	}
	h.mu.Lock()
	h.open[name] = d
	h.mu.Unlock()
	return d, nil
}

// Create initializes a new volume on a free write-cache slot.
// v.VolBytes must be set; v.Volume is overridden with name.
func (h *Host) Create(ctx context.Context, name string, v core.VolumeOptions) (*core.Disk, error) {
	return h.openVolume(ctx, name, v, true)
}

// Open recovers an existing volume (crash recovery included, exactly
// as the single-volume core.Open).
func (h *Host) Open(ctx context.Context, name string, v core.VolumeOptions) (*core.Disk, error) {
	return h.openVolume(ctx, name, v, false)
}

// OpenAll recovers several volumes concurrently — the host-restart
// path, where attach time is the sum of per-volume recoveries if done
// serially. Each volume runs the full Open (lease, cache replay,
// backend recovery) on its own goroutine; per-name leasing in
// leaseLocked keeps the volumes from interfering, and the slot table
// is read-only here (Open never assigns slots). Failures are isolated:
// one volume's error lands in the errs map while its neighbors attach
// normally. Every requested name appears in exactly one of the two
// maps; errs is nil when every volume opened.
func (h *Host) OpenAll(ctx context.Context, vols map[string]core.VolumeOptions) (map[string]*core.Disk, map[string]error) {
	type result struct {
		name string
		d    *core.Disk
		err  error
	}
	ch := make(chan result, len(vols))
	for name, v := range vols {
		name, v := name, v
		invariant.Go("host-openall", func() {
			d, err := h.Open(ctx, name, v)
			ch <- result{name, d, err}
		})
	}
	disks := make(map[string]*core.Disk, len(vols))
	var errs map[string]error
	for range vols {
		r := <-ch
		if r.err != nil {
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[r.name] = r.err
			continue
		}
		disks[r.name] = r.d
	}
	return disks, errs
}

// Delete removes a volume: its slot, its arena view, and every object
// under its key prefix. The volume must not be open.
func (h *Host) Delete(ctx context.Context, name string) error {
	if err := checkVolName(name); err != nil {
		return err
	}
	if h.opts.FlatKeys {
		return fmt.Errorf("host: flat-key hosts do not manage volume lifecycles")
	}
	h.mu.Lock()
	if _, isOpen := h.open[name]; isOpen {
		h.mu.Unlock()
		return fmt.Errorf("host: volume %q is open", name)
	}
	slot, ok := h.slots[name]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("host: unknown volume %q", name)
	}
	delete(h.slots, name)
	h.mu.Unlock()
	if err := h.saveSlots(ctx); err != nil {
		// Restore the lease so the volume is not orphaned in memory
		// while the persisted table still lists it.
		h.mu.Lock()
		if _, taken := h.slots[name]; !taken {
			h.slots[name] = slot
		}
		h.mu.Unlock()
		return err
	}
	h.arena.Purge(name)
	vs, err := h.volStore(name)
	if err != nil {
		return err
	}
	vsr := objstore.NewRetrier(vs, h.opts.Retry)
	names, err := vsr.List(ctx, "")
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := vsr.Delete(ctx, n); err != nil {
			return fmt.Errorf("host: deleting %q of volume %q: %w", n, name, err)
		}
	}
	return nil
}

// Volumes lists every volume the host knows (open or not), sorted.
func (h *Host) Volumes() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.slots))
	for name := range h.slots {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Disk returns the open disk for name, if any.
func (h *Host) Disk(name string) (*core.Disk, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.open[name]
	return d, ok && d != nil
}

// openSnapshot returns the open volumes (name-sorted), skipping
// reserved-but-not-yet-open entries.
func (h *Host) openSnapshot() []nbd.Export {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]nbd.Export, 0, len(h.open))
	for name, d := range h.open {
		if d != nil {
			out = append(out, nbd.Export{Name: name, Disk: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NBDServer builds an NBD server exporting every currently-open
// volume under its name.
func (h *Host) NBDServer() *nbd.Server {
	srv := nbd.NewServer(h.openSnapshot()...)
	return srv
}

// ServeNBD exports every open volume over NBD on ln, blocking until
// the listener closes.
func (h *Host) ServeNBD(ln net.Listener) error {
	return h.NBDServer().Serve(ln)
}

// VolumeStats is one open volume's stats row.
type VolumeStats struct {
	Name  string
	Stats core.Stats
}

// Stats is the host-aggregate picture: per-open-volume stats, the
// shared arena's occupancy table, host-wide backend op counts
// (zero-valued on FlatKeys hosts, which do not meter), and the
// aggregate GC picture across open volumes.
type Stats struct {
	Volumes []VolumeStats
	Arena   readcache.ArenaStats
	Backend objstore.Stats
	GC      GCStats
	Replica ReplicaStats
}

// ReplicaStats aggregates replication across the host's open volumes:
// how many volumes replicate, the combined live lag (the host-wide
// recovery-point exposure), and cumulative shipping progress.
type ReplicaStats struct {
	Volumes       int // replicated volumes currently open
	LagObjects    int
	LagBytes      int64
	CopiedObjects uint64
	CopiedBytes   int64
	Retries       uint64
	Errors        uint64
	Stalls        uint64 // foreground ops blocked on an RPO bound
}

// GCStats aggregates the garbage collectors of every open volume.
// MeasuredWAF is the realized host-wide write amplification:
// (foreground bytes + GC copy bytes) / foreground bytes — the quantity
// each volume's GCWAFTarget budgets. Zero before any foreground write.
type GCStats struct {
	Runs        uint64
	Victims     uint64
	BytesCopied uint64
	PaceWaits   uint64
	Backoffs    uint64
	Yields      uint64
	MeasuredWAF float64
}

// Stats snapshots the host.
func (h *Host) Stats() Stats {
	var st Stats
	var appended uint64
	for _, e := range h.openSnapshot() {
		vs := e.Disk.(*core.Disk).Stats()
		st.Volumes = append(st.Volumes, VolumeStats{Name: e.Name, Stats: vs})
		st.GC.Runs += vs.Backend.GCRuns
		st.GC.Victims += vs.Backend.GCVictims
		st.GC.BytesCopied += vs.Backend.GCBytesCopied
		st.GC.PaceWaits += vs.Backend.GCPaceWaits
		st.GC.Backoffs += vs.Backend.GCBackoffs
		st.GC.Yields += vs.Backend.GCYields
		appended += vs.Backend.BytesAppended
		if vs.ReplicaEnabled {
			st.Replica.Volumes++
			st.Replica.LagObjects += vs.Replica.LagObjects
			st.Replica.LagBytes += vs.Replica.LagBytes
			st.Replica.CopiedObjects += vs.Replica.CopiedObjects
			st.Replica.CopiedBytes += vs.Replica.CopiedBytes
			st.Replica.Retries += vs.Replica.Retries
			st.Replica.Errors += vs.Replica.Errors
			st.Replica.Stalls += vs.ReplicaStalls
		}
	}
	if appended > 0 {
		st.GC.MeasuredWAF = float64(appended+st.GC.BytesCopied) / float64(appended)
	}
	st.Arena = h.arena.Stats()
	if h.meter != nil {
		st.Backend = h.meter.Stats()
	}
	return st
}

// Close closes every open volume (draining and checkpointing each)
// and persists the shared arena. Each volume's stats are snapshotted
// after its close drains (so close-time seals and uploads are counted;
// the gate retires counters rather than losing them) and persisted at
// statsKey, keeping the session's group-commit, upload-pipeline, GC
// and replication behavior observable offline via `lsvd-ctl volumes`.
func (h *Host) Close() error {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	var first error
	var rows []VolumeStats
	for _, e := range h.openSnapshot() {
		d := e.Disk.(*core.Disk)
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
		rows = append(rows, VolumeStats{Name: e.Name, Stats: d.Stats()})
	}
	if err := h.arena.Persist(); err != nil && first == nil {
		first = err
	}
	// Advisory observability only: a failed snapshot PUT never turns a
	// clean close into an error.
	h.persistStats(rows)
	return first
}

// statsKey is where the last session's per-volume stats snapshot lives
// in the bucket.
const statsKey = "host/stats"

// statsVersion is the snapshot format: version 4 is every volume's
// core.Stats as is. Versions 1–3 were a hand-flattened subset of it;
// LoadStatsSnapshot reads them, like any format it does not know, as
// "no snapshot".
const statsVersion = 4

type statsFile struct {
	Version int           `json:"version"`
	Volumes []VolumeStats `json:"volumes"`
}

// persistStats writes the snapshot; FlatKeys hosts have no reserved
// key namespace to write into, so they skip it.
func (h *Host) persistStats(rows []VolumeStats) {
	if h.opts.FlatKeys {
		return
	}
	raw, err := json.Marshal(statsFile{Version: statsVersion, Volumes: rows})
	if err != nil {
		return
	}
	_ = h.retry.Put(context.Background(), statsKey, raw)
}

// LoadStatsSnapshot reads the per-volume stats persisted by the last
// clean host Close. A bucket no host has closed yet, an unparseable
// snapshot and one in another format version all yield nil, nil — the
// caller degrades to "n/a", never to an error.
//
//lsvd:classifies-errors
func LoadStatsSnapshot(ctx context.Context, store objstore.Store) ([]VolumeStats, error) {
	raw, err := store.Get(ctx, statsKey)
	if err != nil {
		if errors.Is(err, objstore.ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	var f statsFile
	if err := json.Unmarshal(raw, &f); err != nil || f.Version != statsVersion {
		return nil, nil
	}
	return f.Volumes, nil
}
