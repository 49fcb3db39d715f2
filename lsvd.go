// Package lsvd is a log-structured virtual disk: the public API of
// this repository's from-scratch reproduction of "Beating the I/O
// Bottleneck: A Case for Log-Structured Virtual Disks" (EuroSys '22).
//
// An LSVD volume is a virtual block device that couples a
// log-structured write-back cache on a local SSD with a log-structured
// stream of immutable objects on any S3-like store:
//
//	store, _ := lsvd.DirStore("/var/lib/lsvd/objects")
//	cache, _ := lsvd.FileCacheDevice("/var/lib/lsvd/cache.img", 10*lsvd.GiB)
//	disk, _ := lsvd.Create(ctx, lsvd.VolumeOptions{
//		Name: "vm1", Store: store, Cache: cache, Size: 100 * lsvd.GiB,
//	})
//	defer disk.Close()
//	_ = disk.WriteAt(buf, 0)       // acknowledged when logged locally
//	_ = disk.Flush()               // commit barrier: one SSD flush
//	_ = lsvd.ServeNBD(ln, "vm1", disk) // expose to the kernel
//
// Writes are acknowledged as soon as they are persisted in the local
// log, batched into large objects for the backend, and garbage
// collected as they are overwritten. Crash recovery replays the local
// log over the backend's consistent prefix; if the cache is lost
// entirely, the volume recovers to a consistent prefix of committed
// writes (prefix consistency). Snapshots, clones from golden images,
// and asynchronous replication ride on the immutable object stream.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-reproduction results.
package lsvd

import (
	"context"
	"errors"
	"net"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/core"
	"lsvd/internal/host"
	"lsvd/internal/nbd"
	"lsvd/internal/objstore"
	"lsvd/internal/replica"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
)

// Size units.
const (
	KiB = block.KiB
	MiB = block.MiB
	GiB = block.GiB
	TiB = block.TiB
)

// Disk is the virtual block device: sector-aligned ReadAt/WriteAt,
// Flush (commit barrier), Trim (discard), Size.
type Disk = core.Disk

// BlockDevice is the minimal interface all disks in this module
// implement (LSVD volumes, baselines, NBD clients).
type BlockDevice = vdisk.Disk

// ObjectStore is the S3-like backend interface.
type ObjectStore = objstore.Store

// RetryPolicy configures backend retry/backoff (see VolumeOptions.Retry).
type RetryPolicy = objstore.RetryPolicy

// CacheDevice is the local SSD abstraction.
type CacheDevice = simdev.Device

// SnapshotInfo names a snapshot and its position in the object stream.
type SnapshotInfo = blockstore.SnapshotInfo

// Stats aggregates counters from all layers of a volume.
type Stats = core.Stats

// VolumeOptions configures Create and Open.
type VolumeOptions struct {
	// Name is the volume name; backend objects are "<name>.<seq>".
	Name string
	// Store is the object backend.
	Store ObjectStore
	// Cache is the local SSD (file- or memory-backed).
	Cache CacheDevice
	// Size is the virtual disk size in bytes (Create only).
	Size int64

	// Advanced tuning; zero values select the paper's configuration.
	BatchBytes  int64   // backend object size (8 MiB)
	GCLowWater  float64 // GC trigger utilization: 0 selects 0.70; <0 disables
	GCHighWater float64 // GC stop utilization (0.75)

	// UploadDepth bounds concurrent backend object PUTs in the destage
	// pipeline (4); FetchDepth bounds concurrent backend range GETs on
	// the read-miss path (8).
	UploadDepth int
	FetchDepth  int

	// Retry is the backend retry policy: transient store failures are
	// retried with exponential backoff + jitter under one per-op
	// attempt budget across reads, uploads, GC and recovery. The zero
	// value selects the defaults (4 attempts, 2 ms base backoff);
	// MaxAttempts < 0 disables retries.
	Retry RetryPolicy

	// ReplicaStore enables asynchronous replication (§4.8): a
	// background shipper copies every committed object to this second
	// store in commit order, keeping it a crash-consistent prefix of
	// the primary. Recover from it with OpenFromReplica.
	ReplicaStore ObjectStore
	// ReplicaMaxLagObjects bounds the replication lag — the
	// recovery-point objective. When more committed objects than this
	// are unshipped, writes stall until the shipper catches up; 0
	// leaves the lag unbounded.
	ReplicaMaxLagObjects int
}

// coreOptions is the one translation of the public volume façade into
// the internal options: each field lands in the half that declares it.
func (o VolumeOptions) coreOptions() core.Options {
	return core.Options{
		HostOptions: core.HostOptions{
			Store:       o.Store,
			Cache:       o.Cache,
			UploadDepth: o.UploadDepth,
			FetchDepth:  o.FetchDepth,
			Retry:       o.Retry,
		},
		VolumeOptions: core.VolumeOptions{
			Volume:      o.Name,
			VolBytes:    o.Size,
			BatchBytes:  o.BatchBytes,
			GCLowWater:  o.GCLowWater,
			GCHighWater: o.GCHighWater,

			ReplicaStore:         o.ReplicaStore,
			ReplicaMaxLagObjects: o.ReplicaMaxLagObjects,
		},
	}
}

// Create initializes a new volume on a cache device of its own: the
// one-slot cache layout a host's slot uses, its own upload gate and fetch
// budget, and its objects at the bucket root as "<name>.<seq>".
// Multi-volume deployments use OpenHost instead.
func Create(ctx context.Context, o VolumeOptions) (*Disk, error) {
	return core.Create(ctx, o.coreOptions())
}

// Open recovers an existing volume: local log replay, backend prefix
// recovery, and re-destage of any writes the backend is missing.
func Open(ctx context.Context, o VolumeOptions) (*Disk, error) {
	return core.Open(ctx, o.coreOptions())
}

// Clone creates a new volume sharing the base volume's objects up to
// the named snapshot as an immutable prefix (copy-on-write clone).
func Clone(ctx context.Context, store ObjectStore, baseVolume, snapshot, newVolume string) error {
	return blockstore.Clone(ctx, blockstore.Config{Volume: baseVolume, Store: objstore.NewRetrier(store, RetryPolicy{})}, snapshot, newVolume)
}

// OpenSnapshot mounts a named snapshot read-only; writes and trims
// return core.ErrReadOnly. Like OpenFromReplica it formats a fresh
// write log over the first fifth of o.Cache, so pass a scratch cache
// device: handing it a live volume's cache destroys that volume's
// unflushed log.
func OpenSnapshot(ctx context.Context, o VolumeOptions, snapshot string) (*Disk, error) {
	return core.OpenSnapshot(ctx, o.coreOptions(), snapshot)
}

// MemStore returns an in-memory object store (tests, experiments).
func MemStore() ObjectStore { return objstore.NewMem() }

// DirStore returns an object store backed by a directory tree. Puts
// are atomic and crash-durable (fsync before and after the rename).
func DirStore(dir string) (ObjectStore, error) { return objstore.NewDir(dir) }

// DirStoreNoSync returns a directory store with the durability fsyncs
// disabled — faster, but an acknowledged object can vanish if the
// host crashes before writeback. Benchmarks only.
func DirStoreNoSync(dir string) (ObjectStore, error) { return objstore.NewDirNoSync(dir) }

// MemCacheDevice returns an in-memory cache device of the given size.
func MemCacheDevice(size int64) CacheDevice { return simdev.NewMem(size) }

// FileCacheDevice opens (creating if needed) a file-backed cache
// device.
func FileCacheDevice(path string, size int64) (CacheDevice, error) {
	return simdev.OpenFile(path, size)
}

// ServeNBD exports disks over the NBD protocol on ln, blocking until
// the listener closes. Use an nbd-client or qemu against the address.
func ServeNBD(ln net.Listener, name string, disk BlockDevice, more ...struct {
	Name string
	Disk BlockDevice
}) error {
	srv := nbd.NewServer(nbd.Export{Name: name, Disk: disk})
	for _, m := range more {
		srv.AddExport(nbd.Export{Name: m.Name, Disk: m.Disk})
	}
	return srv.Serve(ln)
}

// ReplicaStats reports a replicated volume's shipping progress and
// live lag (Stats.Replica).
type ReplicaStats = replica.Stats

// OpenFromReplica recovers a volume from its replica store after the
// primary is lost (§4.8). The replica is a crash-consistent prefix of
// the primary, so this is exactly crash recovery against a surviving
// backend. With promote, the replica becomes the new primary: the
// volume opens writable against it, un-replicated (to re-replicate,
// use Open with Store set to the old replica and ReplicaStore to a
// fresh target). Without promote, the volume mounts read-only for
// inspection, leaving the replica untouched.
// o.Store is ignored; o.Cache is used for caching only — a stale
// primary cache must NOT be replayed over the replica's history, so
// pass a fresh cache device.
func OpenFromReplica(ctx context.Context, o VolumeOptions, promote bool) (*Disk, error) {
	if o.ReplicaStore == nil {
		return nil, errors.New("lsvd: OpenFromReplica requires ReplicaStore")
	}
	o.Store, o.ReplicaStore = o.ReplicaStore, nil
	if promote {
		return Open(ctx, o)
	}
	return core.OpenReadOnly(ctx, o.coreOptions())
}

// Host packs many volumes onto one cache SSD and one backend bucket:
// per-volume write-cache log slots, one shared read-cache arena with
// fair eviction, host-wide upload/fetch concurrency budgets, and
// per-volume key namespaces ("vol/<name>/…"). See internal/host.
type Host = host.Host

// HostStats is the host-aggregate picture: per-volume stats, arena
// occupancy, and backend op counts.
type HostStats = host.Stats

// VolumeSpec is the per-volume half of the configuration for volumes
// created/opened on a Host (size, batch size, GC water marks, destage
// tuning). Host-level knobs — cache split, budgets, retry — live in
// HostOptions.
type VolumeSpec = core.VolumeOptions

// HostOptions configures OpenHost: the host-owned half of a volume's
// configuration, shared by every volume on the host — backend, cache
// SSD, its split (MaxVolumes write-cache slots carved from
// WriteCacheFrac of it), the host-wide UploadDepth and FetchDepth
// budgets, and the retry policy. Zero values select the defaults (8
// slots, 0.2, 4, 8, and the retry defaults).
type HostOptions = core.HostOptions

// OpenHost opens a multi-volume host on one SSD and one bucket:
//
//	h, _ := lsvd.OpenHost(ctx, lsvd.HostOptions{Store: store, Cache: cache})
//	vm1, _ := h.Create(ctx, "vm1", lsvd.VolumeSpec{VolBytes: 100 * lsvd.GiB})
//	vm2, _ := h.Create(ctx, "vm2", lsvd.VolumeSpec{VolBytes: 50 * lsvd.GiB})
//	go h.ServeNBD(ln) // one endpoint, one export per volume
//
// Volumes lease per-volume write-log slots and share the read arena
// and backend budgets; h.Close() closes every open volume.
func OpenHost(ctx context.Context, o HostOptions) (*Host, error) {
	return host.New(ctx, o)
}
