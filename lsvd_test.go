package lsvd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lsvd/internal/blockstore"
	"lsvd/internal/host"
	"lsvd/internal/nbd"
	"lsvd/internal/objstore"
)

var ctx = context.Background()

func TestPublicAPIRoundTrip(t *testing.T) {
	disk, err := Create(ctx, VolumeOptions{
		Name: "v", Store: MemStore(), Cache: MemCacheDevice(256 * MiB), Size: 256 * MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(data)
	if err := disk.WriteAt(data, 1*MiB); err != nil {
		t.Fatal(err)
	}
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := disk.ReadAt(got, 1*MiB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if disk.Size() != 256*MiB {
		t.Fatalf("size %d", disk.Size())
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateOverUsedCacheDevice: Create formats the cache device, and a
// volume that crashes before writing anything must come back empty even
// though the device still holds another volume's log.
func TestCreateOverUsedCacheDevice(t *testing.T) {
	cache := MemCacheDevice(256 * MiB)
	old, err := Create(ctx, VolumeOptions{Name: "old", Store: MemStore(), Cache: cache, Size: 64 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteAt(bytes.Repeat([]byte{0x5a}, 64*1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := VolumeOptions{Name: "new", Store: MemStore(), Cache: cache, Size: 64 * MiB}
	disk, err := Create(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	disk.Kill()
	if disk, err = Open(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().RecoveredReplayed; got != 0 {
		t.Fatalf("a never-written volume replayed %d cache records", got)
	}
	got := make([]byte, 64*1024)
	if err := disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a never-written volume reads the previous volume's data")
	}
}

func TestPublicAPIDirStoreFileCache(t *testing.T) {
	dir := t.TempDir()
	store, err := DirStore(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := FileCacheDevice(filepath.Join(dir, "cache.img"), 64*MiB)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Create(ctx, VolumeOptions{Name: "v", Store: store, Cache: cache, Size: 64 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("durable across reopen............................................")
	data = data[:64]
	pad := make([]byte, 4096)
	copy(pad, data)
	if err := disk.WriteAt(pad, 0); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen from the same directory and cache file.
	cache2, err := FileCacheDevice(filepath.Join(dir, "cache.img"), 64*MiB)
	if err != nil {
		t.Fatal(err)
	}
	disk2, err := Open(ctx, VolumeOptions{Name: "v", Store: store, Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := disk2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pad) {
		t.Fatal("data lost across reopen")
	}
}

func TestPublicAPISnapshotClone(t *testing.T) {
	store := MemStore()
	disk, err := Create(ctx, VolumeOptions{Name: "base", Store: store, Cache: MemCacheDevice(128 * MiB), Size: 128 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	rand.New(rand.NewSource(2)).Read(data)
	_ = disk.WriteAt(data, 0)
	if _, err := disk.Snapshot("golden"); err != nil {
		t.Fatal(err)
	}
	if err := Clone(ctx, store, "base", "golden", "vm1"); err != nil {
		t.Fatal(err)
	}
	vm1, err := Open(ctx, VolumeOptions{Name: "vm1", Store: store, Cache: MemCacheDevice(128 * MiB)})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := vm1.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clone cannot read base image")
	}
}

func TestPublicAPINBD(t *testing.T) {
	disk, err := Create(ctx, VolumeOptions{Name: "v", Store: MemStore(), Cache: MemCacheDevice(64 * MiB), Size: 64 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ServeNBD(ln, "v", disk) }()
	defer ln.Close()
	c, err := nbd.Dial(ln.Addr().String(), "v")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(data)
	if err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("NBD round trip mismatch")
	}
}

func TestPublicAPIReplication(t *testing.T) {
	primary := MemStore()
	secondary := MemStore()
	disk, err := Create(ctx, VolumeOptions{
		Name: "v", Store: primary, Cache: MemCacheDevice(64 * MiB),
		Size: 64 * MiB, BatchBytes: 256 * 1024,
		ReplicaStore: secondary, ReplicaMaxLagObjects: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512*1024)
	rand.New(rand.NewSource(4)).Read(data)
	_ = disk.WriteAt(data, 0)
	// Close drains the shipper: the replica ends at zero lag.
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if st := disk.Stats(); !st.ReplicaEnabled || st.Replica.LagObjects != 0 {
		t.Fatalf("replica not drained: %+v", st.Replica)
	}

	// Read-only inspection mount of the replica.
	ro, err := OpenFromReplica(ctx, VolumeOptions{
		Name: "v", ReplicaStore: secondary, Cache: MemCacheDevice(64 * MiB),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := ro.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-only replica content differs")
	}
	if err := ro.WriteAt(data, 0); err == nil {
		t.Fatal("read-only replica mount accepted a write")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote: the replica becomes the new primary with a fresh cache.
	rdisk, err := OpenFromReplica(ctx, VolumeOptions{
		Name: "v", ReplicaStore: secondary, Cache: MemCacheDevice(64 * MiB),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(data))
	if err := rdisk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica content differs")
	}
	// The promoted volume is writable (liveness after failover).
	if err := rdisk.WriteAt(data, MiB); err != nil {
		t.Fatal(err)
	}
	if err := rdisk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryDoorRefusesBadInput: each single-volume entry point refuses
// a missing store or cache device and a name that cannot be a key
// namespace before it sends the backend a single request. The same
// door with the input left alone opens the volume.
func TestEveryDoorRefusesBadInput(t *testing.T) {
	existing := MemStore()
	disk, err := Create(ctx, VolumeOptions{Name: "v", Store: existing, Cache: MemCacheDevice(64 * MiB), Size: 16 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Snapshot("snap"); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	doors := []struct {
		name  string
		store ObjectStore // what the door opens the volume from
		open  func(VolumeOptions) (*Disk, error)
	}{
		{"Create", MemStore(), func(o VolumeOptions) (*Disk, error) { return Create(ctx, o) }},
		{"Open", existing, func(o VolumeOptions) (*Disk, error) { return Open(ctx, o) }},
		{"OpenSnapshot", existing, func(o VolumeOptions) (*Disk, error) { return OpenSnapshot(ctx, o, "snap") }},
		{"OpenFromReplica", existing, func(o VolumeOptions) (*Disk, error) {
			o.Store, o.ReplicaStore = nil, o.Store
			return OpenFromReplica(ctx, o, false)
		}},
	}
	type input struct {
		name   string
		mutate func(*VolumeOptions)
	}
	inputs := []input{
		{"nil Cache", func(o *VolumeOptions) { o.Cache = nil }},
		{"nil Store", func(o *VolumeOptions) { o.Store = nil }},
	}
	for _, name := range []string{"", "..", "a/b", "#tmp#x"} {
		inputs = append(inputs, input{fmt.Sprintf("name %q", name), func(o *VolumeOptions) { o.Name = name }})
	}
	for _, door := range doors {
		o := VolumeOptions{Name: "v", Store: door.store, Cache: MemCacheDevice(64 * MiB), Size: 16 * MiB}
		d, err := door.open(o)
		if err != nil {
			t.Fatalf("%s with good input: %v", door.name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			meter := &objstore.Metered{Inner: door.store}
			o := VolumeOptions{Name: "v", Store: meter, Cache: MemCacheDevice(64 * MiB), Size: 16 * MiB}
			in.mutate(&o)
			if d, err := door.open(o); err == nil {
				d.Kill()
				t.Errorf("%s with %s: no error", door.name, in.name)
			}
			if st := meter.Stats(); st != (objstore.Stats{}) {
				t.Errorf("%s with %s: %+v backend ops before refusing", door.name, in.name, st)
			}
		}
	}
}

// TestCreateKeepsTheFlatLayout: a volume from Create keeps its objects
// at the bucket root as "<name>.<seq>" and writes no host metadata, so
// buckets written before the multi-volume host open unchanged.
func TestCreateKeepsTheFlatLayout(t *testing.T) {
	store := MemStore()
	disk, err := Create(ctx, VolumeOptions{Name: "vm", Store: store, Cache: MemCacheDevice(32 * MiB), Size: 4 * MiB})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.WriteAt(bytes.Repeat([]byte{7}, 128<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if names, err := store.List(ctx, "vm."); err != nil || len(names) == 0 {
		t.Fatalf("no objects under vm.: %v %v", names, err)
	}
	if names, err := store.List(ctx, "host/"); err != nil || len(names) != 0 {
		t.Fatalf("host metadata in the bucket: %v %v", names, err)
	}
}

// TestCreateCacheInspectsAsOneSlotHost: a cache device written by
// Create and Open is the one-slot host layout, so host.InspectArena
// with maxVolumes 1 (lsvd-ctl -cache -max-volumes 1) finds the read
// cache's "" view and what it holds.
func TestCreateCacheInspectsAsOneSlotHost(t *testing.T) {
	store, cache := MemStore(), MemCacheDevice(64*MiB)
	o := VolumeOptions{Name: "v", Store: store, Cache: cache, Size: 16 * MiB}
	disk, err := Create(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{9}, 1<<20)
	if err := disk.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	// After a reopen the write cache no longer serves what the backend
	// holds, so this read goes through the read cache.
	if disk, err = Open(ctx, o); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := host.InspectArena(cache, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveSlabs == 0 || len(st.Views) != 1 || st.Views[0].Volume != "" || st.Views[0].Bytes < int64(len(data)) {
		t.Fatalf("arena %+v: want one live \"\" view holding the %d bytes read", st, len(data))
	}
}

// peek follows a path of field names, exported or not, through
// pointers and interfaces from v. The door test reads the configuration
// a running disk resolved where the disk keeps it, so that no accessor
// exists for a test alone.
func peek(t *testing.T, v any, path string) reflect.Value {
	t.Helper()
	r := reflect.ValueOf(v)
	for _, name := range strings.Split(path, ".") {
		for r.Kind() == reflect.Pointer || r.Kind() == reflect.Interface {
			r = r.Elem()
		}
		if r = r.FieldByName(name); !r.IsValid() {
			t.Fatalf("%T has no field path %s", v, path)
		}
	}
	return r
}

// number reads an integer, a float or a channel's capacity.
func number(r reflect.Value) float64 {
	switch {
	case r.CanInt():
		return float64(r.Int())
	case r.CanUint():
		return float64(r.Uint())
	case r.CanFloat():
		return r.Float()
	}
	return float64(r.Cap())
}

// TestZeroMeansTheDefaultAtEveryDoor: at every door — Create, Open,
// OpenHost with Host.Create, and Host.Open — options left zero resolve
// to the documented defaults, read from the running disk's resolved
// options (opts) and its block store's config (bs.cfg). GCLowWater is
// the trap: a door's 0 means 0.70, while a blockstore.Config's 0 means
// no collector, which a bare store shows.
func TestZeroMeansTheDefaultAtEveryDoor(t *testing.T) {
	want := []struct {
		path string
		v    float64
	}{
		{"opts.MaxVolumes", 8},
		{"opts.WriteCacheFrac", 0.2},
		{"opts.UploadDepth", 4},
		{"opts.FetchDepth", 8},
		{"opts.Retry.MaxAttempts", 0}, // the Retrier's defaults, below
		{"opts.GCLowWater", 0.70},
		{"opts.GCHighWater", 0.75},
		{"opts.PrefetchSectors", 256},
		{"opts.DestageQueueDepth", 256},
		{"bs.cfg.BatchBytes", 8 << 20},
		{"bs.cfg.CheckpointEvery", 32},
		{"bs.cfg.GCLowWater", 0.70},
		{"bs.cfg.GCHighWater", 0.75},
		{"bs.cfg.UploadDepth", 4},
		{"bs.cfg.UploadGate.cap", 4},
		{"bs.cfg.FetchSem", 8},
		{"bs.cfg.Store.policy.MaxAttempts", 0},
	}
	if p := (RetryPolicy{}); p.Attempts() != 4 {
		t.Fatalf("the zero retry policy makes %d attempts, want the documented 4", p.Attempts())
	}
	check := func(door string, d *Disk, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		for _, w := range want {
			if got := number(peek(t, d, w.path)); got != w.v {
				t.Errorf("%s: %s = %v, want %v", door, w.path, got, w.v)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	o := VolumeOptions{Name: "v", Store: MemStore(), Cache: MemCacheDevice(64 * MiB), Size: 16 * MiB}
	d, err := Create(ctx, o)
	check("Create", d, err)
	d, err = Open(ctx, o)
	check("Open", d, err)

	h, err := OpenHost(ctx, HostOptions{Store: MemStore(), Cache: MemCacheDevice(256 * MiB)})
	if err != nil {
		t.Fatal(err)
	}
	if got := number(peek(t, h, "layout.Slots")); got != 8 {
		t.Errorf("OpenHost carves %v write-cache slots, want 8", got)
	}
	d, err = h.Create(ctx, "v", VolumeSpec{VolBytes: 16 * MiB})
	check("Host.Create", d, err)
	d, err = h.Open(ctx, "v", VolumeSpec{})
	check("Host.Open", d, err)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	bs, err := blockstore.Create(ctx, blockstore.Config{Volume: "v", Store: MemStore(), VolSectors: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Abort()
	if lw, gc := number(peek(t, bs, "cfg.GCLowWater")), peek(t, bs, "gcDone"); lw != 0 || !gc.IsNil() {
		t.Errorf("a bare store's zero GCLowWater resolved to %v with a collector %v, want 0 and none", lw, !gc.IsNil())
	}
}

// TestBenchmarkModuleVets: benchmark/ is a module of its own, which the
// root go build and go test cannot see, and it uses the program's names
// — lsvd's options and doors, blockstore.Config, core's stats — as they
// are. go vet type-checks it against this checkout, so a rename it
// depends on fails here rather than only in the benchmark's smoke test.
func TestBenchmarkModuleVets(t *testing.T) {
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = "benchmark"
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}

// setNonZero gives one façade field a value its translation must carry.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch {
	case v.Type() == reflect.TypeOf((*ObjectStore)(nil)).Elem():
		v.Set(reflect.ValueOf(MemStore()))
	case v.Type() == reflect.TypeOf((*CacheDevice)(nil)).Elem():
		v.Set(reflect.ValueOf(MemCacheDevice(1 * MiB)))
	case v.Kind() == reflect.String:
		v.SetString("x")
	case v.CanInt():
		v.SetInt(4096)
	case v.CanFloat():
		v.SetFloat(0.5)
	case v.Kind() == reflect.Struct:
		setNonZero(t, v.Field(0))
	default:
		t.Fatalf("no non-zero value for a %s field; extend setNonZero", v.Type())
	}
}

// TestEveryPublicKnobReachesTheCore sets each exported field of the
// public volume façade alone and requires the internal options to
// change: a field added to VolumeOptions and forgotten in its
// translation fails here instead of being silently ignored. The host
// façade is core.HostOptions itself and has no translation.
func TestEveryPublicKnobReachesTheCore(t *testing.T) {
	typ := reflect.TypeOf(VolumeOptions{})
	zero := VolumeOptions{}.coreOptions()
	for i := 0; i < typ.NumField(); i++ {
		o := reflect.New(typ).Elem()
		setNonZero(t, o.Field(i))
		if reflect.DeepEqual(o.Interface().(VolumeOptions).coreOptions(), zero) {
			t.Errorf("VolumeOptions.%s does not reach the internal options", typ.Field(i).Name)
		}
	}
}
