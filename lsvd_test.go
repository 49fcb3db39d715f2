package lsvd

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"lsvd/internal/nbd"
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

// TestEveryPublicKnobReachesTheCore sets each exported field of the two
// public option façades alone and requires the internal options to
// change: a field added to a façade and forgotten in its translation
// fails here instead of being silently ignored.
func TestEveryPublicKnobReachesTheCore(t *testing.T) {
	each := func(facade any, translate func(reflect.Value) any) {
		typ := reflect.TypeOf(facade)
		zero := translate(reflect.New(typ).Elem())
		for i := 0; i < typ.NumField(); i++ {
			o := reflect.New(typ).Elem()
			setNonZero(t, o.Field(i))
			if reflect.DeepEqual(translate(o), zero) {
				t.Errorf("%s.%s does not reach the internal options", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	each(VolumeOptions{}, func(o reflect.Value) any { return o.Interface().(VolumeOptions).coreOptions() })
	each(HostOptions{}, func(o reflect.Value) any { return o.Interface().(HostOptions).hostOptions() })
}
