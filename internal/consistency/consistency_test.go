package consistency

import (
	"context"
	"math/rand"
	"testing"

	"lsvd/internal/baseline/bcache"
	"lsvd/internal/baseline/rbd"
	"lsvd/internal/block"
	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Main(m) }

var ctx = context.Background()

func TestCleanDiskIsConsistent(t *testing.T) {
	d := simdev.NewMem(16 * block.MiB)
	w, err := NewWriter(devDisk{d})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Write(int64(i%50), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	r, err := w.Check(devDisk{d})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mountable || !r.CommittedPreserved {
		t.Fatalf("clean disk flagged: %+v", r)
	}
	if r.RecoveredVersion != w.Version() {
		t.Fatalf("recovered v%d want v%d", r.RecoveredVersion, w.Version())
	}
}

// devDisk adapts a simdev.Device to vdisk.Disk for direct testing.
type devDisk struct{ dev simdev.Device }

func (d devDisk) ReadAt(p []byte, off int64) error  { return d.dev.ReadAt(p, off) }
func (d devDisk) WriteAt(p []byte, off int64) error { return d.dev.WriteAt(p, off) }
func (d devDisk) Flush() error                      { return d.dev.Flush() }
func (d devDisk) Trim(off, n int64) error           { return nil }
func (d devDisk) Size() int64                       { return d.dev.Size() }

func TestDetectsNonPrefixState(t *testing.T) {
	d := simdev.NewMem(16 * block.MiB)
	w, _ := NewWriter(devDisk{d})
	// v1 -> block 0, v2 -> block 1, v3 -> block 0.
	_ = w.Write(0, 1) // v1
	_ = w.Write(1, 1) // v2
	_ = w.Write(0, 1) // v3
	// Manually revert block 1 to unwritten: the state {b0: v3, b1: -}
	// is NOT a prefix (v3 present requires v2 present).
	zero := make([]byte, block.BlockSize)
	_ = d.WriteAt(zero, 1*block.BlockSize)
	r, err := w.Check(devDisk{d})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mountable {
		t.Fatalf("non-prefix state accepted: %+v", r)
	}
}

func TestAcceptsAnyTruePrefix(t *testing.T) {
	// Build states corresponding to every prefix and check each.
	for cut := 0; cut <= 6; cut++ {
		d := simdev.NewMem(16 * block.MiB)
		w, _ := NewWriter(devDisk{d})
		writes := []struct {
			blk int64
			n   int
		}{{0, 1}, {5, 2}, {0, 1}, {3, 1}, {5, 1}, {2, 2}}
		// Apply all writes to the history but only the first `cut` to
		// a shadow device representing the recovered state.
		shadow := simdev.NewMem(16 * block.MiB)
		for i, wr := range writes {
			if err := w.Write(wr.blk, wr.n); err != nil {
				t.Fatal(err)
			}
			if i < cut {
				// Copy the blocks just written to the shadow.
				buf := make([]byte, int64(wr.n)*block.BlockSize)
				_ = d.ReadAt(buf, wr.blk*block.BlockSize)
				_ = shadow.WriteAt(buf, wr.blk*block.BlockSize)
			}
		}
		r, err := w.Check(devDisk{shadow})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Mountable {
			t.Fatalf("true prefix cut=%d rejected: %+v", cut, r)
		}
	}
}

// TestLSVDCrashIsMountable is the unit-level version of Table 4 row
// LSVD: crash with total cache loss after a drain -> mountable,
// prefix-consistent image.
func TestLSVDCrashIsMountable(t *testing.T) {
	store := objstore.NewMem()
	opts := core.Options{
		HostOptions:   core.HostOptions{Store: store, CacheDev: simdev.NewMem(128 * block.MiB)},
		VolumeOptions: core.VolumeOptions{Volume: "vol", VolBytes: 128 * block.MiB, BatchBytes: 256 * 1024},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWriter(disk)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		if err := w.Write(rng.Int63n(1000), rng.Intn(4)+1); err != nil {
			t.Fatal(err)
		}
		if i%40 == 0 {
			_ = w.Barrier()
		}
	}
	// Crash with TOTAL cache loss (worst case, §3.4). Kill the old
	// stack's destage pipeline as the crash would.
	disk.Kill()
	opts.CacheDev = simdev.NewMem(128 * block.MiB)
	disk2, err := core.Open(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk2.Kill)
	r, err := w.Check(disk2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mountable {
		t.Fatalf("LSVD image not prefix consistent: %+v", r)
	}
}

// TestLSVDCrashWithCacheKeepsCommitted: with the cache surviving, all
// committed writes must be recovered (§3.3).
func TestLSVDCrashWithCacheKeepsCommitted(t *testing.T) {
	store := objstore.NewMem()
	cache := simdev.NewMem(128 * block.MiB)
	opts := core.Options{
		HostOptions:   core.HostOptions{Store: store, CacheDev: cache},
		VolumeOptions: core.VolumeOptions{Volume: "vol", VolBytes: 128 * block.MiB, BatchBytes: 1 * block.MiB},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWriter(disk)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		_ = w.Write(rng.Int63n(1000), rng.Intn(4)+1)
	}
	_ = w.Barrier()
	for i := 0; i < 50; i++ { // uncommitted tail
		_ = w.Write(rng.Int63n(1000), 1)
	}
	disk.Kill()
	cache.Crash(1.0, rand.New(rand.NewSource(9)))
	disk2, err := core.Open(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk2.Kill)
	r, err := w.Check(disk2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mountable {
		t.Fatalf("not mountable: %+v", r)
	}
	if !r.CommittedPreserved {
		t.Fatalf("committed writes lost: recovered v%d, committed v%d", r.RecoveredVersion, w.Committed())
	}
}

// TestBcacheCrashMidWritebackIsInconsistent reproduces Table 4's
// bcache failure: crash during LBA-order write-back leaves a state
// that is not any prefix of the history.
func TestBcacheCrashMidWritebackIsInconsistent(t *testing.T) {
	pool, err := cluster.New(cluster.SSDConfig1())
	if err != nil {
		t.Fatal(err)
	}
	backing, err := rbd.New(rbd.Options{Volume: "img", Pool: pool, VolBytes: 64 * block.MiB})
	if err != nil {
		t.Fatal(err)
	}
	c, err := bcache.New(bcache.Options{Dev: simdev.NewMem(64 * block.MiB), Backing: backing})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWriter(c)
	// Write high blocks first, then low blocks, with barriers; then a
	// partial write-back (LBA order destages the NEWER low blocks
	// first) and a crash.
	for i := 40; i < 60; i++ {
		_ = w.Write(int64(i), 1)
	}
	_ = w.Barrier()
	for i := 0; i < 20; i++ {
		_ = w.Write(int64(i), 1)
	}
	_ = w.Barrier()
	if err := c.WriteBack(10 * block.BlockSize); err != nil {
		t.Fatal(err)
	}
	recovered := c.Crash()
	r, err := w.Check(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mountable {
		t.Fatalf("bcache mid-writeback crash produced a consistent image — model broken: %+v", r)
	}
}
