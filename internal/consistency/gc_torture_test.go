package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// GC torture: the concurrent-writer workload with the paced background
// GC service deliberately kept busy (low-water raised to 0.95, so any
// overwrite garbage wakes it) while the backend injects faults and the
// main goroutine kills the disk mid-pass. On top of the per-writer
// prefix-consistency audit this asserts what the GC must never break:
// the utilization accounting stays exact across aborted passes,
// crash-orphaned GC objects, and the open-time deferred-delete resweep.
func TestGCTorture(t *testing.T) {
	seed := envInt("LSVD_FAULT_SEED", 1)
	iters := envInt("LSVD_FAULT_ITERS", 12)
	if testing.Short() && iters > 4 {
		iters = 4
	}
	baseGoroutines := runtime.NumGoroutine()
	for it := int64(0); it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			gcTortureIteration(t, seed+it)
		})
		if t.Failed() {
			break
		}
	}
	waitGoroutines(t, baseGoroutines)
}

func gcTortureIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x67635f74))
	store := faultStore(t, "backend", objstore.NewMem())
	cache := simdev.NewMem(32 * block.MiB)
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: store, Cache: cache, UploadDepth: 2,
			Retry: objstore.RetryPolicy{
				MaxAttempts: 16,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    time.Millisecond,
				Seed:        seed,
			},
		},
		VolumeOptions: core.VolumeOptions{
			Volume: "vol", VolBytes: 16 * block.MiB, BatchBytes: 128 << 10,
			CheckpointEvery: 4, DestageQueueDepth: 32,
			// Keep the service hungry: almost any garbage pulls utilization
			// under the low-water mark, so passes overlap the writers, the
			// faults and the Kill.
			GCLowWater: 0.95, GCHighWater: 0.98,
		},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	disarm := store.Tear(testrec.Any.Chance(seed, cwFaultRate), seed)
	defer disarm()

	writers := make([]*cwWriter, cwWriters)
	var wg sync.WaitGroup
	for g := 0; g < cwWriters; g++ {
		w := &cwWriter{gid: g, base: int64(g) * cwSpan}
		writers[g] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(disk, seed*int64(cwWriters)+int64(w.gid))
		}()
	}
	time.Sleep(time.Duration(2+rng.Intn(7)) * time.Millisecond)
	disk.Kill()
	wg.Wait()
	for _, w := range writers {
		if w.err != nil {
			t.Fatalf("writer %d failed outside the fault model: %v", w.gid, w.err)
		}
	}

	cacheSurvives := rng.Intn(2) == 0
	if !cacheSurvives {
		opts.Cache = simdev.NewMem(32 * block.MiB)
	}
	disk2, err := openWithRetry(t, opts)
	if err != nil {
		t.Fatalf("recovery failed (cacheSurvives=%v): %v", cacheSurvives, err)
	}
	for _, w := range writers {
		if err := w.check(disk2, cacheSurvives); err != nil {
			t.Error(err)
			disarm()
			dumpObjects(t, store, w.base, w.base+cwSpan)
		}
	}
	// The counters the GC steers by must match a from-scratch recompute
	// right after recovery — a drift here is exactly the class of bug an
	// aborted pass or a half-done deferred delete used to leave behind.
	if err := disk2.Backend().AuditUtilization(); err != nil {
		t.Errorf("utilization drift after recovery: %v", err)
	}

	// The recovered disk must keep working with the service running:
	// stamped overwrites per range (fresh garbage for the GC), a
	// barrier, a read-back, and a second accounting audit.
	for _, w := range writers {
		seq := uint64(len(w.ops)) + 1
		buf := make([]byte, block.BlockSize)
		stampBlock(buf, cwStamp(w.gid, seq), w.base)
		if err := disk2.WriteAt(buf, w.base*block.BlockSize); err != nil {
			if errors.Is(err, testrec.ErrFault) {
				disarm()
				_ = disk2.Close()
				return // legal crash point; this iteration ends here
			}
			t.Fatalf("post-recovery write (writer %d): %v", w.gid, err)
		}
	}
	if err := disk2.Flush(); err != nil && !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("post-recovery barrier: %v", err)
	}
	for _, w := range writers {
		buf := make([]byte, block.BlockSize)
		if err := disk2.ReadAt(buf, w.base*block.BlockSize); err != nil {
			t.Fatalf("post-recovery read (writer %d): %v", w.gid, err)
		}
		v, idx, ok := readStamp(buf)
		if gid, seq := cwDecode(v); !ok || gid != w.gid || idx != w.base || seq != uint64(len(w.ops))+1 {
			t.Fatalf("post-recovery read-back (writer %d): got stamp ok=%v v=%d idx=%d", w.gid, ok, v, idx)
		}
	}
	if err := disk2.Backend().AuditUtilization(); err != nil {
		t.Errorf("utilization drift under post-recovery GC: %v", err)
	}
	st := disk2.Backend().Stats()
	t.Logf("post-recovery gc: runs=%d victims=%d copied=%d yields=%d util=%.3f",
		st.GCRuns, st.GCVictims, st.GCBytesCopied, st.GCYields, disk2.Backend().Utilization())

	disarm() // let Close drain without injected failures
	if err := disk2.Close(); err != nil {
		t.Logf("close after GC torture: %v", err)
	}
}
