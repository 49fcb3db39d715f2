package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
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
	iters := envInt("LSVD_FAULT_ITERS", 12)
	if testing.Short() && iters > 4 {
		iters = 4
	}
	torture(t, iters, gcTortureIteration)
}

func gcTortureIteration(w *walk) error {
	seed := w.seed
	rng := rand.New(rand.NewSource(seed ^ 0x67635f74))
	store := w.store("backend", objstore.NewMem())
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: store, Cache: w.device(), UploadDepth: 2,
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
		return err
	}
	defer disk.Kill()
	disarm := store.Tear(testrec.Any.Chance(seed, cwFaultRate), seed)
	defer disarm()

	writers := startWriters(w, disk, rng)
	for _, cw := range writers {
		if cw.err != nil {
			return fmt.Errorf("writer %d failed outside the fault model: %w", cw.gid, cw.err)
		}
	}

	cacheSurvives := rng.Intn(2) == 0
	if !cacheSurvives {
		opts.Cache = w.device()
	}
	disk2, err := openWithRetry(opts)
	if err != nil {
		return fmt.Errorf("recovery failed (cacheSurvives=%v): %w", cacheSurvives, err)
	}
	defer disk2.Kill()
	var errs []error
	for _, cw := range writers {
		if err := cw.check(w.checked(disk2), cacheSurvives); err != nil {
			errs = append(errs, err)
			disarm()
			dumpObjects(w.t, store, cw.base, cw.base+cwSpan)
		}
	}
	// The counters the GC steers by must match a from-scratch recompute
	// right after recovery — a drift here is exactly the class of bug an
	// aborted pass or a half-done deferred delete used to leave behind.
	if err := disk2.Backend().AuditUtilization(); err != nil {
		errs = append(errs, fmt.Errorf("utilization drift after recovery: %w", err))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// The recovered disk must keep working with the service running:
	// stamped overwrites per range (fresh garbage for the GC), a
	// barrier, a read-back, and a second accounting audit.
	if err := postRecovery(disk2, writers); err != nil {
		if errors.Is(err, testrec.ErrFault) {
			return nil // legal crash point; this iteration ends here
		}
		return err
	}
	if err := disk2.Backend().AuditUtilization(); err != nil {
		return fmt.Errorf("utilization drift under post-recovery GC: %w", err)
	}
	st := disk2.Backend().Stats()
	w.t.Logf("post-recovery gc: runs=%d victims=%d copied=%d yields=%d util=%.3f",
		st.GCRuns, st.GCVictims, st.GCBytesCopied, st.GCYields, disk2.Backend().Utilization())

	disarm() // let Close drain without injected failures
	if err := disk2.Close(); err != nil {
		w.t.Logf("close after GC torture: %v", err)
	}
	return nil
}
