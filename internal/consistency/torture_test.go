package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// Torture-harness knobs, overridable from the environment so `make
// fault` can sweep rates and CI can pin a seed:
//
//	LSVD_FAULT_SEED   base seed, iteration i uses seed+i (default 1)
//	LSVD_FAULT_RATE   per-op injected failure probability (default 0.10)
//	LSVD_FAULT_ITERS  crash/recover iterations (default 50, 10 in -short)
func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func envFloat(name string, def float64) float64 {
	if v := os.Getenv(name); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// openWithRetry tolerates injected faults during recovery itself: a
// real deployment would simply re-run Open until the backend heals, so
// the harness grants a few whole-Open retries on top of the per-op
// retry budget.
func openWithRetry(t *testing.T, opts core.Options) (*core.Disk, error) {
	t.Helper()
	var err error
	for i := 0; i < 5; i++ {
		var d *core.Disk
		if d, err = core.Open(ctx, opts); err == nil {
			return d, nil
		}
		if !errors.Is(err, objstore.ErrInjected) {
			return nil, err
		}
	}
	return nil, err
}

// waitGoroutines polls until the goroutine count returns to roughly
// the baseline, failing with a stack dump if pipeline goroutines leak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf)
}

// TestFaultTorture is the recovery torture harness: a volume running
// over a seeded fault-injecting backend (probabilistic failures plus
// torn writes) takes randomized stamped writes, crashes at a random
// point, recovers — sometimes with the cache wiped — and must present
// a consistent durable prefix every single time (§3.4 under fire).
func TestFaultTorture(t *testing.T) {
	seed := envInt("LSVD_FAULT_SEED", 1)
	rate := envFloat("LSVD_FAULT_RATE", 0.10)
	iters := envInt("LSVD_FAULT_ITERS", 50)
	if testing.Short() && iters > 10 {
		iters = 10
	}
	baseGoroutines := runtime.NumGoroutine()

	for it := int64(0); it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			tortureIteration(t, seed+it, rate)
		})
		if t.Failed() {
			break // one minimal repro beats fifty identical ones
		}
	}
	waitGoroutines(t, baseGoroutines)
}

func tortureIteration(t *testing.T, seed int64, rate float64) {
	rng := rand.New(rand.NewSource(seed))
	store := objstore.NewFaulty(objstore.NewMem())
	cache := simdev.NewMem(32 * block.MiB)
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: store, CacheDev: cache, UploadDepth: 2,
			Retry: objstore.RetryPolicy{
				// 16 attempts: even a 0.35-rate sweep has a negligible
				// chance of exhausting the budget on any single op.
				MaxAttempts: 16,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    time.Millisecond,
				Seed:        seed,
			},
		},
		VolumeOptions: core.VolumeOptions{
			Volume: "vol", VolBytes: 16 * block.MiB, BatchBytes: 128 << 10,
			CheckpointEvery: 4, DestageQueueDepth: 32,
		},
	}
	// Create with a healthy store (a failed mkfs is not a crash test),
	// then arm the injector for the workload.
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	store.Arm(objstore.FaultConfig{
		Seed:       seed,
		Rates:      objstore.UniformRates(rate),
		TornWrites: true,
	})
	defer store.Disarm()

	w, err := NewWriter(disk)
	if err != nil {
		t.Fatal(err)
	}
	nOps := 120 + rng.Intn(121)
	kill := rng.Intn(nOps)
	blocks := disk.Size() / block.BlockSize
	for i := 0; i < nOps; i++ {
		if i == kill {
			break // crash mid-workload
		}
		if rng.Intn(10) == 0 {
			err = w.Barrier()
		} else {
			n := 1 + rng.Intn(4)
			err = w.Write(rng.Int63n(blocks-4), n)
		}
		if err != nil {
			// The async pipeline may surface an exhausted retry budget;
			// that is a legal crash point, not a harness failure.
			if !errors.Is(err, objstore.ErrInjected) {
				t.Fatalf("op %d failed outside the fault model: %v", i, err)
			}
			break
		}
	}
	disk.Kill()

	// Coin flip: recover with the surviving cache (all committed writes
	// must be back) or with the cache lost entirely (any consistent
	// prefix is acceptable).
	cacheSurvives := rng.Intn(2) == 0
	if !cacheSurvives {
		opts.CacheDev = simdev.NewMem(32 * block.MiB)
	}
	disk2, err := openWithRetry(t, opts)
	if err != nil {
		t.Fatalf("recovery failed (cacheSurvives=%v): %v", cacheSurvives, err)
	}
	r, err := w.Check(disk2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mountable {
		t.Fatalf("image not a consistent prefix (cacheSurvives=%v):\n  %s",
			cacheSurvives, strings.Join(r.Violations, "\n  "))
	}
	if cacheSurvives && !r.CommittedPreserved {
		t.Fatalf("committed writes lost despite surviving cache: recovered v%d < committed v%d",
			r.RecoveredVersion, w.Committed())
	}

	// The recovered volume must keep working under the same fault
	// regime: more writes, a barrier, and a second audit. Writes lost
	// past the recovered prefix are gone for good — prune them so the
	// audit doesn't demand them back once new versions appear.
	w.Prune(r.RecoveredVersion)
	if err := w.Rebind(disk2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w.Write(rng.Int63n(blocks-4), 1+rng.Intn(2)); err != nil {
			if !errors.Is(err, objstore.ErrInjected) {
				t.Fatalf("post-recovery write failed outside the fault model: %v", err)
			}
			break
		}
	}
	if err := w.Barrier(); err != nil && !errors.Is(err, objstore.ErrInjected) {
		t.Fatalf("post-recovery barrier: %v", err)
	}
	if r, err = w.Check(disk2); err != nil {
		t.Fatal(err)
	} else if !r.Mountable {
		t.Fatalf("post-recovery image inconsistent:\n  %s", strings.Join(r.Violations, "\n  "))
	}

	store.Disarm() // let Close drain without injected failures
	if err := disk2.Close(); err != nil {
		t.Logf("close after torture: %v", err)
	}
}
