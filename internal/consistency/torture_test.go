package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// Torture-harness knobs, overridable from the environment so `make
// fault` can sweep rates and CI can pin a seed:
//
//	LSVD_FAULT_SEED      base seed, iteration i uses seed+i (default 1)
//	LSVD_FAULT_RATE      per-op injected failure probability (default 0.10)
//	LSVD_FAULT_ITERS     crash/recover iterations (default 50, 10 in -short)
//	LSVD_REPLAY          a failing iteration's row: run that walk alone
func env[T int64 | float64](name string, def T) T {
	if v, err := strconv.ParseFloat(os.Getenv(name), 64); err == nil {
		return T(v)
	}
	return def
}

// openWithRetry tolerates injected faults during recovery itself: a
// real deployment would simply re-run Open until the backend heals, so
// the harness grants a few whole-Open retries on top of the per-op
// retry budget.
func openWithRetry(opts core.Options) (*core.Disk, error) {
	var err error
	for i := 0; i < 5; i++ {
		var d *core.Disk
		if d, err = core.Open(ctx, opts); err == nil {
			return d, nil
		}
		if !errors.Is(err, testrec.ErrFault) {
			return nil, err
		}
	}
	return nil, err
}

// TestFaultTorture is the recovery torture harness: a volume running
// over a seeded fault-injecting backend (probabilistic failures plus
// torn writes) takes randomized stamped writes, crashes at a random
// point, recovers — sometimes with the cache wiped — and must present
// a consistent durable prefix every single time (§3.4 under fire).
func TestFaultTorture(t *testing.T) {
	torture(t, 50, 10, tortureIteration)
}

func tortureIteration(w *walk) error {
	seed, rate := w.seed, env("LSVD_FAULT_RATE", 0.10)
	rng := rand.New(rand.NewSource(seed))
	store := w.store("backend", objstore.NewMem())
	// 16 attempts: even a 0.35-rate sweep has a negligible chance of
	// exhausting the budget on any single op.
	opts := w.options(store, 16)
	// Create with a healthy store (a failed mkfs is not a crash test),
	// then arm the injector for the workload.
	disk, err := w.opened(core.Create(ctx, opts))
	if err != nil {
		return err
	}
	defer w.kill(disk)
	disarm := faults(store, seed, rate)
	defer disarm()

	wr, err := NewWriter(disk)
	if err != nil {
		return err
	}
	nOps := 120 + rng.Intn(121)
	kill := rng.Intn(nOps)
	blocks := disk.Size() / block.BlockSize
	for i := 0; i < nOps; i++ {
		if i == kill {
			break // crash mid-workload
		}
		if rng.Intn(10) == 0 {
			err = wr.Barrier()
		} else {
			n := 1 + rng.Intn(4)
			err = wr.Write(rng.Int63n(blocks-4), n)
		}
		if err != nil {
			// The async pipeline may surface an exhausted retry budget;
			// that is a legal crash point, not a harness failure.
			if !errors.Is(err, testrec.ErrFault) {
				return fmt.Errorf("op %d failed outside the fault model: %w", i, err)
			}
			break
		}
	}
	w.kill(disk)

	// Coin flip: recover with the surviving cache (all committed writes
	// must be back) or with the cache lost entirely (any consistent
	// prefix is acceptable).
	cacheSurvives := rng.Intn(2) == 0
	if !cacheSurvives {
		opts.Cache = w.device()
	}
	disk2, err := w.opened(openWithRetry(opts))
	if err != nil {
		return fmt.Errorf("recovery failed (cacheSurvives=%v): %w", cacheSurvives, err)
	}
	defer w.kill(disk2)
	r, err := wr.Check(w.checked(disk2))
	if err != nil {
		return err
	}
	if !r.Mountable {
		return fmt.Errorf("image not a consistent prefix (cacheSurvives=%v):\n  %s",
			cacheSurvives, strings.Join(r.Violations, "\n  "))
	}
	if cacheSurvives && !r.CommittedPreserved {
		return fmt.Errorf("committed writes lost despite surviving cache: recovered v%d < committed v%d",
			r.RecoveredVersion, wr.Committed())
	}

	// The recovered volume must keep working under the same fault
	// regime: more writes, a barrier, and a second audit. Writes lost
	// past the recovered prefix are gone for good — prune them so the
	// audit doesn't demand them back once new versions appear.
	wr.Prune(r.RecoveredVersion)
	if err := wr.Rebind(disk2); err != nil {
		return err
	}
	for i := 0; i < 30; i++ {
		if err := wr.Write(rng.Int63n(blocks-4), 1+rng.Intn(2)); err != nil {
			if !errors.Is(err, testrec.ErrFault) {
				return fmt.Errorf("post-recovery write failed outside the fault model: %w", err)
			}
			break
		}
	}
	if err := wr.Barrier(); err != nil && !errors.Is(err, testrec.ErrFault) {
		return fmt.Errorf("post-recovery barrier: %w", err)
	}
	if r, err = wr.Check(w.checked(disk2)); err != nil {
		return err
	} else if !r.Mountable {
		return fmt.Errorf("post-recovery image inconsistent:\n  %s", strings.Join(r.Violations, "\n  "))
	}

	disarm() // let Close drain without injected failures
	if err := w.closed(disk2).Close(); err != nil {
		w.t.Logf("close after torture: %v", err)
	}
	return nil
}
