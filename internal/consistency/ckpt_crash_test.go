package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/core"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// TestCheckpointCrashTorture kills the volume with the backend cut at
// an arbitrary PUT boundary — frequently mid-background-checkpoint,
// since every other batch queues a checkpoint marker — and checks the
// two halves of checkpoint crash consistency:
//
//  1. The surviving superblock names only a checkpoint whose object
//     PUT completed (ordering rule 1 of the checkpoint pipeline),
//     verified directly against the raw backend contents.
//  2. The volume recovers to a consistent prefix with all committed
//     writes intact (the cache survives the crash).
//
// Half the iterations instead cut exactly at a superblock PUT: the
// checkpoint object is durable but the pointer update is lost, which
// recovery must absorb by replaying the newer checkpoint wholesale.
func TestCheckpointCrashTorture(t *testing.T) {
	torture(t, 16, 8, ckptCrashIteration)
}

func ckptCrashIteration(w *walk) error {
	seed := w.seed
	rng := rand.New(rand.NewSource(seed))
	mem := objstore.NewMem()
	store := w.store("backend", mem)
	opts := w.options(store, 3)
	opts.CheckpointEvery = 2
	disk, err := w.opened(core.Create(ctx, opts))
	if err != nil {
		return err
	}
	defer w.kill(disk)
	// Cut the backend session: from the cut on every mutation fails (the
	// host died with the PUTs on the wire). An even seed cuts at the next
	// super PUT; an odd one at PUT 3 + [0, 22) (the create's come first),
	// counted as the walk releases them. The workload runs 200
	// operations, and on until the cut.
	cutAt, puts := 0, 0
	var cut atomic.Bool
	if seed%2 != 0 {
		cutAt = 3 + rng.Intn(22)
	}
	mutation := testrec.Kinds(testrec.Put, testrec.Delete)
	heal := store.Do(testrec.Any, func(op testrec.Op) error {
		if !cut.Load() && op.Kind == testrec.Put {
			puts++
			cut.Store(cutAt == 0 && testrec.Super(op) || cutAt > 0 && puts >= cutAt)
		}
		if cut.Load() && mutation(op) {
			return fmt.Errorf("%w: backend cut", testrec.ErrFault)
		}
		return nil
	})

	wr, err := NewWriter(disk)
	if err != nil {
		return err
	}
	blocks := disk.Size() / block.BlockSize
	for i := 0; i < 200 || !cut.Load(); i++ {
		if i == 4000 {
			return fmt.Errorf("the backend cut at PUT %d (0: a super's) never came in %d operations", cutAt, i)
		}
		if rng.Intn(8) == 0 {
			err = wr.Barrier()
		} else {
			err = wr.Write(rng.Int63n(blocks-4), 1+rng.Intn(4))
		}
		if err != nil {
			if !errors.Is(err, testrec.ErrFault) {
				return fmt.Errorf("op %d failed outside the cut model: %w", i, err)
			}
			break
		}
	}
	w.kill(disk)

	// Audit the raw backend as the crash left it: the superblock must
	// point at a checkpoint object that is present and whole.
	raw, err := mem.Get(ctx, "vol.super")
	if err != nil {
		return fmt.Errorf("superblock missing after crash: %w", err)
	}
	info, err := blockstore.DecodeSuperInfo(raw)
	if err != nil {
		return fmt.Errorf("superblock corrupt after crash: %w", err)
	}
	obj, err := mem.Get(ctx, fmt.Sprintf("vol.%08d", info.LastCheckpoint))
	if err != nil {
		return fmt.Errorf("super names checkpoint %d but its object is missing: %w", info.LastCheckpoint, err)
	}
	if h, _, _, err := journal.Decode(obj, false); err != nil {
		return fmt.Errorf("super-named checkpoint %d does not decode: %w", info.LastCheckpoint, err)
	} else if h.Type != journal.TypeCheckpoint {
		return fmt.Errorf("super-named object %d is %v, not a checkpoint", info.LastCheckpoint, h.Type)
	}

	// Heal the backend and recover: consistent prefix, committed writes
	// intact (the cache survived).
	heal()
	disk2, err := w.opened(core.Open(ctx, opts))
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer w.kill(disk2)
	r, err := wr.Check(w.checked(disk2))
	if err != nil {
		return err
	}
	if !r.Mountable {
		return fmt.Errorf("image not a consistent prefix:\n  %s", strings.Join(r.Violations, "\n  "))
	}
	if !r.CommittedPreserved {
		return fmt.Errorf("committed writes lost despite surviving cache: recovered v%d < committed v%d",
			r.RecoveredVersion, wr.Committed())
	}
	if err := w.closed(disk2).Close(); err != nil {
		w.t.Logf("close after checkpoint crash: %v", err)
	}
	return nil
}
