package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/core"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
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
	seed := envInt("LSVD_FAULT_SEED", 1)
	iters := envInt("LSVD_FAULT_ITERS", 16)
	if testing.Short() && iters > 8 {
		iters = 8
	}
	for it := int64(0); it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			ckptCrashIteration(t, seed+it)
		})
		if t.Failed() {
			break
		}
	}
}

func ckptCrashIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mem := objstore.NewMem()
	store := faultStore(t, "backend", mem)
	cache := simdev.NewMem(32 * block.MiB)
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: store, Cache: cache, UploadDepth: 2,
			Retry: objstore.RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    time.Millisecond,
				Seed:        seed,
			},
		},
		VolumeOptions: core.VolumeOptions{
			Volume: "vol", VolBytes: 16 * block.MiB, BatchBytes: 128 << 10,
			CheckpointEvery: 2, DestageQueueDepth: 32,
		},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the backend session: from the cut on every mutation fails (the
	// host died with the PUTs on the wire); what completed earlier stays
	// as written. Half the seeds cut at the next super PUT, between a
	// checkpoint object and its super — the audit below proves the super
	// never names a checkpoint the crash swallowed; the rest once 3 to 42
	// PUTs, Create's included, have gone through.
	puts := len(slices.DeleteFunc(store.Log(), func(op testrec.Op) bool { return op.Kind != testrec.Put || op.Done }))
	cutAt, cut := -1, false
	if seed%2 != 0 {
		cutAt = 3 + rng.Intn(40)
	}
	mutation := testrec.Kinds(testrec.Put, testrec.Delete)
	heal := store.Fail(func(op testrec.Op) bool {
		if !cut && op.Kind == testrec.Put {
			if cutAt < 0 {
				cut = testrec.Super(op)
			} else {
				cut = puts >= cutAt
				puts++
			}
		}
		return cut && mutation(op)
	}, fmt.Errorf("%w: backend cut", testrec.ErrFault))

	w, err := NewWriter(disk)
	if err != nil {
		t.Fatal(err)
	}
	blocks := disk.Size() / block.BlockSize
	for i := 0; i < 200; i++ {
		if rng.Intn(8) == 0 {
			err = w.Barrier()
		} else {
			err = w.Write(rng.Int63n(blocks-4), 1+rng.Intn(4))
		}
		if err != nil {
			if !errors.Is(err, testrec.ErrFault) {
				t.Fatalf("op %d failed outside the cut model: %v", i, err)
			}
			break
		}
	}
	disk.Kill()

	// Audit the raw backend as the crash left it: the superblock must
	// point at a checkpoint object that is present and whole.
	raw, err := mem.Get(ctx, "vol.super")
	if err != nil {
		t.Fatalf("superblock missing after crash: %v", err)
	}
	info, err := blockstore.DecodeSuperInfo(raw)
	if err != nil {
		t.Fatalf("superblock corrupt after crash: %v", err)
	}
	obj, err := mem.Get(ctx, fmt.Sprintf("vol.%08d", info.LastCheckpoint))
	if err != nil {
		t.Fatalf("super names checkpoint %d but its object is missing: %v",
			info.LastCheckpoint, err)
	}
	if h, _, _, err := journal.Decode(obj, false); err != nil {
		t.Fatalf("super-named checkpoint %d does not decode: %v", info.LastCheckpoint, err)
	} else if h.Type != journal.TypeCheckpoint {
		t.Fatalf("super-named object %d is %v, not a checkpoint", info.LastCheckpoint, h.Type)
	}

	// Heal the backend and recover: consistent prefix, committed writes
	// intact (the cache survived).
	heal()
	disk2, err := core.Open(ctx, opts)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	r, err := w.Check(disk2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mountable {
		t.Fatalf("image not a consistent prefix:\n  %s", strings.Join(r.Violations, "\n  "))
	}
	if !r.CommittedPreserved {
		t.Fatalf("committed writes lost despite surviving cache: recovered v%d < committed v%d",
			r.RecoveredVersion, w.Committed())
	}
	if err := disk2.Close(); err != nil {
		t.Logf("close after checkpoint crash: %v", err)
	}
}
