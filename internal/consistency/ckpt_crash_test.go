package consistency

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/core"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// cutStore simulates a clean crash of the backend session: after the
// cut, every mutation fails permanently (as if the host died with the
// PUTs on the wire), while the objects that completed earlier stay
// exactly as written. Cutting between a checkpoint object's PUT and
// its superblock PUT is the interesting window for the off-lock
// checkpoint pipeline — the audit below proves the super can never
// name a checkpoint the crash swallowed.
type cutStore struct {
	objstore.Store
	puts     atomic.Int64
	cutAt    atomic.Int64 // fail mutations once puts reaches this (0 = never)
	cutSuper atomic.Bool  // instead: fail exactly the next super PUT and cut there
}

func (c *cutStore) cut() bool {
	at := c.cutAt.Load()
	return at > 0 && c.puts.Load() >= at
}

func (c *cutStore) Put(ctx context.Context, name string, data []byte) error {
	if c.cut() {
		return fmt.Errorf("%w: backend cut", objstore.ErrInjected)
	}
	if c.cutSuper.Load() && strings.HasSuffix(name, ".super") {
		c.cutAt.Store(1) // everything from here on is past the crash
		return fmt.Errorf("%w: backend cut at super PUT", objstore.ErrInjected)
	}
	c.puts.Add(1)
	return c.Store.Put(ctx, name, data)
}

func (c *cutStore) Delete(ctx context.Context, name string) error {
	if c.cut() {
		return fmt.Errorf("%w: backend cut", objstore.ErrInjected)
	}
	return c.Store.Delete(ctx, name)
}

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
	store := &cutStore{Store: mem}
	cache := simdev.NewMem(32 * block.MiB)
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: store, CacheDev: cache, UploadDepth: 2,
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
	if seed%2 == 0 {
		store.cutSuper.Store(true)
	} else {
		store.cutAt.Store(int64(3 + rng.Intn(40)))
	}

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
			if !errors.Is(err, objstore.ErrInjected) {
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
	store.cutAt.Store(0)
	store.cutSuper.Store(false)
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
