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

// Replica torture: concurrent writers hammer a replicated volume while
// BOTH backends inject faults and torn writes, then the disk is killed
// mid-flight. The audit mounts the replica as the new primary (the
// §4.8 disaster path) and proves three things:
//
//  1. Committed-prefix restore: the promoted replica passes the same
//     per-writer prefix-consistency check as a crashed primary — the
//     replica is a crash-consistent prefix of the volume's history,
//     not a torn mixture.
//  2. Bounded RPO: the primary's recovered object stream ends at most
//     the configured lag bound (plus documented pipeline slack) beyond
//     the replica's — the data-loss window honored its configuration
//     even under faults and a kill.
//  3. Liveness after failover: the promoted replica accepts writes,
//     flushes and reads them back.
//
// The shipped-watermark pin (no primary object deleted before it
// ships) is exercised implicitly — the replica could not mount if its
// checkpoints referenced objects it never received — and directly by
// replica.TestDeleteSnapshotRespectsShipWatermark.

// replicaLagBound is the RPO knob for the torture run (objects).
const replicaLagBound = 4

// replicaRPOSlack is the committed-but-unbounded tail the pipeline can
// add after the lag bound trips: admission checks the bound before each
// write, so the destage queue (32 reqs ≈ 4 small objects), the sealing
// batch, UploadDepth in-flight uploads, plus interleaved checkpoint and
// GC objects (one checkpoint per 4 objects, GC paced off foreground)
// can still commit. The audit asserts lag ≤ bound + this slack.
const replicaRPOSlack = 20

func TestReplicaTorture(t *testing.T) {
	seed := envInt("LSVD_FAULT_SEED", 1)
	iters := envInt("LSVD_FAULT_ITERS", 12)
	if testing.Short() && iters > 4 {
		iters = 4
	}
	baseGoroutines := runtime.NumGoroutine()
	for it := int64(0); it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			replicaIteration(t, seed+it)
		})
		if t.Failed() {
			break
		}
	}
	waitGoroutines(t, baseGoroutines)
}

func replicaIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x7265706c))
	primary, replica := faultStore(t, "primary", objstore.NewMem()), faultStore(t, "replica", objstore.NewMem())
	cache := simdev.NewMem(32 * block.MiB)
	opts := core.Options{
		HostOptions: core.HostOptions{
			Store: primary, Cache: cache, UploadDepth: 2,
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
			ReplicaStore:         replica,
			ReplicaMaxLagObjects: replicaLagBound,
		},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	disarmPrimary := primary.Tear(testrec.Any.Chance(seed, cwFaultRate), seed)
	// The replica backend faults harder than the primary: the shipper
	// must absorb the asymmetry via retries and, past the lag bound,
	// write backpressure — never by skipping an object.
	disarmReplica := replica.Tear(testrec.Any.Chance(seed+1, 2*cwFaultRate), seed+1)
	defer disarmPrimary()
	defer disarmReplica()

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
	disarmPrimary()
	disarmReplica()
	for _, w := range writers {
		if w.err != nil {
			t.Fatalf("writer %d failed outside the fault model: %v", w.gid, w.err)
		}
	}

	// --- Restore from the replica (promote): same options, the replica
	// store as the primary, a FRESH cache (the dead primary's cache
	// must never replay over the replica's shorter history).
	ropts := opts
	ropts.Store = replica
	ropts.ReplicaStore = nil
	ropts.Cache = simdev.NewMem(32 * block.MiB)
	rdisk, rerr := core.Open(ctx, ropts)
	if rerr != nil {
		// The only legal failure is a replica that was never
		// bootstrapped: the kill landed before the first superblock
		// shipped, so no consistent replica state ever existed. That
		// requires the super to actually be absent — anything else is a
		// real bug.
		if _, serr := replica.Size(ctx, "vol.super"); !errors.Is(serr, objstore.ErrNotFound) {
			t.Fatalf("replica restore failed with super present: %v", rerr)
		}
		t.Logf("replica never bootstrapped (killed before first super shipped): %v", rerr)
	}

	var replicaNext uint32
	if rdisk != nil {
		replicaNext = rdisk.Backend().Stats().NextSeq
		// (1) Committed-prefix restore: the promoted replica must pass
		// the crashed-primary audit (fresh cache ⇒ cacheSurvives=false).
		for _, w := range writers {
			if err := w.check(rdisk, false); err != nil {
				t.Errorf("replica restore: %v", err)
				dumpObjects(t, replica, w.base, w.base+cwSpan)
			}
		}
		// (3) Liveness after failover: the promoted replica is a
		// writable volume.
		for _, w := range writers {
			seq := uint64(len(w.ops)) + 1
			buf := make([]byte, block.BlockSize)
			stampBlock(buf, cwStamp(w.gid, seq), w.base)
			if err := rdisk.WriteAt(buf, w.base*block.BlockSize); err != nil {
				t.Fatalf("post-promote write (writer %d): %v", w.gid, err)
			}
		}
		if err := rdisk.Flush(); err != nil {
			t.Fatalf("post-promote barrier: %v", err)
		}
		for _, w := range writers {
			buf := make([]byte, block.BlockSize)
			if err := rdisk.ReadAt(buf, w.base*block.BlockSize); err != nil {
				t.Fatalf("post-promote read (writer %d): %v", w.gid, err)
			}
			v, idx, ok := readStamp(buf)
			if gid, seq := cwDecode(v); !ok || gid != w.gid || idx != w.base || seq != uint64(len(w.ops))+1 {
				t.Fatalf("post-promote read-back (writer %d): ok=%v v=%d idx=%d", w.gid, ok, v, idx)
			}
		}
		if err := rdisk.Close(); err != nil {
			t.Logf("close promoted replica: %v", err)
		}
	}

	// --- Audit the primary with a fresh cache so its recovered stream
	// is exactly the kill-point committed prefix (no cache replay
	// appending new objects), then check the RPO.
	popts := opts
	popts.ReplicaStore = nil // audit mount: no shipper
	popts.Cache = simdev.NewMem(32 * block.MiB)
	pdisk, err := openWithRetry(t, popts)
	if err != nil {
		t.Fatalf("primary recovery failed: %v", err)
	}
	primaryNext := pdisk.Backend().Stats().NextSeq
	for _, w := range writers {
		if err := w.check(pdisk, false); err != nil {
			t.Error(err)
		}
	}
	if err := pdisk.Close(); err != nil {
		t.Logf("close primary: %v", err)
	}

	// (2) Bounded RPO: the primary's committed stream may run ahead of
	// the replica's by at most the lag bound plus pipeline slack.
	if rdisk != nil {
		if lag := int64(primaryNext) - int64(replicaNext); lag > replicaLagBound+replicaRPOSlack {
			t.Fatalf("RPO violated: primary at seq %d, replica at %d — lag %d > bound %d + slack %d",
				primaryNext, replicaNext, lag, replicaLagBound, replicaRPOSlack)
		}
	}
}
