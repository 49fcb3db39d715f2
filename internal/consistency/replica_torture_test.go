package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsvd/internal/core"
	"lsvd/internal/objstore"
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
	torture(t, 12, 4, replicaIteration)
}

func replicaIteration(w *walk) error {
	seed := w.seed
	rng := rand.New(rand.NewSource(seed ^ 0x7265706c))
	primary, replica := w.store("primary", objstore.NewMem()), w.store("replica", objstore.NewMem())
	opts := w.options(primary, 16)
	opts.ReplicaStore, opts.ReplicaMaxLagObjects = replica, replicaLagBound
	disk, err := w.opened(core.Create(ctx, opts))
	if err != nil {
		return err
	}
	defer w.kill(disk)
	disarmPrimary := faults(primary, seed, cwFaultRate)
	// The replica backend faults harder than the primary: the shipper
	// must absorb the asymmetry via retries and, past the lag bound,
	// write backpressure — never by skipping an object.
	disarmReplica := faults(replica, seed+1, 2*cwFaultRate)
	defer disarmPrimary()
	defer disarmReplica()

	writers, err := startWriters(w, disk, rng)
	disarmPrimary()
	disarmReplica()
	if err != nil {
		return err
	}

	// --- Restore from the replica (promote): same options, the replica
	// store as the primary, a FRESH cache (the dead primary's cache
	// must never replay over the replica's shorter history).
	ropts := opts
	ropts.Store = replica
	ropts.ReplicaStore = nil
	ropts.Cache = w.device()
	rdisk, rerr := w.opened(core.Open(ctx, ropts))
	if rerr != nil {
		// The only legal failure is a replica that was never
		// bootstrapped: the kill landed before the first superblock
		// shipped, so no consistent replica state ever existed. That
		// requires the super to actually be absent — anything else is a
		// real bug.
		if _, serr := replica.Size(ctx, "vol.super"); !errors.Is(serr, objstore.ErrNotFound) {
			return fmt.Errorf("replica restore failed with super present: %w", rerr)
		}
		w.t.Logf("replica never bootstrapped (killed before first super shipped): %v", rerr)
	}

	var replicaNext uint32
	if rdisk != nil {
		defer w.kill(rdisk)
		replicaNext = rdisk.Backend().Stats().NextSeq
		// (1) Committed-prefix restore: the promoted replica must pass
		// the crashed-primary audit (fresh cache ⇒ cacheSurvives=false).
		if err := checkWriters(w.checked(rdisk), writers, false); err != nil {
			return fmt.Errorf("replica restore: %w", err)
		}
		// (3) Liveness after failover: the promoted replica is a
		// writable volume (its store no longer faults).
		if err := postRecovery(rdisk, writers); err != nil {
			return fmt.Errorf("post-promote: %w", err)
		}
		if err := w.closed(rdisk).Close(); err != nil {
			w.t.Logf("close promoted replica: %v", err)
		}
	}

	// --- Audit the primary with a fresh cache so its recovered stream
	// is exactly the kill-point committed prefix (no cache replay
	// appending new objects), then check the RPO.
	popts := opts
	popts.ReplicaStore = nil // audit mount: no shipper
	popts.Cache = w.device()
	pdisk, err := w.opened(openWithRetry(popts))
	if err != nil {
		return fmt.Errorf("primary recovery failed: %w", err)
	}
	defer w.kill(pdisk)
	primaryNext := pdisk.Backend().Stats().NextSeq
	if err := checkWriters(w.checked(pdisk), writers, false); err != nil {
		return err
	}
	if err := w.closed(pdisk).Close(); err != nil {
		w.t.Logf("close primary: %v", err)
	}

	// (2) Bounded RPO: the primary's committed stream may run ahead of
	// the replica's by at most the lag bound plus pipeline slack.
	if rdisk != nil {
		if lag := int64(primaryNext) - int64(replicaNext); lag > replicaLagBound+replicaRPOSlack {
			return fmt.Errorf("RPO violated: primary at seq %d, replica at %d — lag %d > bound %d + slack %d",
				primaryNext, replicaNext, lag, replicaLagBound, replicaRPOSlack)
		}
	}
	return nil
}
