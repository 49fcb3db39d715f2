package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
	"lsvd/internal/vdisk"
)

// Concurrent-writer torture: several goroutines hammer one disk with
// WriteAt/Flush/Trim through the group-commit ring while the backend
// injects faults and the main goroutine kills the disk mid-flight.
// The single-writer Writer above cannot audit this (its versions are
// globally ordered), so each goroutine owns a disjoint block range and
// stamps blocks with (goroutine, op-seq). Prefix consistency (§3.4)
// projected onto one goroutine's program order means the recovered
// range must equal the state after some prefix of that goroutine's
// ops — writes within a goroutine are issued strictly in sequence, so
// a global log prefix induces a per-goroutine op prefix.

const (
	cwWriters   = 4
	cwSpan      = 256 // blocks per goroutine range
	cwMaxRun    = 4   // max blocks per write/trim
	cwFaultRate = 0.05
	// The walk kills the disk at step cwKillMin + [0, cwKillSpan).
	cwKillMin  = 50
	cwKillSpan = 800
)

// cwOp is one recorded operation of a torture goroutine. Seq is the
// goroutine-local sequence number (1-based); trims reset their blocks
// to the zero state.
type cwOp struct {
	seq  uint64
	trim bool
	blk  int64
	n    int
}

// cwWriter is one torture goroutine's recorded history.
type cwWriter struct {
	gid       int
	base      int64 // first block of the owned range
	ops       []cwOp
	acked     int    // ops[0:acked] returned success
	committed uint64 // newest acked seq covered by a successful Flush
	err       error  // first error outside the crash/fault model
}

// cwStamp encodes (goroutine, seq) into the stamp version field; gid+1
// keeps version 0 meaning "zero state".
func cwStamp(gid int, seq uint64) uint64 { return uint64(gid+1)<<32 | seq }

func cwDecode(v uint64) (gid int, seq uint64) {
	return int(v>>32) - 1, v & (1<<32 - 1)
}

// run issues randomized ops until the disk dies under it (Kill, or an
// exhausted retry budget — both legal crash points), holding before each
// until the walk lets it go. The op is recorded before it is issued, so
// an errored tail op stays in the history as the "maybe applied"
// candidate.
func (w *cwWriter) run(disk *core.Disk, seed int64, hold func(gid int, op uint64)) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, cwMaxRun*block.BlockSize)
	var seq, n uint64
	for {
		n++
		hold(w.gid, n)
		var err error
		switch {
		case rng.Intn(12) == 0:
			if err = disk.Flush(); err == nil {
				if w.acked > 0 {
					w.committed = w.ops[w.acked-1].seq
				}
				continue
			}
		case rng.Intn(8) == 0:
			seq++
			n := 1 + rng.Intn(cwMaxRun)
			blk := w.base + rng.Int63n(cwSpan-int64(n))
			w.ops = append(w.ops, cwOp{seq: seq, trim: true, blk: blk, n: n})
			err = disk.Trim(blk*block.BlockSize, int64(n)*block.BlockSize)
		default:
			seq++
			n := 1 + rng.Intn(cwMaxRun)
			blk := w.base + rng.Int63n(cwSpan-int64(n))
			w.ops = append(w.ops, cwOp{seq: seq, blk: blk, n: n})
			p := buf[:int64(n)*block.BlockSize]
			for i := 0; i < n; i++ {
				stampBlock(p[int64(i)*block.BlockSize:], cwStamp(w.gid, seq), blk+int64(i))
			}
			err = disk.WriteAt(p, blk*block.BlockSize)
		}
		if err != nil {
			if !errors.Is(err, core.ErrClosed) && !errors.Is(err, testrec.ErrFault) {
				w.err = err
			}
			return
		}
		w.acked = len(w.ops)
	}
}

// check audits the recovered image against this goroutine's history:
// there must be a cut c — at least the committed watermark when the
// cache survived, at least the newest visible op always — such that
// the owned range holds exactly the state after ops[0:c].
func (w *cwWriter) check(disk vdisk.Disk, cacheSurvives bool) error {
	rec := make([]uint64, cwSpan)
	buf := make([]byte, block.BlockSize)
	var maxSeen uint64
	for i := int64(0); i < cwSpan; i++ {
		b := w.base + i
		if err := disk.ReadAt(buf, b*block.BlockSize); err != nil {
			return fmt.Errorf("writer %d: read block %d: %w", w.gid, b, err)
		}
		v, idx, ok := readStamp(buf)
		if !ok {
			continue // zero / trimmed / never written
		}
		gid, seq := cwDecode(v)
		if gid != w.gid || idx != b {
			return fmt.Errorf("writer %d: block %d holds stamp (writer %d, block %d)", w.gid, b, gid, idx)
		}
		if seq == 0 || seq > uint64(len(w.ops)) {
			return fmt.Errorf("writer %d: block %d holds seq %d beyond history %d", w.gid, b, seq, len(w.ops))
		}
		rec[i] = seq
		if seq > maxSeen {
			maxSeen = seq
		}
	}
	low := maxSeen
	if cacheSurvives {
		low = max(low, w.committed)
	}
	want := make([]uint64, cwSpan) // the range after ops[0:c]
	for c := 0; c <= len(w.ops); c++ {
		if c > 0 {
			op := w.ops[c-1]
			for j := op.blk - w.base; j < op.blk-w.base+int64(op.n); j++ {
				if want[j] = op.seq; op.trim {
					want[j] = 0
				}
			}
		}
		if uint64(c) >= low && slices.Equal(want, rec) {
			return nil
		}
	}
	var stamps []string
	for i, seq := range rec {
		if seq != 0 {
			stamps = append(stamps, fmt.Sprintf("%d:%d", w.base+int64(i), seq))
		}
	}
	return fmt.Errorf("writer %d: no consistent cut in [%d,%d] (committed %d, acked %d, cacheSurvives=%v); recovered block:seq %s",
		w.gid, low, len(w.ops), w.committed, w.acked, cacheSurvives, strings.Join(stamps, " "))
}

// TestConcurrentTorture runs the concurrent crash/recover loop. Under
// -race it doubles as a data-race hunt over the group-commit reserve
// path, the off-lock seal/upload pipeline and Kill's quiesce, with
// every internal invariant armed as in any build (`make race` runs it:
// the consistency package is in RACE_PKGS).
func TestConcurrentTorture(t *testing.T) {
	torture(t, 12, 4, concurrentIteration)
}

// startWriters runs the torture's writers on disk, each on its own
// range, until the walk kills the disk at a step drawn from rng, and
// returns them once every one has stopped, with an error if one failed
// outside the fault model.
func startWriters(w *walk, disk *core.Disk, rng *rand.Rand) ([]*cwWriter, error) {
	writers := make([]*cwWriter, cwWriters)
	var wg sync.WaitGroup
	for g := 0; g < cwWriters; g++ {
		cw := &cwWriter{gid: g, base: int64(g) * cwSpan}
		writers[g] = cw
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw.run(disk, w.seed*int64(cwWriters)+int64(cw.gid), w.hold)
		}()
	}
	w.Kill(cwKillMin + rng.Intn(cwKillSpan))
	w.kill(disk)
	wg.Wait()
	for _, cw := range writers {
		if cw.err != nil {
			return nil, fmt.Errorf("writer %d failed outside the fault model: %w", cw.gid, cw.err)
		}
	}
	return writers, nil
}

// checkWriters runs each writer's check on d.
func checkWriters(d vdisk.Disk, writers []*cwWriter, cacheSurvives bool) error {
	var errs []error
	for _, cw := range writers {
		errs = append(errs, cw.check(d, cacheSurvives))
	}
	return errors.Join(errs...)
}

func concurrentIteration(w *walk) error { return cwIteration(w, 0x636f6e63, core.VolumeOptions{}) }

// TestGCTorture is the concurrent torture with the paced background GC
// service deliberately kept busy (low-water raised to 0.95, so any
// overwrite garbage wakes it) while the backend injects faults and the
// walk kills the disk mid-pass. The utilization audit, at every settled
// step and after recovery, asserts what the GC must never break: the
// accounting stays exact across aborted passes, crash-orphaned GC
// objects and the open-time deferred-delete resweep.
func TestGCTorture(t *testing.T) {
	torture(t, 12, 4, gcTortureIteration)
}

func gcTortureIteration(w *walk) error {
	return cwIteration(w, 0x67635f74, core.VolumeOptions{GCLowWater: 0.95, GCHighWater: 0.98})
}

// cwIteration is one iteration of the concurrent tortures: the writers
// until the kill, recovery with or without the cache, each writer's
// prefix audit, the utilization audit, and writes on the recovered disk.
// salt draws the torture's own stream; gc sets the GC service's marks.
func cwIteration(w *walk, salt int64, gc core.VolumeOptions) error {
	seed := w.seed
	rng := rand.New(rand.NewSource(seed ^ salt))
	store := w.store("backend", objstore.NewMem())
	opts := w.options(store, 16)
	opts.GCLowWater, opts.GCHighWater = gc.GCLowWater, gc.GCHighWater
	disk, err := w.opened(core.Create(ctx, opts))
	if err != nil {
		return err
	}
	defer w.kill(disk)
	disarm := faults(store, seed, cwFaultRate)
	defer disarm()

	writers, err := startWriters(w, disk, rng)
	if err != nil {
		return err
	}

	cacheSurvives := rng.Intn(2) == 0
	if !cacheSurvives {
		opts.Cache = w.device()
	}
	disk2, err := w.opened(openWithRetry(opts))
	if err != nil {
		return fmt.Errorf("recovery failed (cacheSurvives=%v): %w", cacheSurvives, err)
	}
	defer w.kill(disk2)
	if err := checkWriters(w.checked(disk2), writers, cacheSurvives); err != nil {
		return err
	}
	if err := disk2.Backend().AuditUtilization(); err != nil {
		return fmt.Errorf("utilization drift after recovery: %w", err)
	}
	if err := postRecovery(disk2, writers); err != nil {
		if errors.Is(err, testrec.ErrFault) {
			return nil // legal crash point; this iteration ends here
		}
		return err
	}
	if err := disk2.Backend().AuditUtilization(); err != nil {
		return fmt.Errorf("utilization drift after post-recovery writes: %w", err)
	}
	disarm() // let Close drain without injected failures
	if err := w.closed(disk2).Close(); err != nil {
		w.t.Logf("close after torture: %v", err)
	}
	return nil
}

// postRecovery checks that a recovered disk keeps working: one fresh
// stamped write per range, a barrier, and a read-back. An injected
// fault on the write ends the check: it is a legal crash point.
func postRecovery(disk vdisk.Disk, writers []*cwWriter) error {
	for _, cw := range writers {
		seq := uint64(len(cw.ops)) + 1
		buf := make([]byte, block.BlockSize)
		stampBlock(buf, cwStamp(cw.gid, seq), cw.base)
		if err := disk.WriteAt(buf, cw.base*block.BlockSize); err != nil {
			return fmt.Errorf("post-recovery write (writer %d): %w", cw.gid, err)
		}
	}
	if err := disk.Flush(); err != nil && !errors.Is(err, testrec.ErrFault) {
		return fmt.Errorf("post-recovery barrier: %w", err)
	}
	for _, cw := range writers {
		buf := make([]byte, block.BlockSize)
		if err := disk.ReadAt(buf, cw.base*block.BlockSize); err != nil {
			return fmt.Errorf("post-recovery read (writer %d): %v", cw.gid, err)
		}
		v, idx, ok := readStamp(buf)
		if gid, seq := cwDecode(v); !ok || gid != cw.gid || idx != cw.base || seq != uint64(len(cw.ops))+1 {
			return fmt.Errorf("post-recovery read-back (writer %d): got stamp ok=%v v=%d idx=%d", cw.gid, ok, v, idx)
		}
	}
	return nil
}
