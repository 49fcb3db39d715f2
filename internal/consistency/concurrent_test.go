package consistency

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/journal"
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
	if cacheSurvives && w.committed > low {
		low = w.committed
	}
	want := make([]uint64, cwSpan)
	for c := 0; c <= len(w.ops); c++ {
		op := cwOp{}
		if c > 0 {
			op = w.ops[c-1]
			for i := 0; i < op.n; i++ {
				j := op.blk + int64(i) - w.base
				if op.trim {
					want[j] = 0
				} else {
					want[j] = op.seq
				}
			}
		}
		if uint64(c) < low {
			continue
		}
		match := true
		for i := range want {
			if want[i] != rec[i] {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	// No cut matched: report the mismatches at the tightest candidate
	// (cut = low) so the failure is actionable.
	for i := range want {
		want[i] = 0
	}
	for c := 0; c < int(low); c++ {
		op := w.ops[c]
		for i := 0; i < op.n; i++ {
			j := op.blk + int64(i) - w.base
			if op.trim {
				want[j] = 0
			} else {
				want[j] = op.seq
			}
		}
	}
	var detail []string
	for i := range want {
		if want[i] != rec[i] && len(detail) < 8 {
			detail = append(detail, fmt.Sprintf("block %d: holds seq %d, cut %d requires %d",
				w.base+int64(i), rec[i], low, want[i]))
		}
	}
	var all []string
	for i := range rec {
		if rec[i] != 0 {
			all = append(all, fmt.Sprintf("%d:%d", w.base+int64(i), rec[i]))
		}
	}
	detail = append(detail, "recovered nonzero stamps: "+strings.Join(all, " "))
	return fmt.Errorf("writer %d: no consistent cut in [%d,%d] (committed %d, acked %d, cacheSurvives=%v)\n  %s",
		w.gid, low, len(w.ops), w.committed, w.acked, cacheSurvives, strings.Join(detail, "\n  "))
}

// dumpObjects prints every backend object's header (debug aid for
// torture failures): type, write watermark, trim markers and data
// extents intersecting [lo,hi) blocks, with the op stamp each data
// extent carries.
func dumpObjects(t *testing.T, store objstore.Store, lo, hi int64) {
	t.Helper()
	loS, hiS := block.LBA(lo*8), block.LBA(hi*8)
	for seq := uint32(1); ; seq++ {
		raw, err := store.Get(ctx, fmt.Sprintf("vol.%08d", seq))
		if err != nil {
			t.Logf("obj %d: %v (end)", seq, err)
			return
		}
		h, _, err := journal.DecodeHeader(raw)
		if err != nil {
			t.Logf("obj %d: header: %v", seq, err)
			continue
		}
		var parts []string
		cursor := int64(journal.HeaderSize(len(h.Extents)))
		for _, e := range h.Extents {
			isTrim := e.SrcSeq == ^uint64(0)
			end := e.LBA + block.LBA(e.Sectors)
			if end > loS && e.LBA < hiS {
				if isTrim {
					parts = append(parts, fmt.Sprintf("trim[%d+%d)", e.LBA/8, e.Sectors/8))
				} else {
					var seqs []string
					for b := int64(0); b < int64(e.Sectors)/8; b++ {
						off := cursor + b*block.BlockSize
						if off+stampLen <= int64(len(raw)) {
							v, _, ok := readStamp(raw[off:])
							if ok {
								_, s := cwDecode(v)
								seqs = append(seqs, fmt.Sprintf("%d", s))
							} else {
								seqs = append(seqs, "-")
							}
						}
					}
					parts = append(parts, fmt.Sprintf("data[%d+%d)=op{%s}", e.LBA/8, e.Sectors/8, strings.Join(seqs, ",")))
				}
			}
			if !isTrim {
				cursor += int64(e.Sectors) * 512
			}
		}
		t.Logf("obj %d: type=%v ws=%d exts=%d: %s", seq, h.Type, h.WriteSeq, len(h.Extents), strings.Join(parts, " "))
	}
}

// TestConcurrentTorture runs the concurrent crash/recover loop. Under
// -race it doubles as a data-race hunt over the group-commit reserve
// path, the off-lock seal/upload pipeline and Kill's quiesce, with
// every internal invariant armed as in any build (`make race` runs it:
// the consistency package is in RACE_PKGS).
func TestConcurrentTorture(t *testing.T) {
	iters := envInt("LSVD_FAULT_ITERS", 12)
	if testing.Short() && iters > 4 {
		iters = 4
	}
	torture(t, iters, concurrentIteration)
}

// startWriters runs the torture's writers on disk, each on its own
// range, until the walk kills the disk at a step drawn from rng, and
// returns them once every one has stopped.
func startWriters(w *walk, disk *core.Disk, rng *rand.Rand) []*cwWriter {
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
	w.awaitKill(cwKillMin + rng.Intn(cwKillSpan))
	disk.Kill()
	wg.Wait()
	return writers
}

func concurrentIteration(w *walk) error {
	seed := w.seed
	rng := rand.New(rand.NewSource(seed ^ 0x636f6e63))
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
			dumpObjects(w.t, store, cw.base, cw.base+cwSpan)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := postRecovery(disk2, writers); err != nil {
		if errors.Is(err, testrec.ErrFault) {
			return nil // legal crash point; this iteration ends here
		}
		return err
	}
	disarm() // let Close drain without injected failures
	if err := disk2.Close(); err != nil {
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
