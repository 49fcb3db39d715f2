package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// delay makes every operation m matches wait d on its way to the
// backend, on a timer of the store's clock (objstore.Clock): real time,
// unless a gate holds the clock's timers.
func delay(rs *testrec.Store, m testrec.Match, d time.Duration) *testrec.Store {
	rs.Do(m, func(op testrec.Op) error {
		wake, stop := objstore.After(rs.Clock, "delay "+op.Name, d)
		defer stop()
		<-wake
		return nil
	})
	return rs
}

// midDestage writes n 64 KiB writes, each an object of its own, with
// the ninth object's PUT parked: the objects behind it land and wait to
// commit, and the writes behind those queue for destage. Once the
// program has settled it crashes the volume, the parked PUT failing as
// its connection dies, and returns how many writes the backend had
// committed.
func midDestage(t *testing.T, n int, flush bool, tune func(*Options)) (*harness, uint64) {
	var rs *testrec.Store
	h := newHarness(t, func(o *Options) {
		rs = testrec.NewStore(o.Store)
		o.Store = rs
		o.BatchBytes = 64 * 1024 // one write, one object
		if tune != nil {
			tune(o)
		}
	})
	p := rs.Park(testrec.DataObject.After(8).Once())
	die := sync.OnceFunc(func() { p.Release(fmt.Errorf("%w: the host died", testrec.ErrFault)) })
	t.Cleanup(die) // before the harness's Kill, which waits for the PUT
	for i := 0; i < n; i++ {
		if err := h.disk.WriteAt(payload(int64(i), 64*1024), int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if flush {
		if err := h.disk.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var parked testrec.Op
	select {
	case parked = <-p.Arrived():
	case <-time.After(10 * time.Second):
		t.Fatal("the ninth object's PUT never came")
	}
	settle(t)
	landed := rs.Await(parked.Stamp, testrec.DataObject, 0)
	st := h.disk.Stats()
	if !landed || st.DestageQueued == 0 {
		t.Fatalf("bad setup: no object landed behind the parked one (%v) or nothing queued (%d)", landed, st.DestageQueued)
	}
	killed := make(chan struct{})
	go func() { h.disk.Kill(); close(killed) }()
	die()
	<-killed
	return h, h.disk.Backend().Stats().DurableWriteSeq
}

// TestCrashMidDestageRecoversFromCache: a crash with writes still
// queued for destage, and objects landed behind one that never does,
// must lose nothing when the cache survives — the write log holds every
// acknowledged write and recovery replays the tail the backend is
// missing (§3.3).
func TestCrashMidDestageRecoversFromCache(t *testing.T) {
	const n = 32
	h, durable := midDestage(t, n, true, nil)
	if durable >= n {
		t.Fatalf("bad setup: the backend committed all %d writes before the crash", durable)
	}
	h.reopen(t)
	if h.disk.Stats().RecoveredReplayed == 0 {
		t.Fatal("backend incomplete but no cache records replayed")
	}
	for i := 0; i < n; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(int64(i), 64*1024)) {
			t.Fatalf("write %d lost in mid-destage crash", i)
		}
	}
}

// TestCrashMidDestageBlankCacheKeepsPrefix: same crash, but the cache
// is lost too. Writes beyond the destaged point may vanish, but the
// survivors must form a prefix of the acknowledged order (§3.4) —
// in-order commit of concurrent uploads is exactly what guarantees it:
// the objects that landed behind the parked one hold writes that must
// not come back.
func TestCrashMidDestageBlankCacheKeepsPrefix(t *testing.T) {
	const n = 32
	h, durable := midDestage(t, n, false, func(o *Options) { o.UploadDepth = 8 })
	h.opts.Cache = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	present := make([]bool, n)
	for i := 0; i < n; i++ {
		got := make([]byte, 64*1024)
		if err := h.disk.ReadAt(got, int64(i)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		present[i] = bytes.Equal(got, payload(int64(i), 64*1024))
	}
	if present[durable] {
		t.Fatalf("write %d, past the committed prefix of %d, survived a blank-cache crash", durable, durable)
	}
	seenGap := false
	for i, p := range present {
		if !p {
			seenGap = true
		} else if seenGap {
			t.Fatalf("prefix consistency violated: write %d present after a gap", i)
		}
	}
}

// TestDestageStress hammers the full concurrent data path — parallel
// writers, readers, trims, flushes, GC passes and stats polls — while
// the async pipeline destages underneath. Run with -race this is the
// end-to-end locking check for the rewrite.
func TestDestageStress(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.BatchBytes = 256 * 1024
		o.UploadDepth = 4
		o.CheckpointEvery = 16
	})
	const workers = 6
	const iters = 80
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	// Each flush asks the control goroutine for a GC pass.
	kick := make(chan struct{}, 1)

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker owns a disjoint 16 MiB region.
			base := int64(g) * (16 << 20)
			rng := rand.New(rand.NewSource(int64(g)))
			buf := payload(int64(g), 32*1024)
			rd := make([]byte, len(buf))
			for i := 0; i < iters; i++ {
				off := base + int64(rng.Intn(256))*32*1024
				switch rng.Intn(10) {
				case 0:
					if err := h.disk.Trim(off, int64(len(buf))); err != nil {
						errs <- err
						return
					}
				case 1:
					if err := h.disk.Flush(); err != nil {
						errs <- err
						return
					}
					select {
					case kick <- struct{}{}:
					default:
					}
				default:
					if err := h.disk.WriteAt(buf, off); err != nil {
						errs <- err
						return
					}
					if err := h.disk.ReadAt(rd, off); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(rd, buf) {
						t.Errorf("worker %d: torn read at %d", g, off)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}

	// Control-plane goroutine: stats polls and explicit GC passes
	// racing the data path, one at each worker flush.
	ctl := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ctl:
				errs <- nil
				return
			case <-kick:
			}
			_ = h.disk.Stats()
			if err := h.disk.RunGC(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Wait for the workers by draining their results, then stop the
	// control goroutine.
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(ctl)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Everything still consistent after a full drain.
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDeletesDoNotFenceTheRing: a sequential large-write
// stream over a 12 ms-PUT / 2 ms-Delete backend, with a write log
// smaller than three batches, kills one object per batch, so every
// checkpoint releases a checkpoint interval's worth of victims. Their
// deletes run off the block store's lock and behind the marker, so the
// destage watermark keeps advancing through them and the ring-full
// writer does not escalate to a fence. (With the deletes serial under
// the lock, each checkpoint held the watermark for 40 x 2 ms, past the
// writer's three 20 ms graces: one fence per checkpoint, inside its
// deletes.)
//
// The assertion is over the backend's op log: as a marker's checkpoint
// PUT and each delete arrive, they note the fences taken so far, and no
// fence falls between the checkpoint and the last delete it released.
// How many checkpoints or victims a run produces is not pinned, and a
// fence a starved destager costs somewhere else in the run does not
// count; one marker in four may still lose its window to such a fence.
func TestCheckpointDeletesDoNotFenceTheRing(t *testing.T) {
	const batch = 2 * block.MiB
	var rs *testrec.Store
	h := newHarness(t, func(o *Options) {
		rs = testrec.NewStore(o.Store)
		o.Store = rs
		o.Cache = simdev.NewMem(64 * block.MiB)
		o.WriteCacheFrac = 0.08 // ~5 MiB of log: 2.5 batches
		o.VolBytes = 16 * block.MiB
		o.BatchBytes = batch
		o.CheckpointEvery = 40
	})
	noteFences(rs, h.disk, testrec.CheckpointObject, "ckpt")
	noteFences(rs, h.disk, testrec.Deletes, "delete")
	delay(rs, testrec.Puts, 12*time.Millisecond)
	delay(rs, testrec.Deletes, 2*time.Millisecond)
	data := payload(1, 128*1024)
	const wraps = 24 // ~190 objects: several checkpoint intervals
	for i := 0; i < wraps*int(h.opts.VolBytes)/len(data); i++ {
		off := int64(i*len(data)) % h.opts.VolBytes
		if err := h.disk.WriteAt(data, off); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	if h.disk.Stats().RingKicks == 0 {
		t.Fatal("the ring never filled: the test exerts no backpressure")
	}

	// A window is one marker: its checkpoint PUT and the deletes that
	// arrive before the next marker's.
	log := slices.DeleteFunc(rs.Log(), func(op testrec.Op) bool { return op.Kind != testrec.Note })
	windows, fenced := 0, 0
	for i := 0; i < len(log); {
		if log[i].Name != "ckpt" {
			i++
			continue
		}
		j := i + 1
		for j < len(log) && log[j].Name != "ckpt" {
			j++
		}
		if deletes := j - i - 1; deletes >= 8 { // a marker that released a real batch of victims
			windows++
			if log[j-1].Off != log[i].Off {
				fenced++
			}
		}
		i = j
	}
	if windows < 2 {
		t.Fatalf("%d markers released eight or more victims: the test does not exercise checkpoint deletes", windows)
	}
	if fenced*4 > windows {
		t.Fatalf("a ring fence fell between the checkpoint PUT and the last delete of %d of %d markers: checkpoint deletes stalled the destage watermark",
			fenced, windows)
	}
}

// The destager asserts write-sequence order once per request, in every
// build: in order it allocates nothing, out of order it panics.
func TestDestageOrderAssert(t *testing.T) {
	ws := uint64(1 << 40) // large enough that boxing it would allocate
	if n := testing.AllocsPerRun(1000, func() { checkDestageOrder(ws+1, ws) }); n != 0 {
		t.Fatalf("in-order check: %.1f allocs, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a regressed writeSeq did not panic")
		}
	}()
	checkDestageOrder(ws, ws+1)
}
