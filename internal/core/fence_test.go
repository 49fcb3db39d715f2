package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// stampBlocks is how many 4 KiB blocks a stampWriter cycles over.
const stampBlocks = 64

// stampWriter writes version v to block v % stampBlocks, v = 1, 2, …,
// until stopped, stamping each block with its version and noting each
// write's start and acknowledgment on the clock.
type stampWriter struct {
	acked atomic.Int64
	stop  atomic.Bool
	done  chan error
}

func startStampWriter(d *Disk, c *testrec.Store) *stampWriter {
	w := &stampWriter{done: make(chan error, 1)}
	go func() {
		buf := make([]byte, block.BlockSize)
		for v := int64(1); !w.stop.Load(); v++ {
			binary.LittleEndian.PutUint64(buf, uint64(v))
			c.Note("start", v)
			if err := d.WriteAt(buf, v%stampBlocks*block.BlockSize); err != nil {
				w.done <- err
				return
			}
			c.Note("ack", v)
			w.acked.Store(v)
		}
		w.done <- nil
	}()
	return w
}

// awaitAck waits for the log to note a stampWriter's acknowledgment of
// write v, or fails the test after ten seconds: the writer never stops,
// so the program does not settle.
func awaitAck(t *testing.T, rs *testrec.Store, v int64) {
	t.Helper()
	acked := testrec.Match(func(op testrec.Op) bool { return op.Kind == testrec.Note && op.Name == "ack" && op.Off >= v })
	if !rs.Await(0, acked, 10*time.Second) {
		t.Fatalf("write %d not acknowledged within ten seconds", v)
	}
}

// prefixOf reads every block a stampWriter writes and returns k, the
// number of its writes the image holds, failing unless the image is
// exactly the state after writes 1..k.
func prefixOf(t *testing.T, d *Disk) int64 {
	t.Helper()
	buf := make([]byte, block.BlockSize)
	vers := make([]int64, stampBlocks)
	var k int64
	for b := range vers {
		if err := d.ReadAt(buf, int64(b)*block.BlockSize); err != nil {
			t.Fatal(err)
		}
		vers[b] = int64(binary.LittleEndian.Uint64(buf))
		k = max(k, vers[b])
	}
	for b, v := range vers {
		want := max(0, k-((k-int64(b))%stampBlocks+stampBlocks)%stampBlocks) // newest write to b up to k
		if want != v {
			t.Fatalf("block %d holds write %d, want %d: the image is not the first %d writes", b, v, want, k)
		}
	}
	return k
}

// park parks every operation m matches until the returned release,
// which is idempotent and also runs at cleanup — before the harness's
// Kill, which a parked PUT would hold up — so a failing test fails
// rather than hangs.
func park(t *testing.T, rs *testrec.Store, m testrec.Match) (*testrec.Parked, func()) {
	p := rs.Park(m)
	var once sync.Once
	release := func() { once.Do(func() { p.Release(nil) }) }
	t.Cleanup(release)
	return p, release
}

// markUnderWriter runs mark — a Snapshot or a Checkpoint — against a
// continuous writer with the checkpoint object's PUT parked, and checks
// three orderings over the op log. Writes are acknowledged while the PUT
// is parked, five times as many as the destage queue holds: no ack waits
// on the marker's checkpoint, nor does the destager. The image mount
// makes of the marker's consistency point is exactly a prefix of the
// writer's stream: every write acknowledged before mark was called and
// none started after it returned.
func markUnderWriter(t *testing.T, mark func(*Disk) error, mount func(o Options, ckpt testrec.Op) (*Disk, error)) {
	rs := testrec.NewStore(objstore.NewMem())
	h := newHarness(t, func(o *Options) {
		o.Store = rs
		o.CheckpointEvery = 1 << 20
		o.GCLowWater = -1
		o.DestageQueueDepth = 4
	})
	w := startStampWriter(h.disk, rs)
	awaitAck(t, rs, 100)

	t.Cleanup(func() { w.stop.Store(true) })
	p, release := park(t, rs, testrec.CheckpointObject.Once())
	called := rs.Note("mark", 0)
	marked := make(chan error, 1)
	go func() { marked <- mark(h.disk) }()
	var parked testrec.Op
	select {
	case parked = <-p.Arrived():
	case err := <-marked:
		t.Fatalf("mark returned %v without a checkpoint PUT", err)
	}
	from := w.acked.Load()
	awaitAck(t, rs, from+20) // while the checkpoint PUT is parked
	released := rs.Note("release", 0)
	release()
	if err := <-marked; err != nil {
		t.Fatal(err)
	}
	returned := rs.Note("returned", 0)
	from = w.acked.Load()
	awaitAck(t, rs, from+20)
	w.stop.Store(true)
	if err := <-w.done; err != nil {
		t.Fatal(err)
	}

	var lastBefore, firstAfter int64 = 0, math.MaxInt64
	whileParked := 0
	for _, op := range rs.Log() {
		switch {
		case op.Kind != testrec.Note:
		case op.Name == "ack" && op.Stamp < called:
			lastBefore = op.Off
		case op.Name == "ack" && op.Stamp > parked.Stamp && op.Stamp < released:
			whileParked++
		case op.Name == "start" && op.Stamp > returned:
			firstAfter = min(firstAfter, op.Off)
		}
	}
	if whileParked < 20 {
		t.Fatalf("%d writes acknowledged while the checkpoint PUT was parked, want 20", whileParked)
	}

	o := h.opts
	o.Cache = simdev.NewMem(128 * block.MiB)
	m, err := mount(o, parked)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	k := prefixOf(t, m)
	if k < lastBefore || k >= firstAfter {
		t.Fatalf("the image holds writes 1..%d; want every write acknowledged before the call (%d) and none started after it returned (%d)",
			k, lastBefore, firstAfter)
	}
}

// TestSnapshotUnderWriter: a snapshot taken while a writer runs holds
// exactly the writes ahead of its marker, and the writer keeps being
// acknowledged while the snapshot's checkpoint is PUT.
func TestSnapshotUnderWriter(t *testing.T) {
	markUnderWriter(t, func(d *Disk) error {
		_, err := d.Snapshot("s")
		return err
	}, func(o Options, _ testrec.Op) (*Disk, error) {
		return OpenSnapshot(ctx, o, "s")
	})
}

// TestCheckpointUnderWriter: the same for a checkpoint, mounted as of
// the checkpoint object its marker wrote: the head of a copy of the
// bucket without the objects after it.
func TestCheckpointUnderWriter(t *testing.T) {
	markUnderWriter(t, (*Disk).Checkpoint, func(o Options, ckpt testrec.Op) (*Disk, error) {
		objSeq := func(name string) (uint64, error) {
			return strconv.ParseUint(strings.TrimPrefix(name, o.Volume+"."), 10, 32)
		}
		last, err := objSeq(ckpt.Name)
		if err != nil {
			return nil, err
		}
		names, err := o.Store.List(ctx, "")
		if err != nil {
			return nil, err
		}
		upTo := objstore.NewMem()
		for _, name := range names {
			if seq, err := objSeq(name); err == nil && seq > last {
				continue
			}
			data, err := o.Store.Get(ctx, name)
			if err != nil {
				return nil, err
			}
			_ = upTo.Put(ctx, name, data) // a Mem PUT cannot fail
		}
		o.Store = upTo
		return OpenReadOnly(ctx, o)
	})
}

// stuckPipeline is a volume whose destager can be wedged: with every
// data object PUT parked, two 1 MiB objects fill the upload pipeline and
// the third seal waits for a slot, after 24 writes of 128 KiB. The write
// log holds 34.
func stuckPipeline(t *testing.T, queueDepth int) (*harness, *testrec.Store) {
	rs := testrec.NewStore(objstore.NewMem())
	h := smallRing(t, rs, block.MiB, func(o *Options) {
		o.UploadDepth = 1
		o.DestageQueueDepth = queueDepth
	})
	return h, rs
}

// TestShutdownReleasesParkedWriters races Close, and separately Kill,
// against two writers while the destage pipeline is wedged: one parked
// on backpressure — a full ring, or a full destage queue — and one
// queued behind it for the admission ticket. Both return ErrClosed
// while the PUTs are still parked; Close or Kill returns once they are
// released, and every write acknowledged before it reads back after a
// reopen. TestMain's leak check covers the goroutines.
func TestShutdownReleasesParkedWriters(t *testing.T) {
	for _, tc := range []struct {
		name       string
		queueDepth int
		parked     func(d *Disk, acked int64) bool
	}{
		{"ring", 64, func(d *Disk, _ int64) bool { return d.Stats().RingKicks > 0 }},
		{"queue", 2, func(d *Disk, acked int64) bool {
			st := d.Stats()
			return acked == 26 && st.DestageQueued == 2 && st.RingKicks == 0
		}},
	} {
		for _, shut := range []string{"close", "kill"} {
			t.Run(tc.name+"/"+shut, func(t *testing.T) {
				h, rs := stuckPipeline(t, tc.queueDepth)
				_, release := park(t, rs, testrec.DataObject)
				data := payload(1, 128*1024)
				var acked atomic.Int64
				first := make(chan error, 1)
				go func() {
					for i := int64(0); ; i++ {
						if err := h.disk.WriteAt(data, i*int64(len(data))); err != nil {
							first <- err
							return
						}
						acked.Store(i + 1)
					}
				}()
				waitFor(t, "the first writer to park", func() bool { return tc.parked(h.disk, acked.Load()) })
				second := make(chan error, 1)
				go func() { second <- h.disk.WriteAt(data, 60*int64(len(data))) }()

				down := make(chan error, 1)
				go func() {
					if shut == "close" {
						down <- h.disk.Close()
					} else {
						h.disk.Kill()
						down <- nil
					}
				}()
				for _, c := range []chan error{first, second} {
					select {
					case err := <-c:
						if !errors.Is(err, ErrClosed) {
							t.Fatalf("parked writer returned %v, want ErrClosed", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("a parked writer was not released while the pipeline is wedged")
					}
				}
				release()
				if err := <-down; err != nil {
					t.Fatal(err)
				}

				n := acked.Load()
				h.reopen(t)
				got := make([]byte, len(data))
				for i := int64(0); i < n; i++ {
					if err := h.disk.ReadAt(got, i*int64(len(got))); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("acknowledged write %d of %d lost", i, n)
					}
				}
			})
		}
	}
}

// graceCounter is a store that is its own objstore.Clock: it counts the
// destage-grace timers the product arms, and runs every timer on the
// clock of the store it wraps.
type graceCounter struct {
	*testrec.Store
	armed atomic.Int64
}

func (g *graceCounter) AfterFunc(what string, d time.Duration, f func()) func() bool {
	if what == "destage-grace" {
		g.armed.Add(1)
	}
	return g.Store.AfterFunc(what, d, f)
}

// TestFullQueueWaitArmsNoTimer: a writer waiting on a full destage queue
// behind a wedged destager arms no timer. It wakes on the destager's
// tick as a request leaves the full queue, once the parked PUTs go on.
func TestFullQueueWaitArmsNoTimer(t *testing.T) {
	const queueDepth, writes = 4, 30 // the destager wedges after 24
	gc := &graceCounter{Store: testrec.NewStore(objstore.NewMem())}
	h := smallRing(t, gc, block.MiB, func(o *Options) {
		o.UploadDepth = 1
		o.DestageQueueDepth = queueDepth
	})
	_, release := park(t, gc.Store, testrec.DataObject)
	data := payload(1, 128*1024)
	var acked atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := int64(0); i < writes; i++ {
			if err := h.disk.WriteAt(data, i*int64(len(data))); err != nil {
				done <- err
				return
			}
			acked.Store(i + 1)
		}
		done <- nil
	}()
	waitFor(t, "the writer to wait on the full queue", func() bool {
		st := h.disk.Stats()
		return acked.Load() == 24+queueDepth && st.DestageQueued == queueDepth && st.RingKicks == 0
	})
	if n := gc.armed.Load(); n != 0 {
		t.Fatalf("the writer armed %d destage-grace timers waiting on the full queue", n)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the writer did not resume once the destager moved")
	}
	if n := gc.armed.Load(); n != 0 {
		t.Fatalf("%d destage-grace timers armed by %d writes that never met a full ring", n, writes)
	}
}

// TestDeleteSnapshotWhileSnapshotQueued: a DeleteSnapshot issued while
// a Snapshot's marker still waits in the destage queue deletes only
// what the block store has — the new name is not there yet, an older
// snapshot is — and the queued snapshot lands when the pipeline moves.
func TestDeleteSnapshotWhileSnapshotQueued(t *testing.T) {
	h, rs := stuckPipeline(t, 64)
	if err := h.disk.WriteAt(payload(1, 128*1024), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.disk.Snapshot("old"); err != nil {
		t.Fatal(err)
	}
	_, release := park(t, rs, testrec.DataObject)
	newer := payload(2, 128*1024)
	for i := int64(0); i < 24; i++ {
		if err := h.disk.WriteAt(newer, i*int64(len(newer))); err != nil {
			t.Fatal(err)
		}
	}
	snapped := make(chan error, 1)
	go func() {
		_, err := h.disk.Snapshot("new")
		snapped <- err
	}()
	waitFor(t, "the snapshot marker to queue behind the wedged destager", func() bool { return h.disk.Stats().DestageQueued == 1 })
	if err := h.disk.DeleteSnapshot("new"); err == nil {
		t.Fatal("deleted a snapshot whose marker has not reached the block store")
	}
	deleted := make(chan error, 1)
	go func() { deleted <- h.disk.DeleteSnapshot("old") }()
	release()
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}

	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
	h.reopen(t)
	if snaps := h.disk.Snapshots(); len(snaps) != 1 || snaps[0].Name != "new" {
		t.Fatalf("snapshots after reopen: %+v, want [new]", snaps)
	}
	o := h.opts
	o.Cache = simdev.NewMem(128 * block.MiB)
	if _, err := OpenSnapshot(ctx, o, "old"); err == nil {
		t.Fatal("the deleted snapshot still mounts")
	}
	snap, err := OpenSnapshot(ctx, o, "new")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Kill()
	got := make([]byte, len(newer))
	for _, i := range []int64{0, 23} {
		if err := snap.ReadAt(got, i*int64(len(got))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, newer) {
			t.Fatalf("write %d before the marker is missing from the snapshot", i)
		}
	}
}
