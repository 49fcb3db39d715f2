package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
	"lsvd/internal/writecache"
)

// The edges of the write path (DESIGN.md §8.1): each one either blocks
// the ticket holder in enter, releasable by Close and Kill, or fails it
// with a typed error. TestMain's leak check covers the goroutines.

// shutDown closes or kills d, by name, and fails the test unless it
// returns within ten seconds. A Close that fails is fine: the edge may
// leave the pipeline unable to destage.
func shutDown(t *testing.T, d *Disk, how string) {
	t.Helper()
	down := make(chan struct{})
	go func() {
		if how == "close" {
			_ = d.Close()
		} else {
			d.Kill()
		}
		close(down)
	}()
	select {
	case <-down:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", how)
	}
}

// awaitErr returns what c yields within ten seconds, or fails the test.
func awaitErr(t *testing.T, c <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-c:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// TestRingFullOfUndestageableData: with every data PUT failing, the ring
// fills with records that cannot destage. The writer kicks, waits out
// the grace, fences at most twice and then fails with a typed error: the
// upload's, or the ring's ErrFull. Close and Kill then return, and the
// upload gate holds no slot. A large upload depth keeps the pipeline
// from failing before the ring fills.
func TestRingFullOfUndestageableData(t *testing.T) {
	for _, how := range []string{"close", "kill"} {
		t.Run(how, func(t *testing.T) {
			rs := testrec.NewStore(objstore.NewMem())
			rs.Fail(testrec.DataObject, testrec.ErrFault)
			h := smallRing(t, rs, block.MiB, func(o *Options) { o.UploadDepth = 16 })
			data := payload(1, 128*1024)
			written := make(chan error, 1)
			go func() {
				for i := int64(0); i < 100; i++ {
					if err := h.disk.WriteAt(data, i*int64(len(data))); err != nil {
						written <- err
						return
					}
				}
				written <- nil
			}()
			err := awaitErr(t, written, "the writer on a ring that cannot destage")
			if err == nil {
				t.Fatal("100 writes of 128 KiB acknowledged into a 4.47 MiB ring that cannot destage")
			}
			if !errors.Is(err, testrec.ErrFault) && !errors.Is(err, writecache.ErrFull) {
				t.Fatalf("the writer failed with %v, want the upload's error or writecache.ErrFull", err)
			}
			st := h.disk.Stats()
			if st.RingKicks == 0 || st.RingFences == 0 || st.RingFences > 2 {
				t.Fatalf("%d ring kicks and %d ring fences before the error, want a kick and one or two fences", st.RingKicks, st.RingFences)
			}
			shutDown(t, h.disk, how)
			if held := h.disk.res.UploadGate.Stats(h.disk.res.UploadID).Held; held != 0 {
				t.Fatalf("the upload gate holds %d slots after %s", held, how)
			}
		})
	}
}

// backoffWatch is a replica store that is its own objstore.Clock: it
// notes every ship-backoff the shipper arms with the slots of the
// upload gate the shipper holds as it does.
type backoffWatch struct {
	*testrec.Store
	disk atomic.Pointer[Disk]
}

func (b *backoffWatch) AfterFunc(what string, d time.Duration, f func()) func() bool {
	if disk := b.disk.Load(); disk != nil && what == "ship-backoff" {
		b.Note(what, int64(disk.res.UploadGate.Stats(disk.res.UploadID+"#ship").Held))
	}
	return b.Store.AfterFunc(what, d, f)
}

// TestReplicaThatFailsEveryPut: with a replica store that fails every
// PUT, the lag passes ReplicaMaxLagObjects and the writer stalls, the
// edge's block contract. Close, and Kill, release it with ErrClosed;
// once the replica heals, the shipper's acks wake it. While the shipper
// backs off it holds no slot of the upload gate.
func TestReplicaThatFailsEveryPut(t *testing.T) {
	for _, how := range []string{"close", "kill", "heal"} {
		t.Run(how, func(t *testing.T) {
			rep := &backoffWatch{Store: testrec.NewStore(objstore.NewMem())}
			heal := rep.Fail(testrec.Puts, testrec.ErrFault)
			h := smallRing(t, objstore.NewMem(), block.MiB, func(o *Options) {
				o.ReplicaStore, o.ReplicaMaxLagObjects = rep, 1
			})
			rep.disk.Store(h.disk)
			data := payload(1, 128*1024)
			var acked atomic.Int64
			var stop atomic.Bool
			written := make(chan error, 1)
			go func() {
				for i := int64(0); !stop.Load(); i++ {
					if err := h.disk.WriteAt(data, i%64*int64(len(data))); err != nil {
						written <- err
						return
					}
					acked.Store(i + 1)
					rep.Note("ack", i+1)
				}
				written <- nil
			}()
			backoff := testrec.Match(func(op testrec.Op) bool { return op.Kind == testrec.Note && op.Name == "ship-backoff" })
			if !rep.Await(0, backoff, 10*time.Second) {
				t.Fatal("the shipper did not back off")
			}
			waitFor(t, "the writer to stall on the replica lag", func() bool {
				return h.disk.Stats().ReplicaStalls >= 1 && len(written) == 0
			})
			if how == "heal" {
				heal()
				awaitAck(t, rep.Store, acked.Load()+16) // two more objects
				stop.Store(true)
				how = "close"
			}
			shutDown(t, h.disk, how)
			// A healed writer stops, or Close finds it stalled again.
			if err := awaitErr(t, written, "the stalled writer"); !errors.Is(err, ErrClosed) && (err != nil || !stop.Load()) {
				t.Fatalf("the writer returned %v, want ErrClosed", err)
			}
			for _, op := range rep.Log() {
				if backoff(op) && op.Off != 0 {
					t.Fatalf("the shipper held %d gate slots as it backed off", op.Off)
				}
			}
			if held := h.disk.res.UploadGate.Stats(h.disk.res.UploadID + "#ship").Held; held != 0 {
				t.Fatalf("the shipper holds %d gate slots after %s", held, how)
			}
		})
	}
}

// TestQueueWaiterGetsPipelineError: a writer waiting on a full destage
// queue behind a wedged destager, when the wedged uploads fail for good,
// gets the pipeline's error. It is not admitted into the room the failed
// destager makes as it drains the queue.
func TestQueueWaiterGetsPipelineError(t *testing.T) {
	h, rs := stuckPipeline(t, 2)
	p := rs.Park(testrec.DataObject)
	var once sync.Once
	release := func(err error) { once.Do(func() { p.Release(err) }) }
	t.Cleanup(func() { release(nil) })
	data := payload(1, 128*1024)
	var acked atomic.Int64
	written := make(chan error, 1)
	go func() {
		for i := int64(0); ; i++ {
			if err := h.disk.WriteAt(data, i*int64(len(data))); err != nil {
				written <- err
				return
			}
			acked.Store(i + 1)
		}
	}()
	waitFor(t, "the writer to wait on the full queue", func() bool {
		st := h.disk.Stats()
		return acked.Load() == 26 && st.DestageQueued == 2 && st.RingKicks == 0
	})
	release(testrec.ErrFault)
	if err := awaitErr(t, written, "the queued writer"); !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("the writer waiting on the full queue returned %v, want the failed upload's error", err)
	}
	if n := acked.Load(); n != 26 {
		t.Fatalf("%d writes acknowledged, want 26: the writer waiting on the full queue was admitted after the pipeline failed", n)
	}
}
