package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// parkStore records the size of every data object PUT and, once armed,
// parks the next one until released.
type parkStore struct {
	objstore.Store

	mu     sync.Mutex
	sizes  []int // data objects, in PUT order
	armed  bool
	parked chan struct{} // non-nil once a PUT has waited on it
}

func (p *parkStore) Put(ctx context.Context, name string, data []byte) error {
	if h, _, err := journal.DecodeHeader(data); err != nil || h.Type != journal.TypeData {
		return p.Store.Put(ctx, name, data)
	}
	p.mu.Lock()
	p.sizes = append(p.sizes, len(data))
	var wait chan struct{}
	if p.armed {
		p.armed = false
		p.parked = make(chan struct{})
		wait = p.parked
	}
	p.mu.Unlock()
	if wait != nil {
		<-wait
	}
	return p.Store.Put(ctx, name, data)
}

func (p *parkStore) arm() {
	p.mu.Lock()
	p.armed = true
	p.mu.Unlock()
}

func (p *parkStore) release() {
	p.mu.Lock()
	close(p.parked)
	p.mu.Unlock()
}

func (p *parkStore) isParked() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked != nil
}

func (p *parkStore) objectSizes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.sizes...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// smallRing is a volume whose write log holds 34 writes of 128 KiB.
func smallRing(t *testing.T, store objstore.Store, batchBytes int64) *harness {
	return newHarness(t, func(o *Options) {
		o.Store = store
		o.CacheDev = simdev.NewMem(64 * block.MiB)
		o.WriteCacheFrac = 0.07 // 4.47 MiB of log
		o.VolBytes = 64 * block.MiB
		o.BatchBytes = batchBytes
		o.CheckpointEvery = 1 << 20
		o.GCLowWater = -1
	})
}

func writeSequential(d *Disk, n int) error {
	data := payload(1, 128*1024)
	for i := 0; i < n; i++ {
		if err := d.WriteAt(data, int64(i)*int64(len(data))); err != nil {
			return err
		}
	}
	return nil
}

// TestRingFullWaitsForTheObjectInFlight: the ring fills with one object
// uploading and a third of a batch open. The kick seals nothing — the
// uploading object pins the head and its commit frees it — and the
// writer resumes on that commit's tick, without a fence.
func TestRingFullWaitsForTheObjectInFlight(t *testing.T) {
	const batch = 3 * block.MiB // 24 writes; 10 more fit in the log
	ps := &parkStore{Store: objstore.NewMem()}
	h := smallRing(t, ps, batch)
	ps.arm()
	done := make(chan error, 1)
	go func() { done <- writeSequential(h.disk, 60) }()

	waitFor(t, "the writer to stall on a full ring", func() bool {
		st := h.disk.Stats()
		return ps.isParked() && st.RingKicks > 0 && st.DestageQueued == 0
	})
	if n, st := len(ps.objectSizes()), h.disk.bs.Stats(); n != 1 || st.InflightObjects != 1 {
		t.Fatalf("%d objects PUT, %d in flight: the kick sealed a runt behind the uploading object", n, st.InflightObjects)
	}
	ps.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := h.disk.Stats(); st.RingFences != 0 {
		t.Fatalf("%d ring fences: the writer did not resume on the commit tick", st.RingFences)
	}
	if first := ps.objectSizes()[0]; int64(first) < batch {
		t.Fatalf("first object holds %d bytes, want a full batch of %d", first, batch)
	}
	got := make([]byte, 128*1024)
	for _, i := range []int64{0, 33, 34, 59} {
		if err := h.disk.ReadAt(got, i*int64(len(got))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(1, len(got))) {
			t.Fatalf("write %d does not read back", i)
		}
	}
}

// TestRingFullWithNothingInFlightSealsAtAnyFill: a batch larger than
// the whole log never fills, so the kick is the only thing that moves
// the ring's records; with no object in flight it seals them at any
// fill and the writer keeps lapping the log.
func TestRingFullWithNothingInFlightSealsAtAnyFill(t *testing.T) {
	const batch = 16 * block.MiB
	ps := &parkStore{Store: objstore.NewMem()}
	h := smallRing(t, ps, batch)
	if err := writeSequential(h.disk, 110); err != nil { // three laps of the log
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.disk.Stats()
	if st.RingKicks < 2 || st.RingFences != 0 {
		t.Fatalf("%d kicks, %d fences over three laps; want the kicks alone to free the ring", st.RingKicks, st.RingFences)
	}
	sizes := ps.objectSizes()
	if len(sizes) < 3 {
		t.Fatalf("objects %v: want one per lap", sizes)
	}
	for _, n := range sizes {
		if int64(n) >= batch/2 {
			t.Fatalf("object of %d bytes: the case is meant to seal under half a batch (%d)", n, batch/2)
		}
	}
}
