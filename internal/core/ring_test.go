package core

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// parkStore records the size of every data object PUT and the length
// of every data range GET and, once armed for one of the two, parks the
// next such op until released. With a disk attached it also keeps an op
// log: each data object PUT's arrival and completion and each write the
// test notes, stamped with the disk's ring fences so far.
type parkStore struct {
	objstore.Store
	disk atomic.Pointer[Disk]

	mu     sync.Mutex
	sizes  []int   // data objects, in PUT order
	gets   []int64 // data range GETs' lengths, in issue order
	log    []parkOp
	armed  string        // "put" or "get": the op the next of which parks
	parked chan struct{} // non-nil once an op has waited on it
}

// parkOp is one op-log entry: "put" (size bytes, parked or not),
// "put-done" or "write".
type parkOp struct {
	op     string
	size   int
	parked bool
	fences uint64
}

func (p *parkStore) note(op parkOp) {
	if d := p.disk.Load(); d != nil {
		op.fences = d.ringFences.Load()
	}
	p.mu.Lock()
	p.log = append(p.log, op)
	p.mu.Unlock()
}

func (p *parkStore) Put(ctx context.Context, name string, data []byte) error {
	if h, _, err := journal.DecodeHeader(data); err != nil || h.Type != journal.TypeData {
		return p.Store.Put(ctx, name, data)
	}
	p.mu.Lock()
	p.sizes = append(p.sizes, len(data))
	wait := p.parkLocked("put")
	p.mu.Unlock()
	p.note(parkOp{op: "put", size: len(data), parked: wait != nil})
	if wait != nil {
		<-wait
	}
	err := p.Store.Put(ctx, name, data)
	if err == nil {
		p.note(parkOp{op: "put-done", size: len(data), parked: wait != nil})
	}
	return err
}

// GetRange logs data range GETs (object headers start at offset 0,
// data never does) and parks one when armed for "get".
func (p *parkStore) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	var wait chan struct{}
	if off > 0 {
		p.mu.Lock()
		p.gets = append(p.gets, length)
		wait = p.parkLocked("get")
		p.mu.Unlock()
	}
	if wait != nil {
		<-wait
	}
	return p.Store.GetRange(ctx, name, off, length)
}

// parkLocked returns the channel an op of kind op must wait on, nil
// unless the store is armed for it.
func (p *parkStore) parkLocked(op string) chan struct{} {
	if p.armed != op {
		return nil
	}
	p.armed = ""
	p.parked = make(chan struct{})
	return p.parked
}

// arm parks the next op of kind op, "put" or "get".
func (p *parkStore) arm(op string) {
	p.mu.Lock()
	p.armed = op
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

// dataGets returns the lengths of the data range GETs so far.
func (p *parkStore) dataGets() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.gets...)
}

func (p *parkStore) opLog() []parkOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]parkOp(nil), p.log...)
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
//
// The assertions are over the op log, not the whole run's fence count:
// from the parked object's PUT to the first write after it landed there
// is no other data PUT (no runt sealed behind it, by the kick or by a
// fence's flush marker) and no ring fence. Later ring-fulls of the run
// are not pinned: a starved host may fence one of those legitimately.
func TestRingFullWaitsForTheObjectInFlight(t *testing.T) {
	const batch = 3 * block.MiB // 24 writes; 10 more fit in the log
	ps := &parkStore{Store: objstore.NewMem()}
	h := smallRing(t, ps, batch)
	ps.disk.Store(h.disk)
	ps.arm("put")
	done := make(chan error, 1)
	data := payload(1, 128*1024)
	go func() {
		for i := 0; i < 60; i++ {
			if err := h.disk.WriteAt(data, int64(i)*int64(len(data))); err != nil {
				done <- err
				return
			}
			ps.note(parkOp{op: "write"})
		}
		done <- nil
	}()

	waitFor(t, "the writer to stall on a full ring", func() bool {
		st := h.disk.Stats()
		return ps.isParked() && st.RingKicks > 0 && st.DestageQueued == 0
	})
	ps.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}

	log := ps.opLog()
	park, landed, resumed := -1, -1, -1
	for i, op := range log {
		switch {
		case op.op == "put" && park < 0:
			if !op.parked {
				t.Fatal("the first data object was not the parked one")
			}
			park = i
		case op.op == "put-done" && op.parked:
			landed = i
		case op.op == "write" && landed >= 0 && resumed < 0:
			resumed = i
		}
	}
	if landed < 0 || resumed < 0 {
		t.Fatalf("parked PUT at %d, landed at %d, writer resumed at %d: want a write after it landed", park, landed, resumed)
	}
	for _, op := range log[park : resumed+1] {
		if op.op == "put" && !op.parked {
			t.Fatalf("a %d-byte object was sealed behind the parked one before the writer resumed: the kick or a fence sealed a runt", op.size)
		}
		if op.fences != 0 {
			t.Fatalf("a ring fence before the writer resumed on the parked object's commit: %+v", log[park:resumed+1])
		}
	}
	if first := log[park].size; int64(first) < batch {
		t.Fatalf("first object holds %d bytes, want a full batch of %d", first, batch)
	}
	got := make([]byte, len(data))
	for _, i := range []int64{0, 33, 34, 59} {
		if err := h.disk.ReadAt(got, i*int64(len(got))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
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
