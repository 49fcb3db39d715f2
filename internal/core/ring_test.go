package core

import (
	"bytes"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// noteFences logs label, with the ring fences d has taken so far, as
// each operation m matches arrives.
func noteFences(rs *testrec.Store, d *Disk, m testrec.Match, label string) {
	rs.Do(m, func(testrec.Op) error {
		rs.Note(label, int64(d.ringFences.Load()))
		return nil
	})
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

// smallRing is a volume whose write log holds 34 writes of 128 KiB;
// tune, when set, adjusts its options further.
func smallRing(t *testing.T, store objstore.Store, batchBytes int64, tune func(*Options)) *harness {
	return newHarness(t, func(o *Options) {
		o.Store = store
		o.CacheDev = simdev.NewMem(64 * block.MiB)
		o.WriteCacheFrac = 0.07 // 4.47 MiB of log
		o.VolBytes = 64 * block.MiB
		o.BatchBytes = batchBytes
		o.CheckpointEvery = 1 << 20
		o.GCLowWater = -1
		if tune != nil {
			tune(o)
		}
	})
}

// TestRingFullWaitsForTheObjectInFlight: the ring fills with one object
// uploading and a third of a batch open. The kick seals nothing — the
// uploading object pins the head and its commit frees it — and the
// writer resumes on that commit's tick, without a fence.
//
// The assertions are over the op log, not the whole run's fence count:
// from the parked object's PUT to the first write after it landed there
// is no other data PUT (no runt sealed behind it, by the kick or by a
// fence's drain marker) and no ring fence. Later ring-fulls of the run
// are not pinned: a starved host may fence one of those legitimately.
func TestRingFullWaitsForTheObjectInFlight(t *testing.T) {
	const batch = 3 * block.MiB // 24 writes; 10 more fit in the log
	rs := testrec.NewStore(objstore.NewMem())
	h := smallRing(t, rs, batch, nil)
	noteFences(rs, h.disk, testrec.DataObject, "put")
	p := rs.Park(testrec.DataObject.Once())
	done := make(chan error, 1)
	data := payload(1, 128*1024)
	go func() {
		for i := 0; i < 60; i++ {
			if err := h.disk.WriteAt(data, int64(i)*int64(len(data))); err != nil {
				done <- err
				return
			}
			rs.Note("ack", int64(h.disk.ringFences.Load()))
		}
		done <- nil
	}()

	parked := <-p.Arrived()
	waitFor(t, "the writer to stall on a full ring", func() bool {
		st := h.disk.Stats()
		return st.RingKicks > 0 && st.DestageQueued == 0
	})
	p.Release(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}

	if parked.Len < batch {
		t.Fatalf("first object holds %d bytes, want a full batch of %d", parked.Len, batch)
	}
	landed := false
	var resumed testrec.Op
	for _, op := range rs.Log()[parked.Stamp:] {
		if op.Kind == testrec.Put && op.Done && op.Name == parked.Name {
			landed = true
		} else if testrec.DataObject(op) && !op.Done {
			t.Fatalf("a %d-byte object was sealed behind the parked one before the writer resumed: the kick or a fence sealed a runt", op.Len)
		} else if op.Kind == testrec.Note && op.Name == "ack" && landed {
			resumed = op
			break
		}
	}
	if resumed.Stamp == 0 {
		t.Fatalf("the parked PUT landed: %v; want a write acknowledged after it", landed)
	}
	if resumed.Off != 0 {
		t.Fatalf("%d ring fences before the writer resumed on the parked object's commit", resumed.Off)
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
//
// The pass condition is an ordering over the op log: every data object
// is PUT, under half a batch, with no ring fence taken since the
// writer's last ack — the kick sealed it, not a fence's drain marker.
func TestRingFullWithNothingInFlightSealsAtAnyFill(t *testing.T) {
	const batch = 16 * block.MiB
	rs := testrec.NewStore(objstore.NewMem())
	h := smallRing(t, rs, batch, nil)
	noteFences(rs, h.disk, testrec.DataObject, "put")
	data := payload(1, 128*1024)
	for i := 0; i < 110; i++ { // three laps of the log
		if err := h.disk.WriteAt(data, int64(i)*int64(len(data))); err != nil {
			t.Fatal(err)
		}
		rs.Note("ack", int64(h.disk.ringFences.Load()))
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	objects, fences := 0, int64(0)
	for _, op := range rs.Log() {
		switch {
		case op.Kind == testrec.Note && op.Name == "ack":
			fences = op.Off
		case op.Kind == testrec.Note && op.Name == "put" && op.Off != fences:
			t.Fatalf("a ring fence before object %d was PUT: a fence's drain marker sealed the records, not the kick", objects)
		case testrec.DataObject(op) && !op.Done:
			if objects++; op.Len >= batch/2 {
				t.Fatalf("object of %d bytes: the case is meant to seal under half a batch (%d)", op.Len, batch/2)
			}
		}
	}
	if objects < 3 {
		t.Fatalf("%d objects: want one per lap", objects)
	}
}
