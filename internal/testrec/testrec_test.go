package testrec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

var ctx = context.Background()

// TestImageMatchesACrashedMemDevice: on a seeded trace of vectored
// writes and flushes, the image as of a prefix, with the pages a
// MemDevice lost when it ran the same prefix and crashed, reads as that
// MemDevice.
func TestImageMatchesACrashedMemDevice(t *testing.T) {
	const size = 16 * Page
	rng := rand.New(rand.NewSource(1))
	rec := NewDevice(simdev.NewMem(size))
	apply := func(dev simdev.Device, bufs [][]byte, off int64) {
		t.Helper()
		err := dev.Flush()
		if bufs != nil {
			err = simdev.WriteVec(dev, off, bufs...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	type step struct {
		bufs  [][]byte // nil: a flush
		off   int64
		stamp uint64
	}
	var steps []step
	for i := 0; i < 120; i++ {
		var s step
		for j := rng.Intn(4); j > 0 && rng.Intn(6) > 0; j-- {
			b := make([]byte, 1+rng.Intn(Page))
			if rng.Intn(4) > 0 {
				rng.Read(b)
			}
			s.bufs = append(s.bufs, b)
			s.off += int64(len(b))
		}
		s.off = rng.Int63n(size - s.off)
		apply(rec, s.bufs, s.off)
		s.stamp = rec.Now()
		steps = append(steps, s)
	}
	readAll := func(dev simdev.Device) []byte {
		buf := make([]byte, size)
		if err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for i := 0; i < len(steps); i += 3 {
		ref := simdev.NewMem(size)
		for _, s := range steps[:i+1] {
			apply(ref, s.bufs, s.off)
		}
		dirty := rec.Unflushed(steps[i].stamp)
		if len(dirty) != ref.DirtyPages() {
			t.Fatalf("step %d: %d unflushed pages, the MemDevice has %d", i, len(dirty), ref.DirtyPages())
		}
		before := readAll(ref)
		if !bytes.Equal(readAll(rec.Image(steps[i].stamp, nil)), before) {
			t.Fatalf("step %d: the image with every page kept differs", i)
		}
		ref.Crash(0.5, rand.New(rand.NewSource(int64(i))))
		after := readAll(ref)
		var lost []int64
		for pg := int64(0); pg*Page < size; pg++ {
			if !bytes.Equal(before[pg*Page:][:Page], after[pg*Page:][:Page]) {
				lost = append(lost, pg)
			}
		}
		if !bytes.Equal(readAll(rec.Image(steps[i].stamp, lost)), after) {
			t.Fatalf("step %d: the image with pages %v lost differs from the crashed MemDevice", i, lost)
		}
	}
}

func contents(t *testing.T, s objstore.Store) map[string]string {
	t.Helper()
	names, err := s.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	objs := map[string]string{}
	for _, name := range names {
		data, err := s.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		objs[name] = string(data)
	}
	return objs
}

// TestAtMatchesTheStoreAsItWas: At(stamp) holds exactly what the wrapped
// store held when that stamp was logged; a failed PUT leaves nothing.
func TestAtMatchesTheStoreAsItWas(t *testing.T) {
	mem := objstore.NewMem()
	s := NewStore(mem)
	s.Keep = true
	s.Fail(Puts.Named("o4"), errors.New("refused"))
	rng := rand.New(rand.NewSource(2))
	type snap struct {
		stamp uint64
		objs  map[string]string
	}
	var snaps []snap
	for i := 0; i < 80; i++ {
		name := fmt.Sprintf("o%d", rng.Intn(5))
		data := []byte(fmt.Sprint(i))
		switch rng.Intn(3) {
		case 0:
			_ = s.Delete(ctx, name) // the object may be missing
		case 1:
			_ = s.PutV(ctx, name, [][]byte{data, []byte("-v")}) // o4 is refused
		default:
			_ = s.Put(ctx, name, data)
		}
		snaps = append(snaps, snap{s.Now(), contents(t, mem)})
	}
	for _, sn := range snaps {
		if got := contents(t, s.At(sn.stamp)); !maps.Equal(got, sn.objs) {
			t.Fatalf("At(%d) holds %v, the store held %v", sn.stamp, got, sn.objs)
		}
	}
}

// TestPutVReachesTheWrappedPutV: a vectored PUT through the recorder
// takes the wrapped store's own PutV, as it would unwrapped: the store
// joins the pieces once, where Put would cost a second join.
func TestPutVReachesTheWrappedPutV(t *testing.T) {
	s := NewStore(objstore.NewMem())
	bufs := [][]byte{make([]byte, 1<<20), make([]byte, 1<<20)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := objstore.PutVec(ctx, s, "obj", bufs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Fatalf("a 2 MiB vectored PUT allocated %d bytes: it was joined twice", n)
	}
}

// TestParkReleaseAndFailInLogOrder: a parked operation is logged on
// arrival and completes with the outcome it is released with, as does
// every later one the park matches; hooks run in the order they were
// added; a failure stops when healed. No step sleeps.
func TestParkReleaseAndFailInLogOrder(t *testing.T) {
	s := NewStore(objstore.NewMem())
	p := s.Park(Deletes)
	s.Do(Puts.Once(), func(Op) error {
		s.Note("hook", 1)
		return nil
	})
	if err := s.Put(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Delete(ctx, "a") }()
	if op := <-p.Arrived(); op.String() != "delete a" {
		t.Fatalf("parked %v", op)
	}
	killed := errors.New("killed")
	p.Release(killed)
	if err := <-done; !errors.Is(err, killed) {
		t.Fatalf("released delete: %v", err)
	}
	if err := s.Delete(ctx, "a"); !errors.Is(err, killed) {
		t.Fatalf("delete after the release: %v", err)
	}
	refused := errors.New("refused")
	heal := s.Fail(Puts.Named("b"), refused)
	if err := s.Put(ctx, "b", nil); !errors.Is(err, refused) {
		t.Fatalf("failed put: %v", err)
	}
	heal()
	if err := s.Put(ctx, "b", nil); err != nil {
		t.Fatal(err)
	}
	s.Note("end", 7)
	want := []string{"put a", "hook 1", "put-done a", "delete a", "delete-failed a", "delete a", "delete-failed a",
		"put b", "put-failed b", "put b", "put-done b", "end 7"}
	if got := s.Lines(); !slices.Equal(got, want) {
		t.Fatalf("log %q, want %q", got, want)
	}
}
