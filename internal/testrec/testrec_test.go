package testrec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// store held when that stamp was logged; a failed PUT leaves nothing,
// and a torn one the prefix it left.
func TestAtMatchesTheStoreAsItWas(t *testing.T) {
	mem := objstore.NewMem()
	s := NewStore(mem)
	s.Keep = true
	s.Fail(Puts.Named("o4"), errors.New("refused"))
	s.Tear(Puts.Named("o3"), 3)
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
			_ = s.PutV(ctx, name, [][]byte{data, []byte("-v")}) // o4 is refused, o3 torn
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
	if _, torn := s.Faults(); torn == 0 {
		t.Fatal("no PUT was torn; the test proves nothing")
	}
}

// TestTearLeavesAPrefixOfNewObjectsOnly: a torn PUT of a new object
// leaves a prefix of its bytes, and one of them at least some bytes; a
// torn overwrite leaves the old object whole. Faults counts both from
// the log.
func TestTearLeavesAPrefixOfNewObjectsOnly(t *testing.T) {
	mem := objstore.NewMem()
	s := NewStore(mem)
	s.Tear(Puts.Prefixed("new"), 7)
	data := []byte("0123456789abcdef")
	partial := 0
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("new%d", i)
		if err := s.PutV(ctx, name, [][]byte{data[:5], data[5:]}); !errors.Is(err, ErrFault) {
			t.Fatalf("torn put: %v", err)
		}
		got, err := mem.Get(ctx, name)
		if err != nil || !bytes.HasPrefix(data, got) {
			t.Fatalf("torn object %q holds %q (%v), not a prefix", name, got, err)
		}
		if len(got) > 0 && len(got) < len(data) {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no tear left part of an object")
	}
	if err := s.Put(ctx, "super", []byte("old")); err != nil {
		t.Fatal(err)
	}
	s.Tear(Puts.Named("super"), 7)
	for i := 0; i < 8; i++ {
		if err := s.Put(ctx, "super", []byte("new")); !errors.Is(err, ErrFault) {
			t.Fatalf("torn overwrite: %v", err)
		}
	}
	if got, err := mem.Get(ctx, "super"); err != nil || string(got) != "old" {
		t.Fatalf("a torn overwrite left %q (%v)", got, err)
	}
	if failed, torn := s.Faults(); failed != 40 || torn != 32 {
		t.Fatalf("Faults() = %d, %d; want 40, 32", failed, torn)
	}
	if lines := s.Lines(); lines[1] != "put-torn new0" || lines[len(lines)-1] != "put-failed super" {
		t.Fatalf("the log reads %q … %q", lines[1], lines[len(lines)-1])
	}
}

// TestChanceIsSeeded: for a fixed sequential stream of operations,
// Chance picks the same ones from the same seed, at about its rate.
func TestChanceIsSeeded(t *testing.T) {
	run := func(seed int64) []bool {
		s := NewStore(objstore.NewMem())
		s.Fail(Puts.Chance(seed, 0.3), ErrFault)
		var failed []bool
		for i := 0; i < 1000; i++ {
			failed = append(failed, s.Put(ctx, "x", nil) != nil)
			if _, err := s.Get(ctx, "x"); err != nil && !errors.Is(err, objstore.ErrNotFound) {
				t.Fatal(err) // a GET is not a PUT
			}
		}
		return failed
	}
	a := run(99)
	if !slices.Equal(a, run(99)) {
		t.Fatal("the same seed picked different operations")
	}
	if slices.Equal(a, run(100)) {
		t.Fatal("another seed picked the same operations")
	}
	if n := len(slices.DeleteFunc(a, func(f bool) bool { return !f })); n < 250 || n > 350 {
		t.Fatalf("chance 0.3 picked %d of 1000", n)
	}
}

// TestFirstAndEveryCount: First(n) picks the first n operations its
// Match does, Every(n) every nth.
func TestFirstAndEveryCount(t *testing.T) {
	s := NewStore(objstore.NewMem())
	s.Fail(Puts.Named("victim").First(2), ErrFault)
	s.Fail(Puts.Named("n").Every(3), ErrFault)
	var got []bool
	for _, name := range []string{"ok", "victim", "n", "victim", "n", "victim", "n", "n", "n", "n"} {
		got = append(got, s.Put(ctx, name, nil) == nil)
	}
	want := []bool{true, false, true, false, true, true, false, true, true, false}
	if !slices.Equal(got, want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
	if failed, _ := s.Faults(); failed != 4 {
		t.Fatalf("Faults() counts %d failures, want 4", failed)
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

// gateRun drives three writers, each PUTting three objects, through a
// gate: it starts them one at a time, and at each step releases the
// held operation choose picks, failing every third. It returns the log.
func gateRun(t *testing.T, choose func(step int, held []*Held) *Held) []string {
	t.Helper()
	s := NewStore(objstore.NewMem())
	g := s.Gate(Puts)
	settle := func() {
		t.Helper()
		if err := Settle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{}, 3)
	for w := range 3 {
		go func() {
			for i := range 3 {
				_ = s.Put(ctx, fmt.Sprintf("w%d.%d", w, i), []byte{byte(i)}) // the log records the outcome
			}
			done <- struct{}{}
		}()
		settle()
	}
	for step := 0; len(done) < 3; step++ {
		settle()
		held := g.Held()
		if len(held) == 0 {
			continue
		}
		var err error
		if step%3 == 2 {
			err = ErrFault
		}
		g.Release(choose(step, held), err)
	}
	return s.Lines()
}

// TestGateReplaysAChoiceSequence: the same choices give the same log,
// run after run, whatever the goroutines' scheduling: once settled,
// only the goroutine of the released operation moves.
func TestGateReplaysAChoiceSequence(t *testing.T) {
	choose := func(step int, held []*Held) *Held { return held[(step*7)%len(held)] }
	want := gateRun(t, choose)
	if len(want) != 18 {
		t.Fatalf("log %q: want nine PUTs, each logged twice", want)
	}
	for run := 1; run < 20; run++ {
		if got := gateRun(t, choose); !slices.Equal(got, want) {
			t.Fatalf("run %d logged %q, run 0 %q", run, got, want)
		}
	}
}

// TestGateHoldsTimers: with a gate holding its clock's timers, a timer
// is a held operation that fires only once released, and one stopped
// first leaves the held set unfired; without, it runs in real time.
func TestGateHoldsTimers(t *testing.T) {
	s := NewStore(objstore.NewMem())
	fired := make(chan string, 2)
	stop := objstore.ClockOf(s).AfterFunc("real", time.Microsecond, func() { fired <- "real" })
	if got := <-fired; got != "real" || stop() {
		t.Fatalf("a real-time timer fired %q and stopped after", got)
	}
	g := NewGate(s.Clock)
	g.Timers()
	defer g.Open()
	objstore.ClockOf(s).AfterFunc("kept", time.Hour, func() { fired <- "kept" })
	stop = objstore.ClockOf(s).AfterFunc("dropped", time.Hour, func() { fired <- "dropped" })
	held := g.Held()
	if len(held) != 2 || held[0].Label != "timer kept" || held[1].Label != "timer dropped" {
		t.Fatalf("held %v", held)
	}
	if !stop() || stop() || len(g.Held()) != 1 {
		t.Fatal("a stopped timer stays held")
	}
	g.Release(held[0], nil)
	if got := <-fired; got != "kept" {
		t.Fatalf("fired %q", got)
	}
	if err := Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Arrivals seen together are logged in label order.
	if lines := s.Lines(); !slices.Equal(lines, []string{"timer dropped", "timer kept", "timer-done kept"}) {
		t.Fatalf("the log reads %q", lines)
	}
}

// TestChanceIgnoresArrivalOrder: Chance draws the same operations
// whichever order they arrive in.
func TestChanceIgnoresArrivalOrder(t *testing.T) {
	run := func(names []string) []string {
		s := NewStore(objstore.NewMem())
		s.Fail(Puts.Chance(7, 0.5), ErrFault)
		var failed []string
		for _, name := range names {
			if s.Put(ctx, name, nil) != nil {
				failed = append(failed, name)
			}
		}
		slices.Sort(failed)
		return failed
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "a", "b"}
	want := run(names)
	slices.Reverse(names)
	if got := run(names); !slices.Equal(got, want) || len(want) == 0 || len(want) == len(names) {
		t.Fatalf("failed %q in one order, %q in the other", want, got)
	}
}

// TestGateReleaseAsFailed: a held operation released with an error is
// logged failed and never reaches the wrapped store; one released with
// nil does.
func TestGateReleaseAsFailed(t *testing.T) {
	mem := objstore.NewMem()
	s := NewStore(mem)
	g := s.Gate(Puts)
	done := make(chan error, 1)
	for _, name := range []string{"failed", "landed"} {
		go func() { done <- s.Put(ctx, name, []byte(name)) }()
		if err := Settle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		held := g.Held()
		if len(held) != 1 || held[0].String() != "put "+name {
			t.Fatalf("held %v", held)
		}
		var fault error
		if name == "failed" {
			fault = ErrFault
		}
		g.Release(held[0], fault)
		if err := <-done; !errors.Is(err, fault) {
			t.Fatalf("put %s returned %v", name, err)
		}
	}
	if _, err := mem.Size(ctx, "failed"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("the put released as failed reached the store: %v", err)
	}
	if _, err := mem.Size(ctx, "landed"); err != nil {
		t.Fatal(err)
	}
	want := []string{"put failed", "put-failed failed", "put landed", "put-done landed"}
	if got := s.Lines(); !slices.Equal(got, want) {
		t.Fatalf("log %q, want %q", got, want)
	}
	if n, _ := s.Faults(); n != 1 {
		t.Fatalf("%d faults counted", n)
	}
}

// TestGateReleaseLate: a PUT released late fails to its caller and
// reaches the store only when its write, held as an operation of its
// own, is released; the log, At and Faults see it as such.
func TestGateReleaseLate(t *testing.T) {
	mem := objstore.NewMem()
	s := NewStore(mem)
	s.Keep = true
	g := s.Gate(Puts)
	done := make(chan error, 1)
	go func() { done <- s.Put(ctx, "obj", []byte("late")) }()
	if err := Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.ReleaseLate(g, g.Held()[0])
	if err := <-done; !errors.Is(err, ErrFault) {
		t.Fatalf("the put released late returned %v", err)
	}
	if err := Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	failed := s.Now()
	if _, err := mem.Size(ctx, "obj"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("the late write landed before its release: %v", err)
	}
	held := g.Held()
	if len(held) != 1 || held[0].String() != "put-late obj" {
		t.Fatalf("held %v", held)
	}
	g.Release(held[0], nil)
	if !s.Await(failed, Puts.Named("obj"), 10*time.Second) {
		t.Fatal("the late write never landed")
	}
	if got, err := s.At(s.Now()).Get(ctx, "obj"); err != nil || string(got) != "late" {
		t.Fatalf("At holds %q, %v", got, err)
	}
	want := []string{"put obj", "put-late obj", "put-failed obj", "put-done obj"}
	if got := s.Lines(); !slices.Equal(got, want) {
		t.Fatalf("log %q, want %q", got, want)
	}
	if n, _ := s.Faults(); n != 1 {
		t.Fatalf("%d faults counted", n)
	}
}

// TestSettleFailsWithinItsBound: a goroutine that never blocks keeps
// Settle from returning nil; it fails once its bound has passed, not
// much later.
func TestSettleFailsWithinItsBound(t *testing.T) {
	var stop atomic.Bool
	spun := make(chan struct{})
	go func() {
		for !stop.Load() {
			runtime.Gosched()
		}
		close(spun)
	}()
	start := time.Now()
	err := Settle(100 * time.Millisecond)
	took := time.Since(start)
	stop.Store(true)
	<-spun
	if err == nil || !strings.Contains(err.Error(), "TestSettleFailsWithinItsBound") {
		t.Fatalf("Settle with a spinning goroutine: %v", err)
	}
	if took < 100*time.Millisecond || took > 5*time.Second {
		t.Fatalf("Settle failed after %v, bound 100ms", took)
	}
	if err := Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSettleUnderProfilers: the CPU profiler and the execution tracer
// of a test binary run with -cpuprofile or -trace have goroutines of
// their own, which sleep or read between samples; Settle settles beside
// them. Each is started here unless the flags have started it already.
func TestSettleUnderProfilers(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err == nil {
		defer pprof.StopCPUProfile()
	}
	if err := trace.Start(io.Discard); err == nil {
		defer trace.Stop()
	}
	if err := Settle(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}
