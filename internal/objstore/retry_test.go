package objstore_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

var ctx = context.Background()

// fastPolicy keeps retry tests quick.
var fastPolicy = objstore.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond}

func TestRecorderContract(t *testing.T) {
	objstore.StoreContract(t, testrec.NewStore(objstore.NewMem()))
}

// The composed stack the torture harness uses: a Retrier over a recorder
// failing a third of all operations. With a 16-attempt budget the
// contract must pass as if the store were healthy.
func TestRetrierOverFaultsContract(t *testing.T) {
	rec := testrec.NewStore(objstore.NewMem())
	rec.Fail(testrec.Any.Chance(42, 0.33), testrec.ErrFault)
	r := objstore.NewRetrier(rec, objstore.RetryPolicy{
		MaxAttempts: 16, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond,
	})
	objstore.StoreContract(t, r)
	if failed, _ := rec.Faults(); failed == 0 {
		t.Fatal("no fault was injected; the test proves nothing")
	}
	if r.Retries() == 0 {
		t.Fatal("retrier absorbed no failures")
	}
}

func TestRetrierAbsorbsTransientFailures(t *testing.T) {
	rec := testrec.NewStore(objstore.NewMem())
	r := objstore.NewRetrier(rec, fastPolicy)
	rec.Fail(testrec.Puts.First(2), testrec.ErrFault) // two failures, then heal
	if err := r.Put(ctx, "x", []byte("data")); err != nil {
		t.Fatalf("retrier did not absorb transient failures: %v", err)
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("retries=%d want 2", got)
	}
	if got, err := r.Get(ctx, "x"); err != nil || string(got) != "data" {
		t.Fatalf("get after retried put: %v %q", err, got)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	rec := testrec.NewStore(objstore.NewMem())
	r := objstore.NewRetrier(rec, fastPolicy)
	rec.Fail(testrec.Puts, testrec.ErrFault) // forever
	err := r.Put(ctx, "x", []byte("data"))
	if !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("persistent failure not surfaced with its class: %v", err)
	}
	if got, _ := rec.Faults(); got != fastPolicy.Attempts() {
		t.Fatalf("attempts=%d want %d", got, fastPolicy.Attempts())
	}
}

// Terminal errors must pass through unwrapped and unretried.
func TestRetrierPreservesTerminalErrors(t *testing.T) {
	mem := objstore.NewMem()
	r := objstore.NewRetrier(mem, fastPolicy)
	if _, err := r.Get(ctx, "missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("objstore.ErrNotFound lost through Retrier: %v", err)
	}
	if err := r.Delete(ctx, "missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("delete objstore.ErrNotFound lost: %v", err)
	}
	_ = r.Put(ctx, "x", []byte("abc"))
	if _, err := r.GetRange(ctx, "x", 99, 1); !errors.Is(err, objstore.ErrBadRange) {
		t.Fatalf("objstore.ErrBadRange lost: %v", err)
	}
	if got := r.Retries(); got != 0 {
		t.Fatalf("terminal errors were retried %d times", got)
	}

	dir, err := objstore.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rd := objstore.NewRetrier(dir, fastPolicy)
	if err := rd.Put(ctx, "../escape", []byte("x")); !errors.Is(err, objstore.ErrBadName) {
		t.Fatalf("objstore.ErrBadName lost: %v", err)
	}
	if got := rd.Retries(); got != 0 {
		t.Fatalf("bad name retried %d times", got)
	}
}

// TestRetrierContextCancellation: a cancel cuts the backoff short. On a
// testrec clock whose timers a gate holds, the context is cancelled once
// the retrier has armed its first backoff timer; Put must then return
// the injected fault, and the timer must be stopped unfired.
func TestRetrierContextCancellation(t *testing.T) {
	rec := testrec.NewStore(objstore.NewMem())
	g := testrec.NewGate(rec.Clock)
	g.Timers()
	defer g.Open()
	r := objstore.NewRetrier(rec, objstore.RetryPolicy{MaxAttempts: 50, BaseDelay: time.Hour})
	rec.Fail(testrec.Puts, testrec.ErrFault)
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Put(cctx, "x", []byte("data")) }()
	settle := func() {
		t.Helper()
		if err := testrec.Settle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if held := g.Held(); len(held) != 1 || held[0].Label != "timer retry put x" {
		t.Fatalf("held %v, want the first backoff timer", held)
	}
	cancel()
	settle()
	select {
	case err := <-done:
		// The last real failure is returned, not the cancellation, so the
		// caller can still classify what actually went wrong.
		if !errors.Is(err, testrec.ErrFault) {
			t.Fatalf("cancelled retry returned %v, want the last injected error", err)
		}
	default:
		t.Fatal("Put still waits on its backoff timer after the cancel")
	}
	if len(g.Held()) != 0 || slices.Contains(rec.Lines(), "timer-done retry put x") {
		t.Fatalf("the backoff timer was not stopped unfired: held %v, log %q", g.Held(), rec.Lines())
	}
}

func TestRetrierDisabled(t *testing.T) {
	rec := testrec.NewStore(objstore.NewMem())
	r := objstore.NewRetrier(rec, objstore.RetryPolicy{MaxAttempts: -1})
	rec.Fail(testrec.Puts.Once(), testrec.ErrFault)
	if err := r.Put(ctx, "x", []byte("d")); !errors.Is(err, testrec.ErrFault) {
		t.Fatalf("disabled retrier retried anyway: %v", err)
	}
	if got, _ := rec.Faults(); got != 1 {
		t.Fatalf("attempts=%d want 1", got)
	}
}
