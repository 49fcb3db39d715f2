package invariant

import "testing"

func TestGoRunsFunction(t *testing.T) {
	done := make(chan int, 1)
	Go("test-worker", func() { done <- 42 })
	if got := <-done; got != 42 {
		t.Fatalf("guarded goroutine returned %d, want 42", got)
	}
}

func TestAssertPassesWhenTrue(t *testing.T) {
	Assert(true, "never fires")
}

func TestAssertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Assert(false) did not panic")
		}
	}()
	Assert(false, "must fire")
}

func TestFailfPanicsWithMessage(t *testing.T) {
	defer func() {
		if r := recover(); r != "lsvd invariant violated: slot 3 held twice" {
			t.Fatalf("Failf panicked with %v", r)
		}
	}()
	Failf("slot %d held %s", 3, "twice")
}
