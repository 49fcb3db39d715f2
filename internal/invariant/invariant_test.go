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
	Assertf(true, "never fires %d", 1)
}

func TestAssertPanicsWhenTagged(t *testing.T) {
	if !Enabled {
		t.Skip("assertions compiled out without -tags lsvdcheck")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Assert(false) did not panic under lsvdcheck")
		}
	}()
	Assert(false, "must fire")
}
