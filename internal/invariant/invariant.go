package invariant

import "fmt"

// Assert panics when cond is false, so a stated invariant fails loudly
// instead of corrupting state silently. Pass a constant msg: the call
// then costs one predictable branch when cond holds.
func Assert(cond bool, msg string) {
	if !cond {
		panic("lsvd invariant violated: " + msg)
	}
}

// Failf panics with a formatted invariant violation. Call it only on
// the failing branch, `if !cond { invariant.Failf(...) }`: its
// arguments escape to the heap, so boxing them before the condition is
// known would make every passing check allocate.
func Failf(format string, args ...any) {
	panic("lsvd invariant violated: " + fmt.Sprintf(format, args...))
}
