//go:build lsvdcheck

package invariant

import "fmt"

// Enabled reports whether the lsvdcheck build tag is on. Callers can
// gate expensive invariant computations on it; the Assert calls
// themselves compile to no-ops without the tag.
const Enabled = true

// Assert panics when cond is false. It exists so stated invariants
// (DESIGN.md §5e) fail loudly under `-tags lsvdcheck` instead of
// corrupting state silently; without the tag it costs nothing.
func Assert(cond bool, msg string) {
	if !cond {
		panic("lsvd invariant violated: " + msg)
	}
}

// Assertf is Assert with formatting. The arguments are only evaluated
// on failure paths in tagged builds; callers on hot paths should still
// prefer Assert with a constant message.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("lsvd invariant violated: " + fmt.Sprintf(format, args...))
	}
}
