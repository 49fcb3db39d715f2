//go:build !lsvdcheck

package invariant

// Enabled reports whether the lsvdcheck build tag is on.
const Enabled = false

// Assert is a no-op without the lsvdcheck tag.
func Assert(bool, string) {}

// Assertf is a no-op without the lsvdcheck tag.
func Assertf(bool, string, ...any) {}
