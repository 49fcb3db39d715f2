// Package invariant provides build-tag-gated runtime assertions and the
// goroutine panic guard (DESIGN.md §5e). Assert and Assertf compile to
// empty, inlinable no-ops without the lsvdcheck tag, so production
// binaries pay nothing; `make check-invariant` runs the torture and
// stress suites with `-tags lsvdcheck -race` so violations crash the
// test instead of corrupting state silently. Go (the panic guard) is
// always active. Lock order is checked statically, by lsvd-vet's
// lockorder analyzer.
package invariant

import (
	"fmt"
	"runtime/debug"
)

// Go spawns fn on a new goroutine behind a panic guard: a panic in fn
// is recovered, annotated with the goroutine's name and stack, and
// re-raised, so a crash identifies which of the engine's background
// loops died instead of surfacing as an anonymous runtime trace. The
// goroguard analyzer requires every goroutine in non-test code to
// start through this (or an equivalent recover-first idiom).
func Go(name string, fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("lsvd: goroutine %q panicked: %v\n%s", name, r, debug.Stack()))
			}
		}()
		fn()
	}()
}
