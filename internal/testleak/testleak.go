// Package testleak is the TestMain guard of the test packages that open
// volumes: it fails the package when a test leaves a volume's
// goroutines running, because a leaked disk keeps its caches and
// staging buffers alive for the rest of the test binary. It also
// prints the peak HeapInuse it sampled (visible with -v).
package testleak

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"lsvd/internal/invariant"
)

// Main runs the package's tests and exits with their code, or with 1
// when goroutines outlive them. Call it from TestMain.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	stop, peak := make(chan struct{}), make(chan uint64, 1)
	invariant.Go("testleak-heap", func() {
		var ms runtime.MemStats
		var top uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			top = max(top, ms.HeapInuse)
			select {
			case <-stop:
				peak <- top
				return
			case <-tick.C:
			}
		}
	})
	code := m.Run()
	close(stop)
	fmt.Printf("peak HeapInuse %d MiB\n", <-peak>>20)
	// A -fuzz run leaves the fuzzing engine's signal handler running.
	if n := settled(base); n > base && flag.Lookup("test.fuzz").Value.String() == "" {
		buf := make([]byte, 1<<20)
		fmt.Printf("FAIL: %d goroutines still running after the tests, %d before them:\n%s\n",
			n, base, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}

// settled gives goroutines that were told to stop, but have not been
// scheduled since, up to five seconds to exit, and returns the count
// it settled at. Goroutine exit has no event to wait on, so it polls.
func settled(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		<-tick.C
	}
}
