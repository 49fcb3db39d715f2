// Package testleak is the TestMain guard of the test packages that open
// volumes: it fails the package when a test leaves a volume's
// goroutines running, because a leaked disk keeps its caches and
// staging buffers alive for the rest of the test binary. It also
// prints the peak HeapInuse it sampled (visible with -v), on a
// wall-clock tick that a stepped run pauses (Pause).
package testleak

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsvd/internal/invariant"
)

// Main runs the package's tests and exits with their code, or with 1
// when goroutines outlive them. Call it from TestMain.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	sampler.mu.Lock()
	sampler.tick = time.NewTicker(sampleEvery)
	sampler.mu.Unlock()
	stop, done := make(chan struct{}), make(chan struct{})
	invariant.Go("testleak-heap", func() {
		defer close(done)
		for {
			sampler.mu.Lock()
			if sampler.paused == 0 {
				sample()
			}
			sampler.mu.Unlock()
			select {
			case <-stop:
				return
			case <-sampler.tick.C:
			}
		}
	})
	code := m.Run()
	close(stop)
	<-done
	sampler.tick.Stop()
	fmt.Printf("peak HeapInuse %d MiB\n", sampler.top>>20)
	// A -fuzz run leaves the fuzzing engine's signal handler running.
	if n := settled(base); n > base && flag.Lookup("test.fuzz").Value.String() == "" {
		buf := make([]byte, 1<<20)
		fmt.Printf("FAIL: %d goroutines still running after the tests, %d before them:\n%s\n",
			n, base, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}

// sampleEvery is the wall-clock period of the heap sampler.
const sampleEvery = 100 * time.Millisecond

// sampler is Main's heap sampler: the peak HeapInuse it read, every
// sampleEvery but while a run that steps the program is paused (Pause).
var sampler struct {
	mu     sync.Mutex
	top    uint64
	paused int
	tick   *time.Ticker // nil outside Main
}

// sample reads HeapInuse into the peak. Called with sampler.mu held.
func sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sampler.top = max(sampler.top, ms.HeapInuse)
}

// Pause stops the heap sampler's wall-clock samples until resume is
// called, and samples on each side instead: a run that settles the
// program step by step (testrec.Script.Run) must not have the sampler's
// goroutine, or its stop-the-world, land between the goroutines one step
// wakes, for that can reorder them.
func Pause() (resume func()) {
	sampler.mu.Lock()
	defer sampler.mu.Unlock()
	if sampler.tick == nil {
		return func() {}
	}
	if sampler.paused++; sampler.paused == 1 {
		sampler.tick.Stop()
		select {
		case <-sampler.tick.C: // a tick sent before the stop
		default:
		}
	}
	sample()
	return func() {
		sampler.mu.Lock()
		defer sampler.mu.Unlock()
		sample()
		if sampler.paused--; sampler.paused == 0 {
			sampler.tick.Reset(sampleEvery)
		}
	}
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
