package consistency

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
	"lsvd/internal/vdisk"
)

// Every torture iteration is a seeded walk (testrec.Script.Sample,
// DESIGN.md §5) on one gate that holds each backend operation, each
// write and flush of the cache device, each product timer and each
// writer operation. The seed draws the workload (the torture's own
// stream), the faults (testrec.Match.Chance, a function of the seed and
// the operation), the order, and the crash: the step a kill note goes
// (testrec.Script.Kill) or the PUT a backend cut starts at. So one
// seed is one run. At every settled step each open volume's block store
// passes its audit. A failing iteration prints its row; LSVD_REPLAY set
// to that row runs exactly that walk again.

// cacheBytes is the size of a torture's cache device.
const cacheBytes = 32 * block.MiB

// backendOps are the store operations a walk holds: all of them.
var backendOps = testrec.Kinds(testrec.Put, testrec.Get, testrec.GetRange, testrec.Delete, testrec.List, testrec.Size)

// walk is one iteration's: its script, the recorders it schedules and
// the volumes it audits.
type walk struct {
	*testrec.Script
	t      *testing.T
	seed   int64
	clock  *testrec.Clock
	stores map[string]*testrec.Store

	mu   sync.Mutex
	open map[*core.Disk]bool // the volumes audited at every settled step
}

func newWalk(t *testing.T, seed int64) *walk {
	w := &walk{t: t, seed: seed, clock: testrec.NewClock(), stores: map[string]*testrec.Store{}, open: map[*core.Disk]bool{}}
	w.Script = testrec.NewScript(w.clock)
	w.Timers()
	w.Audit = w.audit
	return w
}

// opened adds d, if an open returned it, to the volumes the walk audits.
func (w *walk) opened(d *core.Disk, err error) (*core.Disk, error) {
	if err == nil {
		w.mu.Lock()
		w.open[d] = true
		w.mu.Unlock()
	}
	return d, err
}

// closed takes d out of the audit; it goes on to be killed or closed.
func (w *walk) closed(d *core.Disk) *core.Disk {
	w.mu.Lock()
	delete(w.open, d)
	w.mu.Unlock()
	return d
}

// kill takes d out of the audit and kills it.
func (w *walk) kill(d *core.Disk) { w.closed(d).Kill() }

// audit runs the block store's utilization audit on each open volume.
func (w *walk) audit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for d := range w.open {
		if err := d.Backend().AuditUtilization(); err != nil {
			return err
		}
	}
	return nil
}

// store returns a backend over inner on the walk's gate, logged under
// name.
func (w *walk) store(name string, inner objstore.Store) *testrec.Store {
	s := testrec.NewStore(inner)
	s.Clock = w.clock
	s.Join(w.Gate, backendOps)
	w.stores[name] = s
	return s
}

// device returns a fresh cache device on the walk's gate, a vectored
// write one operation. The walk holds its flushes and the writes to its
// write-cache log. The writes to its read arena are logged but not
// held: they carry no crash state, and the admitter makes them while
// the reader waits for it (checked), so no one else moves meanwhile.
func (w *walk) device() simdev.Device {
	d := testrec.NewDevice(simdev.NewMem(cacheBytes))
	d.Clock = w.clock
	var host core.HostOptions
	host.SetDefaults()
	slots, _, err := core.CacheLayout(d, 1, host.WriteCacheFrac)
	if err != nil {
		panic(err)
	}
	logEnd := slots[0].Size()
	d.Join(w.Gate, func(op testrec.Op) bool {
		return op.Kind == testrec.Flush || op.Kind == testrec.Write && op.Off < logEnd
	})
	return d.Vectored()
}

// options are a torture's volume on store, over a fresh cache device:
// 16 MiB of 128 KiB objects, a checkpoint every four, and a backend that
// retries each operation up to attempts times.
func (w *walk) options(store objstore.Store, attempts int) core.Options {
	return core.Options{
		HostOptions: core.HostOptions{
			Store: store, Cache: w.device(), UploadDepth: 2,
			Retry: objstore.RetryPolicy{MaxAttempts: attempts, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond, Seed: w.seed},
		},
		VolumeOptions: core.VolumeOptions{
			Volume: "vol", VolBytes: 16 * block.MiB, BatchBytes: 128 << 10,
			CheckpointEvery: 4, DestageQueueDepth: 32,
		},
	}
}

// hold holds the calling goroutine, a writer about to issue operation
// seq, until the walk releases it.
func (w *walk) hold(writer int, seq uint64) {
	_ = w.Hold(fmt.Sprintf("w%d", writer), int64(seq))
}

// faults arms a chance-faulted torture's failure model on s (DESIGN.md
// §13): each operation fails with chance rate, drawn from seed, a PUT of
// a new object torn (testrec.Store.Tear); and, so that every seed injects
// at least one fault, the k-th operation the walk releases after it is
// armed fails too, k in [1, 4] drawn from seed. stop heals.
func faults(s *testrec.Store, seed int64, rate float64) (stop func()) {
	heal := s.Tear(testrec.Any.Chance(seed, rate), seed)
	k, n := int64(1+rand.New(rand.NewSource(seed)).Intn(4)), atomic.Int64{}
	healSure := s.Do(testrec.Any, func(testrec.Op) error {
		if n.Add(1) == k {
			return fmt.Errorf("%w: the seed's sure fault", testrec.ErrFault)
		}
		return nil
	})
	return func() { heal(); healSure() }
}

// checked returns d for a torture's audit to read through: after a read
// that went to the backend, the reader holds until the program has
// nothing left to do (testrec.IdleNote). A miss hands its window's
// prefetch extras to the admitter, which writes them into the read
// arena while the reader's next miss writes its demand blocks there,
// each under the arena's lock; which of the two takes it first decides
// where each lands and which extras are skipped as present, a
// wake-together race that would give one seed a different run each
// time.
func (w *walk) checked(d vdisk.Disk) vdisk.Disk { return idleReads{d, w} }

type idleReads struct {
	vdisk.Disk
	w *walk
}

func (d idleReads) ReadAt(p []byte, off int64) error {
	before := d.w.clock.Now()
	err := d.Disk.ReadAt(p, off)
	if d.w.clock.Now() != before {
		_ = d.w.Hold(testrec.IdleNote, 0)
	}
	return err
}

// torture runs LSVD_FAULT_ITERS iterations of the calling torture
// (iters, or short in -short), from LSVD_FAULT_SEED on, each a walk, and
// stops at the first that fails. With LSVD_REPLAY set it runs only the
// walk that row names.
func torture(t *testing.T, iters, short int64, iteration func(*walk) error) {
	if row, ok := testrec.Replay(t); ok {
		t.Run(fmt.Sprintf("seed=%d", row.Seed), func(t *testing.T) { runWalk(t, row, true, iteration) })
		return
	}
	if iters = env("LSVD_FAULT_ITERS", iters); testing.Short() {
		iters = min(iters, short)
	}
	name, seed := t.Name(), env[int64]("LSVD_FAULT_SEED", 1)
	base := runtime.NumGoroutine()
	for it := range iters {
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			runWalk(t, testrec.Row{Name: name, Seed: seed + it}, false, iteration)
		})
		if t.Failed() {
			break // one minimal repro beats fifty identical ones
		}
	}
	waitGoroutines(t, base)
}

// runWalk runs one iteration as a walk: row's choices if replay, else
// the seed's draw. It returns the choices the walk took and its log, one
// label per entry (testrec.Label). A failure prints the row that
// replays it; -v prints each iteration's injected faults and torn PUTs,
// and a digest of its log.
func runWalk(t *testing.T, row testrec.Row, replay bool, iteration func(*walk) error) ([]testrec.Choice, []string) {
	w := newWalk(t, row.Seed)
	play := func() error { return iteration(w) }
	var s *testrec.Schedule
	var err error
	if replay {
		s, err = w.Run(play, row.Choices, nil)
	} else {
		s, err = w.Sample(row.Seed, play)
	}
	names := make([]string, 0, len(w.stores))
	for name := range w.stores {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		failed, torn := w.stores[name].Faults()
		t.Logf("%s store: %d faults injected, %d PUTs torn", name, failed, torn)
	}
	lines := s.Lines()
	t.Logf("%d steps, %d threads, %d choices, %d log entries, digest %s", len(s.Steps), s.Threads(), len(s.Choices), len(lines), digest(lines))
	s.Report(t, testrec.Row{Name: row.Name, Seed: row.Seed, Choices: s.Choices}, err)
	return s.Choices, lines
}

// tortures are the iterations of the five tortures, by test name.
var tortures = map[string]func(*walk) error{
	"TestFaultTorture":           tortureIteration,
	"TestCheckpointCrashTorture": ckptCrashIteration,
	"TestConcurrentTorture":      concurrentIteration,
	"TestGCTorture":              gcTortureIteration,
	"TestReplicaTorture":         replicaIteration,
}

// TestTortureReplay replays one walk of each torture from the row its
// first run would print, and checks that the replay logs what the first
// run logged: a walk is a function of its seed and its choices.
func TestTortureReplay(t *testing.T) {
	seed := env[int64]("LSVD_FAULT_SEED", 1)
	names := make([]string, 0, len(tortures))
	for name := range tortures {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sched, first := runWalk(t, testrec.Row{Name: name, Seed: seed}, false, tortures[name])
			if t.Failed() {
				return
			}
			r, err := testrec.ParseRow(testrec.Row{Name: name, Seed: seed, Choices: sched}.String())
			if err != nil {
				t.Fatal(err)
			}
			if _, again := runWalk(t, r, true, tortures[name]); !slices.Equal(first, again) {
				i := 0
				for i < min(len(first), len(again)) && first[i] == again[i] {
					i++
				}
				t.Fatalf("the replay of %s logs %d entries, the first run %d; they part at entry %d", r, len(again), len(first), i+1)
			}
		})
	}
}

// digest names a log, the same in every run that logs the same lines.
func digest(lines []string) string {
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", h[:8])
}

// waitGoroutines fails, with a stack dump, if more than two goroutines
// beyond base are left once the program has settled.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	if err := testrec.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf)
	}
}
