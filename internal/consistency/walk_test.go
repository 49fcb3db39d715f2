package consistency

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
	"lsvd/internal/vdisk"
)

// Every torture iteration is a seeded walk (testrec.Run, DESIGN.md §5):
// each backend operation, each write and flush of the cache device, each
// timer of the product's and each operation of a torture's writers is
// held at one gate, which releases one of them whenever the program has
// settled. The seed draws everything a run depends on:
//
//   - the workload, from the torture's own stream;
//   - the faults, by the recorders' rules, whose draw is a function of the
//     seed and the operation (testrec.Match.Chance), so a torn PUT keeps
//     the prefix it leaves;
//   - the order: one operation in five is slow, held back for up to 64
//     steps while others can go; of the rest the oldest goes first, or,
//     with chance 1/4, a younger one;
//   - the kill: a torture that kills its disk holds on a kill note, which
//     the walk releases at a step drawn from the seed, an op stamp.
//
// So one seed is one run. A failing iteration prints its row, the
// torture, the seed and the choices the walk took; LSVD_TORTURE_REPLAY
// set to that row runs exactly that walk again.

// cacheBytes is the size of a torture's cache device.
const cacheBytes = 32 * block.MiB

// walkSettle bounds each wait for the program to settle.
const walkSettle = 10 * time.Second

// backendOps are the store operations a walk holds: all of them.
var backendOps = testrec.Kinds(testrec.Put, testrec.Get, testrec.GetRange, testrec.Delete, testrec.List, testrec.Size)

// walk is one iteration's: its gate and the recorders it schedules.
type walk struct {
	t      *testing.T
	seed   int64
	clock  *testrec.Clock
	g      *testrec.Gate
	stores map[string]*testrec.Store
	killAt int // the step the walk kills at, once the kill note is held
}

func newWalk(t *testing.T, seed int64) *walk {
	w := &walk{t: t, seed: seed, clock: testrec.NewClock(), stores: map[string]*testrec.Store{}}
	w.g = testrec.NewGate(w.clock)
	w.g.Timers()
	return w
}

// store returns a backend over inner on the walk's gate, logged under
// name.
func (w *walk) store(name string, inner objstore.Store) *testrec.Store {
	s := testrec.NewStore(inner)
	s.Clock = w.clock
	s.Join(w.g, backendOps)
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
	d.Join(w.g, func(op testrec.Op) bool {
		return op.Kind == testrec.Flush || op.Kind == testrec.Write && op.Off < logEnd
	})
	return d.Vectored()
}

// hold holds the calling goroutine, a writer about to issue operation
// seq, until the walk releases it.
func (w *walk) hold(writer int, seq uint64) {
	_ = w.g.Hold(fmt.Sprintf("w%d", writer), int64(seq))
}

// awaitKill holds the calling goroutine until the walk kills: at step
// killAt or later, or once nothing else is held.
func (w *walk) awaitKill(killAt int) {
	w.killAt = killAt
	_ = w.g.Hold(testrec.KillNote, 0)
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
		_ = d.w.g.Hold(testrec.IdleNote, 0)
	}
	return err
}

// choose is the walk's draw of a choice at each step. An operation it
// sees for the first time is slow with chance 1/walkSlow: it is not
// released for up to walkDelay steps while anything else can go, as a
// PUT stays in flight while later ones land. Of the rest, the oldest
// goes, or with chance 1/4 another. The kill goes at step killAt.
func (w *walk) choose() func(int, []string) *testrec.Choice {
	rng := rand.New(rand.NewSource(w.seed ^ 0x77616c6b))
	kill := testrec.KillNote + " 0"
	until := map[string]int{} // a held operation's label → the step its delay ends
	return func(step int, labels []string) *testrec.Choice {
		n := len(labels)
		if labels[n-1] == kill {
			if step >= w.killAt {
				return &testrec.Choice{Step: step, Op: kill}
			}
			n--
		}
		var ready []string
		for _, l := range labels[:n] {
			end, seen := until[l]
			if !seen {
				end = step
				if rng.Intn(walkSlow) == 0 {
					end += 1 + rng.Intn(walkDelay)
				}
				until[l] = end
			}
			if end <= step {
				ready = append(ready, l)
			}
		}
		pick := labels[0]
		if len(ready) > 0 {
			pick = ready[0]
			if len(ready) > 1 && rng.Intn(4) == 0 {
				pick = ready[1+rng.Intn(len(ready)-1)]
			}
		}
		delete(until, pick)
		if pick == labels[0] {
			return nil
		}
		return &testrec.Choice{Step: step, Op: pick}
	}
}

// A walk delays one operation in walkSlow by up to walkDelay steps.
const (
	walkSlow  = 5
	walkDelay = 64
)

// replayRow is one torture walk, as a failing iteration prints it.
type replayRow struct {
	torture string
	seed    int64
	sched   []testrec.Choice
}

func (r replayRow) String() string {
	return fmt.Sprintf("{%q, %d, %s},", r.torture, r.seed, testrec.Quote(r.sched))
}

var replayRe = regexp.MustCompile(`^\{\s*("(?:[^"\\]|\\.)*")\s*,\s*(-?\d+)\s*,\s*(\[\]string\{.*\})\s*\},?$`)

// parseReplay reads a row that replayRow.String printed.
func parseReplay(s string) (replayRow, error) {
	m := replayRe.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return replayRow{}, fmt.Errorf("LSVD_TORTURE_REPLAY=%q is not a {torture, seed, choices} row", s)
	}
	var r replayRow
	var err error
	if r.torture, err = strconv.Unquote(m[1]); err != nil {
		return r, err
	}
	if r.seed, err = strconv.ParseInt(m[2], 10, 64); err != nil {
		return r, err
	}
	row, err := testrec.Unquote(m[3])
	if err != nil {
		return r, err
	}
	if r.sched, err = testrec.ParseChoices(row); err != nil {
		return r, err
	}
	if r.sched == nil {
		r.sched = []testrec.Choice{}
	}
	return r, nil
}

// torture runs iters iterations of the calling torture, from
// LSVD_FAULT_SEED on, each a walk, and stops at the first that fails.
// With LSVD_TORTURE_REPLAY set it runs only the walk that row names.
func torture(t *testing.T, iters int64, iteration func(*walk) error) {
	if env := os.Getenv("LSVD_TORTURE_REPLAY"); env != "" {
		r, err := parseReplay(env)
		if err != nil {
			t.Fatal(err)
		}
		if r.torture != t.Name() {
			t.Skipf("LSVD_TORTURE_REPLAY replays %s", r.torture)
		}
		t.Run(fmt.Sprintf("seed=%d", r.seed), func(t *testing.T) { runWalk(t, r, iteration) })
		return
	}
	name, seed := t.Name(), envInt("LSVD_FAULT_SEED", 1)
	base := runtime.NumGoroutine()
	for it := range iters {
		t.Run(fmt.Sprintf("seed=%d", seed+it), func(t *testing.T) {
			runWalk(t, replayRow{torture: name, seed: seed + it}, iteration)
		})
		if t.Failed() {
			break // one minimal repro beats fifty identical ones
		}
	}
	waitGoroutines(t, base)
}

// runWalk runs one iteration as a walk: r's choices when it has them
// (a replay), else the seed's draw. It returns the choices the walk took
// and its log, one label per entry (testrec.Label). A failure prints the
// line that replays it; -v prints each iteration's injected faults and
// torn PUTs, and a digest of its log.
func runWalk(t *testing.T, r replayRow, iteration func(*walk) error) ([]testrec.Choice, []string) {
	w := newWalk(t, r.seed)
	var choose func(int, []string) *testrec.Choice
	if r.sched == nil {
		choose = w.choose()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // quiet's fast path
	s, err := testrec.Run(w.g, walkSettle, func() error { return iteration(w) }, r.sched, choose)
	if err == nil {
		err = s.Failed
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
	var lines []string
	for _, op := range w.clock.Log() {
		lines = append(lines, testrec.Label(op))
	}
	t.Logf("%d steps, %d choices, %d log entries, digest %s", len(s.Steps), len(s.Choices), len(lines), digest(lines))
	if err != nil {
		t.Errorf("%v\nthe newest log entries:\n\t%s", err, strings.Join(lines[max(0, len(lines)-64):], "\n\t"))
		r.sched = s.Choices
		env := ""
		if rate := os.Getenv("LSVD_FAULT_RATE"); rate != "" {
			env = "LSVD_FAULT_RATE=" + rate + " "
		}
		t.Logf("replay: %sLSVD_TORTURE_REPLAY='%s' go test -run '^%s$' ./internal/consistency", env, r, r.torture)
	}
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

// wakeTogether names, for a torture one seed of which can run two ways,
// the race between goroutines woken together that decides which way:
// the program's, not the walk's, since nothing is held between their
// wake and their race. raceWakeTogether names those that only the race
// detector's shuffling of woken goroutines brings out.
var (
	wakeTogether = map[string]string{
		"TestCheckpointCrashTorture": "a fence resubmits the uploads that failed, each on a goroutine of its own, and they race for the upload gate's two slots",
	}
	raceWakeTogether = map[string]string{
		"TestConcurrentTorture": "the writers one group commit wakes race to lead the next group, which orders their records in the ring",
		"TestGCTorture":         "the writers one group commit wakes race to lead the next group, which orders their records in the ring",
		"TestReplicaTorture":    "the writers one group commit wakes race to lead the next group, which orders their records in the ring",
	}
)

// TestTortureReplay replays one walk of each torture from the row its
// first run would print, and checks that the replay logs what the first
// run logged: a walk is a function of its seed and its choices, except
// where goroutines woken together race (wakeTogether).
func TestTortureReplay(t *testing.T) {
	seed := envInt("LSVD_FAULT_SEED", 1)
	names := make([]string, 0, len(tortures))
	for name := range tortures {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if why, ok := wakeTogether[name]; ok {
				t.Skip(why)
			}
			if why, ok := raceWakeTogether[name]; ok && raceDetector {
				t.Skip(why)
			}
			sched, first := runWalk(t, replayRow{torture: name, seed: seed}, tortures[name])
			if t.Failed() {
				return
			}
			r, err := parseReplay(replayRow{name, seed, sched}.String())
			if err != nil {
				t.Fatal(err)
			}
			if _, again := runWalk(t, r, tortures[name]); !slices.Equal(first, again) {
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
