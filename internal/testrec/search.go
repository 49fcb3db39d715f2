package testrec

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lsvd/internal/invariant"
	"lsvd/internal/testleak"
)

// One search, two drivers (DESIGN.md §5). A Script is a workload on a
// Gate, which Run plays as one schedule; Explore runs every schedule
// within a bound of choices, Sample the one a seed draws. A run is named
// by its Row, which a failure prints (Report) and LSVD_REPLAY replays.

// scriptSettle bounds each wait for a script's goroutines to settle.
const scriptSettle = 10 * time.Second

// Script is a workload's handle on the Gate that schedules it.
type Script struct {
	*Gate
	// Audit, if set, runs at every settled step of Run; an error ends the
	// run at that step.
	Audit func() error

	pending []chan error
	killAt  int // the step Sample kills at, once the kill note is held
}

// NewScript returns a script on a gate of c's.
func NewScript(c *Clock) *Script { return &Script{Gate: NewGate(c)} }

// Sync holds the script until every goroutine has settled.
func (s *Script) Sync() { _ = s.Hold(ScriptNote, 0) }

// Spawn runs op on an actor goroutine of its own, lets it run until it
// blocks, and returns where its error arrives (Wait).
func (s *Script) Spawn(op func() error) chan error {
	ch := make(chan error, 1)
	invariant.Go("testrec-actor", func() { ch <- op() })
	s.pending = append(s.pending, ch)
	s.Sync()
	return ch
}

// Wait returns the error of a spawned op, once it has returned.
func (s *Script) Wait(what string, ch chan error) error {
	s.pending = slices.DeleteFunc(s.pending, func(c chan error) bool { return c == ch })
	if err := <-ch; err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// Drain waits for every spawned op not waited for.
func (s *Script) Drain() {
	for _, ch := range s.pending {
		<-ch
	}
	s.pending = nil
}

// Kill holds the calling goroutine until the driver kills: Sample at
// step or later, any driver once nothing else is held.
func (s *Script) Kill(step int) {
	s.killAt = step
	_ = s.Hold(KillNote, 0)
}

// Choice is one decision of a run on a Gate that its default order would
// not make (Run): at Step, release the held operation labelled Op,
// failed before it applies if Fail, or, if Late, failed to its caller
// and applied when the "put-late" operation it leaves is released
// (Store.ReleaseLate).
type Choice struct {
	Step int
	Op   string
	Fail bool
	Late bool
}

func (c Choice) String() string {
	switch {
	case c.Fail:
		return fmt.Sprintf("%d fail %s", c.Step, c.Op)
	case c.Late:
		return fmt.Sprintf("%d late %s", c.Step, c.Op)
	}
	return fmt.Sprintf("%d %s", c.Step, c.Op)
}

// parseChoices reads choices printed by Choice.String.
func parseChoices(row []string) ([]Choice, error) {
	var sched []Choice
	for _, s := range row {
		n, op, _ := strings.Cut(s, " ")
		step, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("choice %q: %v", s, err)
		}
		op, fail := strings.CutPrefix(op, "fail ")
		op, late := strings.CutPrefix(op, "late ")
		sched = append(sched, Choice{step, op, fail, late})
	}
	return sched, nil
}

// Label names a held operation in a Choice: its String, and a range
// GET's or a device write's offset.
func Label(op Op) string {
	if op.Kind == GetRange || op.Kind == Write {
		return fmt.Sprintf("%v@%d", op, op.Off)
	}
	return op.String()
}

// Notes a Gate holds that Run treats apart. None takes a step but a
// kill's.
//   - A script note asks to go on once the program has settled: it is
//     released at once.
//   - An idle note asks to go on once the program has nothing left to
//     do: it is released once nothing else but timers and kills is held.
//   - A kill is released only by a Choice, or once nothing else is held.
const (
	ScriptNote = "script"
	IdleNote   = "idle"
	KillNote   = "kill"
)

// Schedule is what one Run did.
type Schedule struct {
	Steps   [][]string // the labels held at each step, in default order
	Choices []Choice   // the choices it took, sched's and choose's
	Failed  error      // what the script returned
	// Violations are what the caller's checks found in the run (Report).
	Violations []string
	clock      *Clock
}

// Run runs play on a goroutine of its own, on one P, and each time every
// goroutine has settled — by yielding (quiet), or by Settle's dump
// before it calls a run stuck — runs Audit, if set, and releases one
// operation held at the gate: the order of releases is a schedule.
//
// By default a step releases the oldest held operation, those that
// arrived at one step in label order. A timer (Gate.Timers) is the
// default only once nothing else but kill notes is held: the earliest
// deadline first, each deadline its duration past that of the timer
// fired last, so time moves only while the program waits on it. A kill
// note is the default only once nothing else is held. sched's choices
// take the default's place at their steps; at any other step choose,
// when not nil, is given the held operations in default order and may
// return a choice (nil keeps the default). Run's error
// is its own: a settle that did not come, a script stuck with nothing
// held, a choice whose operation is not held, or a failed audit; it
// opens the gate and leaves the script to end as it may.
func (sc *Script) Run(play func() error, sched []Choice, choose func(step int, held []*Held) *Choice) (*Schedule, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // quiet's fast path
	defer testleak.Pause()()                        // no wall-clock sample between steps
	g := sc.Gate
	s := &Schedule{clock: g.c}
	done := make(chan error, 1)
	invariant.Go("testrec-script", func() {
		defer func() { // a panic of the script's fails the run, which prints its row
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		done <- play()
	})
	arrived := map[*Held]int{}
	deadline := map[*Held]int64{}
	var now int64 // the virtual time of the timer fired last
	// quiet's fast path settles a step, but only Settle's dump of the
	// goroutines' states may find the run stuck: verify asks for one.
	verify := false
	for step := 0; ; {
		sure := verify || !quiet()
		verify = false
		if sure {
			if err := Settle(scriptSettle); err != nil {
				g.Open()
				return s, err
			}
		}
		var ops, timers, kills []*Held
		var script, idle *Held
		for _, h := range g.Held() {
			if _, ok := arrived[h]; !ok {
				arrived[h] = step
				deadline[h] = now + h.Off
			}
			switch {
			case h.Kind == Note && h.Name == ScriptNote:
				script = h
			case h.Kind == Note && h.Name == IdleNote:
				idle = h
			case h.Kind == Note && h.Name == KillNote:
				kills = append(kills, h)
			case h.Kind == Timer:
				timers = append(timers, h)
			default:
				ops = append(ops, h)
			}
		}
		if script != nil {
			g.Release(script, nil)
			continue
		}
		if idle != nil && len(ops) == 0 {
			g.Release(idle, nil)
			continue
		}
		if sc.Audit != nil {
			if err := sc.Audit(); err != nil {
				g.Open()
				return s, fmt.Errorf("audit at step %d: %w", step, err)
			}
		}
		if len(ops) == 0 {
			select {
			case err := <-done:
				s.Failed = err
				if len(sched) > 0 {
					return s, fmt.Errorf("the run ended at step %d, before the choice %v", step, sched[0])
				}
				return s, nil
			default:
			}
			if len(timers)+len(kills) == 0 {
				if !sure {
					verify = true
					continue
				}
				g.Open()
				return s, fmt.Errorf("stuck at step %d: the script waits and nothing is held", step)
			}
		}
		byArrival := func(a, b *Held) int {
			if d := arrived[a] - arrived[b]; d != 0 {
				return d
			}
			return strings.Compare(a.Label, b.Label)
		}
		slices.SortStableFunc(ops, byArrival)
		slices.SortStableFunc(timers, func(a, b *Held) int {
			if d := deadline[a] - deadline[b]; d != 0 {
				return int(min(max(d, -1), 1))
			}
			return byArrival(a, b)
		})
		slices.SortStableFunc(kills, byArrival)
		order := slices.Concat(ops, timers, kills)
		labels := make([]string, len(order))
		for i, h := range order {
			labels[i] = h.Label
		}
		s.Steps = append(s.Steps, labels)
		var c *Choice
		if len(sched) > 0 && sched[0].Step == step {
			c = &sched[0]
			sched = sched[1:]
		} else if choose != nil {
			c = choose(step, order)
		}
		pick, err := order[0], error(nil)
		if c != nil {
			i := slices.Index(labels, c.Op)
			if i < 0 {
				g.Open()
				return s, fmt.Errorf("diverged at step %d: %q is not held, %q are", step, c.Op, labels)
			}
			s.Choices = append(s.Choices, *c)
			if pick = order[i]; c.Fail {
				err = ErrFault
			}
		}
		if pick.Kind == Timer {
			now = max(now, deadline[pick])
		}
		if c != nil && c.Late {
			pick.src.store.ReleaseLate(g, pick)
		} else {
			g.Release(pick, err)
		}
		step++
	}
}

// Row names one run: the script, the seed it drew from and the choices
// it took. A failing run prints its row, which a regression table keeps
// as printed (ParseRow).
type Row struct {
	Name    string
	Seed    int64
	Choices []Choice
}

func (r Row) String() string {
	q := make([]string, len(r.Choices))
	for i, c := range r.Choices {
		q[i] = strconv.Quote(c.String())
	}
	return fmt.Sprintf("{%q, %d, []string{%s}}", r.Name, r.Seed, strings.Join(q, ", "))
}

var (
	rowRe  = regexp.MustCompile(`^\{\s*("(?:[^"\\]|\\.)*")\s*,\s*(-?\d+)\s*,\s*\[\]string\{(.*)\}\s*\},?$`)
	quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// ParseRow reads a row that Row.String printed.
func ParseRow(s string) (Row, error) {
	m := rowRe.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return Row{}, fmt.Errorf("testrec: %q is not a {name, seed, choices} row", s)
	}
	var r Row
	var err error
	if r.Name, err = strconv.Unquote(m[1]); err != nil {
		return r, err
	}
	if r.Seed, err = strconv.ParseInt(m[2], 10, 64); err != nil {
		return r, err
	}
	var choices []string
	for _, q := range quoted.FindAllString(m[3], -1) {
		c, err := strconv.Unquote(q)
		if err != nil {
			return r, err
		}
		choices = append(choices, c)
	}
	r.Choices, err = parseChoices(choices)
	return r, err
}

// replayEnv holds a row to run alone, in the test it names.
const replayEnv = "LSVD_REPLAY"

// Replay returns the row LSVD_REPLAY holds if it names t, and false if
// it is unset; a row of another test skips t.
func Replay(t testing.TB) (Row, bool) {
	env := os.Getenv(replayEnv)
	if env == "" {
		return Row{}, false
	}
	r, err := ParseRow(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != t.Name() {
		t.Skipf("%s replays %s", replayEnv, r.Name)
	}
	return r, true
}

// Lines returns the run's log, one Label per entry.
func (s *Schedule) Lines() []string {
	log := s.clock.upTo(^uint64(0))
	lines := make([]string, len(log))
	for i, op := range log {
		lines[i] = Label(op)
	}
	return lines
}

// Report fails t if the run failed, with err, its script's error or its
// Violations: it prints row with up to five of them and the newest 64
// lines of the log, and the command that replays row.
func (s *Schedule) Report(t testing.TB, row Row, err error) {
	t.Helper()
	var vs []string
	if err != nil {
		vs = append(vs, err.Error())
	}
	if s.Failed != nil {
		vs = append(vs, "script: "+s.Failed.Error())
	}
	if vs = append(vs, s.Violations...); len(vs) == 0 {
		return
	}
	lines := s.Lines()
	t.Errorf("%s\n\t%s\nthe newest log entries:\n\t%s", row, strings.Join(vs[:min(5, len(vs))], "\n\t"),
		strings.Join(lines[max(0, len(lines)-64):], "\n\t"))
	env := ""
	if rate := os.Getenv("LSVD_FAULT_RATE"); rate != "" {
		env = "LSVD_FAULT_RATE=" + rate + " "
	}
	t.Logf("replay: %s%s='%s' go test -run '^%s$' %s", env, replayEnv, row, row.Name, pkgDir())
}

// pkgDir returns the running test's package directory, as go test
// takes it from the module's root.
func pkgDir() string {
	wd, _ := os.Getwd()
	if i := strings.LastIndex(wd, "/internal/"); i >= 0 {
		return "." + wd[i:]
	}
	return "."
}

// Branch returns the choices Explore tries at a step besides the
// default: labels are what is held there in default order, sched the
// choices the schedule took before it.
type Branch func(sched []Choice, step int, labels []string) []Choice

// Explore runs row's schedule and, depth first, every schedule that
// takes its choices and then others that branch offers, after the
// last, up to bound choices in all; row's own count toward the bound, so
// a regression row runs alone. run plays one schedule and checks it
// (Schedule.Violations). Explore reports the first three failing
// schedules, each by its row; a run's own error ends it. It returns how
// many schedules ran and how many failed.
func Explore(t testing.TB, row Row, bound int, branch Branch, run func(sched []Choice) (*Schedule, error)) (schedules, failed int) {
	t.Helper()
	stack := [][]Choice{row.Choices}
	for len(stack) > 0 {
		sched := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s, err := run(sched)
		schedules++
		if bad := err != nil || s.Failed != nil || len(s.Violations) > 0; bad {
			if failed++; failed <= 3 || err != nil {
				s.Report(t, Row{row.Name, row.Seed, sched}, err)
			}
			if err != nil {
				t.FailNow()
			}
		}
		if len(sched) >= bound {
			continue
		}
		from := 0
		if n := len(sched); n > 0 {
			from = sched[n-1].Step + 1
		}
		for k := from; k < len(s.Steps); k++ {
			for _, c := range branch(sched, k, s.Steps[k]) {
				stack = append(stack, append(slices.Clip(sched), c))
			}
		}
	}
	return schedules, failed
}

// Sample plays the walk seed draws; Run with the choices it took
// replays it. The walk is PCT's (Burckhardt, Kothari, Musuvathi and
// Nagarakatte, ASPLOS 2010). Each thread (thread) draws a random priority
// the first time one of its operations is held, and each step releases
// the oldest held operation of the thread with the highest. At
// walkDepth−1 change points, steps drawn from the first walkHorizon, the
// thread about to go drops below every other, each to its own priority.
// So a bug of depth d ≤ walkDepth (one that needs d ordering constraints)
// among n threads that shows within walkHorizon steps, one walk finds
// with probability at least 1/(n·walkHorizon^(d−1)). A timer due at once is
// a thread like any; one due later goes as Run's default has it, once
// the program waits on time. The kill (Kill) goes at its step.
func (s *Script) Sample(seed int64, play func() error) (*Schedule, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x77616c6b))
	drop := map[int]float64{} // a change point's step → the priority it gives
	for len(drop) < walkDepth-1 {
		if k := rng.Intn(walkHorizon); drop[k] == 0 {
			drop[k] = float64(len(drop) + 1)
		}
	}
	prio := map[string]float64{}
	return s.Run(play, nil, func(step int, held []*Held) *Choice {
		if h := held[len(held)-1]; h.Kind == Note && h.Name == KillNote && step >= s.killAt {
			return &Choice{Step: step, Op: h.Label}
		}
		pick := func() *Held {
			var best *Held
			for _, h := range held {
				if h.Kind == Note && h.Name == KillNote || h.Kind == Timer && h.Off > 0 {
					continue
				}
				th := thread(h.Label)
				if _, ok := prio[th]; !ok {
					prio[th] = walkDepth + rng.Float64()
				}
				if best == nil || prio[th] > prio[thread(best.Label)] {
					best = h
				}
			}
			return best
		}
		h := pick()
		if p, ok := drop[step]; ok && h != nil {
			prio[thread(h.Label)] = p
			h = pick()
		}
		if h == nil || h == held[0] {
			return nil
		}
		return &Choice{Step: step, Op: h.Label}
	})
}

// Threads counts the threads (thread) whose operations the run held: a
// walk's n.
func (s *Schedule) Threads() int {
	seen := map[string]bool{}
	for _, step := range s.Steps {
		for _, l := range step {
			seen[thread(l)] = true
		}
	}
	return len(seen)
}

// thread names the thread of a held operation's label for a walk: the
// label without a note's value or an operation's offset, so a writer's
// holds are one thread, as are the PUTs of one object and the writes of
// the cache log.
func thread(label string) string {
	if name, _, ok := strings.Cut(label, "@"); ok {
		return name
	}
	if name, v, ok := strings.Cut(label, " "); ok {
		if _, err := strconv.ParseInt(v, 10, 64); err == nil {
			return name
		}
	}
	return label
}

// A walk changes priorities at walkDepth−1 steps among its first
// walkHorizon.
const (
	walkDepth   = 3
	walkHorizon = 512
)

// Cut is a crash point: the state the log's operations left from stamp
// From, that of the one that made it, to To, the stamp before the next,
// with, on a device, the unflushed pages Lost.
type Cut struct {
	From, To uint64
	Lost     []int64
}

// Cuts returns the crash points of c's log in order: one before the
// first operation that Lands, and one after each. Each state of dev's
// has its unflushed pages kept, all lost, and each lost alone.
func (c *Clock) Cuts(dev *Device) []Cut {
	log := c.upTo(^uint64(0))
	var cuts []Cut
	var from uint64
	add := func(to uint64) {
		cuts = append(cuts, Cut{From: from, To: to})
		if dev == nil {
			return
		}
		if dirty := dev.Unflushed(from); len(dirty) > 0 {
			cuts = append(cuts, Cut{From: from, To: to, Lost: dirty})
			for _, pg := range dirty {
				cuts = append(cuts, Cut{From: from, To: to, Lost: []int64{pg}})
			}
		}
	}
	for _, op := range log {
		if Lands(op) {
			add(op.Stamp - 1)
			from = op.Stamp
		}
	}
	add(uint64(len(log)))
	return cuts
}

// Lands reports whether op changes what a crash leaves: a completed PUT
// (a torn one's prefix too), DELETE, device write or device flush.
func Lands(op Op) bool {
	return op.Done && (op.Err == nil || op.Data != nil) &&
		(op.Kind == Put || op.Kind == Delete || op.Kind == Write || op.Kind == Flush)
}
