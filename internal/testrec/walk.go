package testrec

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"lsvd/internal/invariant"
)

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

// ParseChoices reads choices printed by Choice.String.
func ParseChoices(row []string) ([]Choice, error) {
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

// Quote prints choices as a Go []string literal, the form a regression
// row keeps them in.
func Quote(sched []Choice) string {
	q := make([]string, len(sched))
	for i, c := range sched {
		q[i] = strconv.Quote(c.String())
	}
	return "[]string{" + strings.Join(q, ", ") + "}"
}

// quoted matches one Go string literal.
var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Unquote reads the strings of a Go []string literal that Quote printed.
func Unquote(lit string) ([]string, error) {
	body, ok := strings.CutPrefix(strings.TrimSpace(lit), "[]string{")
	if body, ok = strings.CutSuffix(body, "}"); !ok {
		return nil, fmt.Errorf("testrec: %q is not a []string literal", lit)
	}
	var out []string
	for _, q := range quoted.FindAllString(body, -1) {
		s, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
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
}

// Run runs script on a goroutine of its own and, each time every
// goroutine has settled, releases one operation held at g, so that the
// order of releases is the order the operations complete in: a
// schedule, which these rules and the choices fix. On one P a step
// settles by yielding (quiet); otherwise, and before Run calls a run
// stuck, by Settle's dump, waiting up to settle.
//
// By default a step releases the oldest held operation, those that
// arrived at one step in label order. A timer (Gate.Timers) is the
// default only once nothing else but kill notes is held: the earliest
// deadline first, each deadline its duration past that of the timer
// fired last, so time moves only while the program waits on it. A kill
// note is the default only once nothing else is held. sched's choices
// take the default's place at their steps; at any other step choose,
// when not nil, may return a choice (nil keeps the default). Run's error
// is its own: a settle that did not come, a script stuck with nothing
// held, or a choice whose operation is not held.
func Run(g *Gate, settle time.Duration, script func() error, sched []Choice, choose func(step int, labels []string) *Choice) (*Schedule, error) {
	s := &Schedule{}
	done := make(chan error, 1)
	invariant.Go("testrec-script", func() { done <- script() })
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
			if err := Settle(settle); err != nil {
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
			c = choose(step, labels)
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
