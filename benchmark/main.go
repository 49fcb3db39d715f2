// Command benchmark is this repository's one benchmark: four
// closed-loop workloads against the whole datapath, end-to-end
// metrics from an untraced run, per-layer metrics and spans from a
// traced one. See README.md in this directory.
//
//	go run . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	go run . -compare a.json b.json
//	go run . -selfcheck
//
// With -workload, the last line of standard output is the one JSON
// object BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envInfo is the header of every result: what ran, and how far this
// machine's timers can be trusted.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Sleep2ms   float64 `json:"sleep_2ms_overshoot"`   // (measured − asked) ÷ asked
	Sleep100us float64 `json:"sleep_100us_overshoot"` // likewise
}

func sleepOvershoot(d time.Duration) float64 {
	const n = 20
	t := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(d)
	}
	return float64(time.Since(t))/float64(n*d) - 1
}

func environment() envInfo {
	e := envInfo{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Sleep2ms: sleepOvershoot(2 * time.Millisecond), Sleep100us: sleepOvershoot(100 * time.Microsecond)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		e.Commit += dirty
	}
	return e
}

func (e envInfo) print() {
	fmt.Printf("# commit %s  %s  GOMAXPROCS %d  nproc %d\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU)
	fmt.Printf("# time.Sleep overshoot: 2ms %+.1f%%, 100us %+.1f%%\n", e.Sleep2ms*100, e.Sleep100us*100)
	if e.Sleep2ms > 0.25 {
		fmt.Printf("# WARNING: a 2 ms sleep overshoots by more than 25 %%; every simulated backend latency rests on it\n")
	}
}

// workloadResult is one workload's run.
type workloadResult struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Attempted uint64               `json:"attempted_ops"`
	Failed    uint64               `json:"failed_ops"`
	Errors    []string             `json:"errors,omitempty"`
	Phases    []string             `json:"phases"`
	Metrics   metricList           `json:"metrics"`
	Layers    map[string]layerTime `json:"layers,omitempty"`
}

type resultFile struct {
	Env     envInfo          `json:"env"`
	Results []workloadResult `json:"results"`
}

// run measures one workload and turns it into a result. A traced run
// reports the per-layer metrics, an untraced one the end-to-end ones.
func run(ctx context.Context, w *spec, seed int64, seconds float64, traced bool, outDir string, sc scale) (workloadResult, error) {
	res := workloadResult{Workload: w.name, Traced: traced, Seed: seed, Seconds: seconds}
	m, err := runWorkload(ctx, w, seed, seconds, traced, sc)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Phases = m.attempted, m.failed, m.phases
	for _, e := range m.errs {
		res.Errors = append(res.Errors, e.Error())
	}
	if !traced {
		res.Metrics = m.endToEnd()
		return res, nil
	}
	if res.Metrics, err = m.layers.metrics(ctx, m, sc.ladderOps); err != nil {
		return res, err
	}
	res.Layers = m.traced.selfTimes()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	return res, m.traced.write(filepath.Join(outDir, "trace-"+w.name+".json"), res.Layers)
}

func (r workloadResult) print() {
	kind := "end-to-end, untraced"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("\n== %s  (%s; seed %d, %.0f s measured)  attempted_ops %d  failed_ops %d\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed)
	fmt.Printf("   phases: %s\n", strings.Join(r.Phases, ", "))
	for _, e := range r.Errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
	for _, m := range r.Metrics {
		switch {
		case m.Refused:
			fmt.Printf("%-36s refused: too few samples (n=%d)\n", m.Name, m.N)
		case m.Q1 != m.Q3:
			fmt.Printf("%-36s %14.4f %-6s [q1 %.4f, q3 %.4f]  n=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		default:
			fmt.Printf("%-36s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, layer := range []string{"nbd", "core", "simdev", "objstore"} {
		if t, ok := r.Layers[layer]; ok {
			fmt.Printf("self time %-10s %10.2f ms of %10.2f ms in %d sampled spans\n", layer, t.SelfMS, t.TotalMS, t.Spans)
		}
	}
}

// contractLine is the last line of output in -workload mode.
func (r workloadResult) contractLine() string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]val)}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

// suite runs the named workload, or all of them; traced adds a traced
// run after each untraced one (or, for a single workload, replaces it).
// With runs > 1 each is repeated with seeds seed, seed+1, … and reported
// as the median run with the quartiles across runs, which is how the
// driver judges a metric's spread.
func suite(ctx context.Context, only string, seed int64, seconds float64, traced bool, runs int, outDir string) (resultFile, error) {
	file := resultFile{Env: environment()}
	file.Env.print()
	for _, w := range specs {
		if only != "" && w.name != only {
			continue
		}
		modes := []bool{false}
		if traced && only != "" {
			modes = []bool{true}
		} else if traced {
			modes = []bool{false, true}
		}
		for _, tr := range modes {
			var all []workloadResult
			for i := 0; i < runs; i++ {
				res, err := run(ctx, w, seed+int64(i), seconds, tr, outDir, fullScale)
				if err != nil {
					return file, err
				}
				res.print()
				all = append(all, res)
			}
			file.Results = append(file.Results, acrossRuns(all))
		}
	}
	return file, nil
}

// acrossRuns folds repeated runs of one workload into one result:
// each metric becomes its median over the runs, with the quartiles
// over the runs. A single run is kept as it is, window quartiles
// included.
func acrossRuns(all []workloadResult) workloadResult {
	out := all[len(all)-1]
	if len(all) == 1 {
		return out
	}
	out.Attempted, out.Failed, out.Errors = 0, 0, nil
	for _, r := range all {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Errors = append(out.Errors, r.Errors...)
	}
	out.Metrics = nil
	for i, m := range all[0].Metrics {
		var vals []float64
		for _, r := range all {
			if !r.Metrics[i].Refused {
				vals = append(vals, r.Metrics[i].Value)
			}
		}
		m.Q1, m.Value, m.Q3 = quartiles(vals)
		m.N, m.Refused = len(vals), len(vals) == 0
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

func (f resultFile) failed() (n uint64) {
	for _, r := range f.Results {
		n += r.Failed
	}
	return n
}

func (f resultFile) save(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	runs      int
	outDir    string
	manifest  string
	compare   bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the contract's JSON line (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated op streams and payload")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, spans, the ladder)")
	flag.IntVar(&o.runs, "runs", 1, "repeat each workload this many times, with consecutive seeds, and report medians and quartiles across runs")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory for result.json and trace-<workload>.json")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "metric declarations and bounds, for -compare and -selfcheck")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice (-runs each, at least 5) and compare the two")
	flag.Parse()
	if err := o.run(context.Background(), flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) suite(ctx context.Context, traced bool, runs int) (resultFile, error) {
	return suite(ctx, o.workload, o.seed, o.seconds, traced, runs, o.outDir)
}

func (o options) run(ctx context.Context, args []string) error {
	if o.workload != "" && specByName(o.workload) == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := loadResults(args[0])
		if err != nil {
			return err
		}
		b, err := loadResults(args[1])
		if err != nil {
			return err
		}
		mf, err := loadManifest(o.manifest)
		if err != nil {
			return err
		}
		compareResults(os.Stdout, mf, a, b)
		return nil
	case o.selfcheck:
		mf, err := loadManifest(o.manifest)
		if err != nil {
			return err
		}
		a, err := o.suite(ctx, false, max(o.runs, 5))
		if err != nil {
			return err
		}
		b, err := o.suite(ctx, false, max(o.runs, 5))
		if err != nil {
			return err
		}
		if n := a.failed() + b.failed(); n > 0 {
			return fmt.Errorf("%d failed ops", n)
		}
		if moved := compareResults(os.Stdout, mf, a, b); moved > 0 {
			return fmt.Errorf("selfcheck: %d end-to-end rows differ between two runs of the same code", moved)
		}
		return nil
	}
	file, err := o.suite(ctx, o.trace != 0, max(o.runs, 1))
	if err != nil {
		return err
	}
	if err := file.save(filepath.Join(o.outDir, "result.json")); err != nil {
		return err
	}
	if o.workload != "" {
		fmt.Println(file.Results[0].contractLine())
	}
	if n := file.failed(); n > 0 {
		return fmt.Errorf("%d failed ops", n)
	}
	return nil
}
