package main

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a fraction
// of its size for one second, and holds the output against
// BENCHMARK.json: every declared workload runs, every declared metric
// comes out exactly once, finite and in its declared unit, nothing
// undeclared comes out, and no op fails.
func TestSmoke(t *testing.T) {
	mf, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(mf.Workloads), len(specs))
	}
	// 32 MiB volumes (64 MiB for readmix16k); the cache shrinks less,
	// since a write-log slot must stay above the write cache's 4 MiB
	// minimum.
	small := scale{volDiv: 8, cacheDiv: 2, ladderOps: 500}
	outDir := t.TempDir()

	var wg sync.WaitGroup
	for _, decl := range mf.Workloads {
		w := specByName(decl.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", decl.Name)
			continue
		}
		if decl.Why == "" {
			t.Errorf("workload %q has no why", decl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := mf.EndToEnd
			if traced {
				want = mf.PerLayer
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := run(context.Background(), w, 1, 1, traced, outDir, small)
				if err != nil {
					t.Errorf("%s traced=%v: %v", w.name, traced, err)
					return
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Errors)
				}
				seen := make(map[string]int)
				units := make(map[string]string)
				for _, m := range res.Metrics {
					seen[m.Name]++
					units[m.Name] = m.Unit
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s is %v", w.name, m.Name, m.Value)
					}
				}
				for _, d := range want {
					if seen[d.Name] != 1 {
						t.Errorf("%s traced=%v: %s emitted %d times, want once", w.name, traced, d.Name, seen[d.Name])
					}
					if units[d.Name] != d.Unit && seen[d.Name] == 1 {
						t.Errorf("%s: %s is in %q, BENCHMARK.json says %q", w.name, d.Name, units[d.Name], d.Unit)
					}
					delete(seen, d.Name)
				}
				for name := range seen {
					t.Errorf("%s traced=%v: %s is emitted but not declared in BENCHMARK.json", w.name, traced, name)
				}
			}()
		}
	}
	wg.Wait()
}

// TestPrefixCheck feeds the post-crash checker images it must accept
// and images it must refuse.
func TestPrefixCheck(t *testing.T) {
	v := newVolState(8 * blockBytes)
	v.nextWrite(0, 4) // v1
	v.nextWrite(2, 4) // v2
	v.committed = 2
	v.nextWrite(0, 1) // v3, not flushed
	for _, c := range []struct {
		name  string
		found []uint32
		ok    bool
	}{
		{"everything survived", []uint32{3, 1, 2, 2, 2, 2, 0, 0}, true},
		{"unflushed tail lost", []uint32{1, 1, 2, 2, 2, 2, 0, 0}, true},
		{"committed write lost", []uint32{1, 1, 1, 1, 0, 0, 0, 0}, false},
		{"later write survived an earlier one's loss", []uint32{3, 1, 1, 1, 0, 0, 0, 0}, false},
		{"version from the future", []uint32{4, 1, 2, 2, 2, 2, 0, 0}, false},
	} {
		if err := v.checkPrefix(c.found); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := declared{Name: "x", Better: "lower", Bound: 0.10}
	m := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{m(100, 99, 101), m(104, 103, 105), "unchanged"},
		{m(100, 99, 101), m(120, 119, 121), "worse"},
		{m(100, 99, 101), m(80, 79, 81), "better"},
		{m(100, 90, 110), m(120, 119, 121), "unresolved"},
	} {
		if got := verdict(c.a, c.b, d); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}
