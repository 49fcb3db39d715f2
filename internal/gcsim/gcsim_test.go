package gcsim

import (
	"context"
	"testing"

	"lsvd/internal/workload"
)

var ctx = context.Background()

func spec(id string) workload.TraceSpec {
	for _, s := range workload.PaperTraces {
		if s.ID == id {
			return s
		}
	}
	panic("unknown trace " + id)
}

func TestSimulateBasics(t *testing.T) {
	cfg := Defaults(512)
	res, err := Simulate(ctx, spec("w66"), Merge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// WAF can dip below 1 when intra-batch coalescing eliminates
	// client bytes, but it must stay in a sane band.
	if res.WriteGB <= 0 || res.Extents <= 0 || res.WAF <= 0.02 || res.WAF > 3.0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.MergeRat < 0 || res.MergeRat > 1 {
		t.Fatalf("merge ratio %.2f out of range", res.MergeRat)
	}
}

// TestHotTraceCoalesces: w66-style traces (tiny hot set) must show a
// large merge ratio and a merge-mode WAF clearly below no-merge, as in
// Table 5 (1.97 -> 1.35).
func TestHotTraceCoalesces(t *testing.T) {
	cfg := Defaults(1024)
	nm, err := Simulate(ctx, spec("w66"), NoMerge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(ctx, spec("w66"), Merge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.MergeRat < 0.25 {
		t.Fatalf("hot trace merge ratio %.2f, want substantial", m.MergeRat)
	}
	if m.WAF >= nm.WAF {
		t.Fatalf("merge did not reduce WAF: %.2f vs %.2f", m.WAF, nm.WAF)
	}
}

// TestColdSequentialTraceLowWAF: w31-style traces (sequential, low
// overwrite churn relative to volume) have WAF near 1.
func TestColdSequentialTraceLowWAF(t *testing.T) {
	cfg := Defaults(2048)
	m, err := Simulate(ctx, spec("w31"), Merge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.WAF > 1.4 {
		t.Fatalf("sequential trace WAF %.2f, want near 1", m.WAF)
	}
}

// TestDefragShrinksFragmentedMap: w01-style traces (random small
// writes over a large footprint) fragment the map; defrag mode must
// shrink it meaningfully (paper: >2x for w01) at little WAF cost.
func TestDefragShrinksFragmentedMap(t *testing.T) {
	cfg := Defaults(512)
	m, err := Simulate(ctx, spec("w01"), Merge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Simulate(ctx, spec("w01"), Defrag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Extents >= m.Extents {
		t.Fatalf("defrag did not shrink map: %d vs %d", d.Extents, m.Extents)
	}
	if d.WAF > m.WAF*1.35 {
		t.Fatalf("defrag WAF cost too high: %.2f vs %.2f", d.WAF, m.WAF)
	}
}

func TestGCTriggersOnChurn(t *testing.T) {
	cfg := Defaults(1024)
	m, err := Simulate(ctx, spec("w41"), Merge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.GCRuns == 0 {
		t.Fatal("churn trace never triggered GC")
	}
}

// TestSimulateIsRepeatable: Simulate owns the GC trigger (Seal, then
// RunGC below the low-water mark, at every batch boundary), so a churny
// trace yields the same Result on every run even though the store
// underneath uploads, commits and checkpoints on background goroutines.
func TestSimulateIsRepeatable(t *testing.T) {
	cfg := Defaults(1024)
	for _, mode := range []Mode{Merge, Defrag} {
		first, err := Simulate(ctx, spec("w41"), mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.GCRuns == 0 {
			t.Fatalf("%v: churn trace never triggered GC", mode)
		}
		again, err := Simulate(ctx, spec("w41"), mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("%v: two runs differ:\n%+v\n%+v", mode, first, again)
		}
	}
}
