package experiments

import (
	"context"
	"strconv"
	"testing"
)

var ctx = context.Background()

func testEnv() Env { return Env{Scale: 128, Seed: 42} }

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Header)
	return ""
}

func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %d/%s = %q: %v", row, col, cell(t, tab, row, col), err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, match func(row []string) bool) int {
	t.Helper()
	for i, r := range tab.Rows {
		if match(r) {
			return i
		}
	}
	t.Fatalf("no matching row in %q", tab.Title)
	return -1
}

// TestFig6Shape: LSVD wins small random writes (paper: 20-30% faster
// for 4/16 KiB) and falls behind only for 64 KiB at QD 32.
func TestFig6Shape(t *testing.T) {
	tab, err := Fig6(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	small := findRow(t, tab, func(r []string) bool { return r[0] == "4K" && r[1] == "32" })
	if ratio := cellF(t, tab, small, "ratio"); ratio < 1.05 {
		t.Errorf("4K QD32: LSVD/bcache ratio %.2f, want > 1.05", ratio)
	}
	big := findRow(t, tab, func(r []string) bool { return r[0] == "64K" && r[1] == "32" })
	if ratio := cellF(t, tab, big, "ratio"); ratio > 1.15 {
		t.Errorf("64K QD32: ratio %.2f, paper has LSVD falling behind", ratio)
	}
	// Sanity: 4K QD32 LSVD throughput in the paper's ballpark
	// (~245 MB/s => 60K IOPS).
	if mbs := cellF(t, tab, small, "LSVD"); mbs < 120 || mbs > 500 {
		t.Errorf("4K QD32 LSVD %.0f MB/s, expected paper-ballpark ~245", mbs)
	}
}

// TestFig7Shape: reads are equivalent at low QD; bcache up to ~30%
// ahead at high QD (unoptimized LSVD read path).
func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	hi := findRow(t, tab, func(r []string) bool { return r[0] == "4K" && r[1] == "32" })
	ratio := cellF(t, tab, hi, "ratio")
	if ratio > 1.02 || ratio < 0.6 {
		t.Errorf("4K QD32 read ratio %.2f, want bcache ahead (0.6-1.0)", ratio)
	}
}

// TestFig8Shape: varmail 4x, oltp ~1.25x, fileserver ~0.8-1x.
func TestFig8Shape(t *testing.T) {
	tab, err := Fig8(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	vm := findRow(t, tab, func(r []string) bool { return r[0] == "varmail" })
	if norm := cellF(t, tab, vm, "normalized"); norm < 1.5 {
		t.Errorf("varmail normalized %.2f, paper has 4x", norm)
	}
	ol := findRow(t, tab, func(r []string) bool { return r[0] == "oltp" })
	if norm := cellF(t, tab, ol, "normalized"); norm < 1.0 {
		t.Errorf("oltp normalized %.2f, paper has 1.25x", norm)
	}
}

// TestTable4Shape: LSVD mounts in all trials; bcache fails at least
// one (paper: trial 2 unmountable).
func TestTable4Shape(t *testing.T) {
	tab, err := Table4(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	var lsvdOK, bcacheFail int
	for _, r := range tab.Rows {
		switch r[0] {
		case "LSVD":
			if r[2] == "yes" {
				lsvdOK++
			}
		case "bcache+RBD":
			if r[2] == "no" {
				bcacheFail++
			}
		}
	}
	if lsvdOK != 3 {
		t.Errorf("LSVD mounted %d/3 trials", lsvdOK)
	}
	if bcacheFail == 0 {
		t.Error("bcache never failed a crash trial; paper has 1/3 unmountable")
	}
}

// TestFig13Shape: RBD op amplification ~6x; LSVD well under 1 backend
// op per client write (paper: 0.25).
func TestFig13Shape(t *testing.T) {
	tab, err := Fig13(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	rbdRow := findRow(t, tab, func(r []string) bool { return r[0] == "RBD" })
	if ampl := cellF(t, tab, rbdRow, "op ampl"); ampl < 5.5 || ampl > 6.5 {
		t.Errorf("RBD op amplification %.2f, want ~6", ampl)
	}
	if ampl := cellF(t, tab, rbdRow, "byte ampl"); ampl < 5.5 {
		t.Errorf("RBD byte amplification %.2f, want ~6+", ampl)
	}
	lsvdRow := findRow(t, tab, func(r []string) bool { return r[0] == "LSVD" })
	if ampl := cellF(t, tab, lsvdRow, "op ampl"); ampl > 0.8 {
		t.Errorf("LSVD op amplification %.2f, want << 1 (paper 0.25)", ampl)
	}
	if ampl := cellF(t, tab, lsvdRow, "byte ampl"); ampl < 1.2 || ampl > 2.2 {
		t.Errorf("LSVD byte amplification %.2f, want ~1.5-1.7 (EC + meta)", ampl)
	}
}

// TestFig12Shape: LSVD reaches much higher IOPS while leaving the
// backend mostly idle; RBD saturates the pool at far lower IOPS.
func TestFig12Shape(t *testing.T) {
	tab, err := Fig12(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	l32 := findRow(t, tab, func(r []string) bool { return r[0] == "LSVD" && r[1] == "32" })
	r32 := findRow(t, tab, func(r []string) bool { return r[0] == "RBD" && r[1] == "32" })
	lIOPS, lUtil := cellF(t, tab, l32, "kIOPS"), cellF(t, tab, l32, "backend util %")
	rIOPS, rUtil := cellF(t, tab, r32, "kIOPS"), cellF(t, tab, r32, "backend util %")
	if lIOPS < 2*rIOPS {
		t.Errorf("LSVD %.0f kIOPS vs RBD %.0f: want large advantage (paper ~4x)", lIOPS, rIOPS)
	}
	if lUtil >= rUtil/2 {
		t.Errorf("LSVD util %.0f%% vs RBD %.0f%%: want LSVD mostly idle", lUtil, rUtil)
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	l := findRow(t, tab, func(r []string) bool { return r[0] == "LSVD" })
	b := findRow(t, tab, func(r []string) bool { return r[0] == "bcache+RBD" })
	lSync := cellF(t, tab, l, "synced (s)")
	bSync := cellF(t, tab, b, "synced (s)")
	if bSync < 3*lSync {
		t.Errorf("bcache synced in %.0fs vs LSVD %.0fs: paper has ~11.5x gap", bSync, lSync)
	}
	lwb := cellF(t, tab, l, "avg writeback MB/s")
	bwb := cellF(t, tab, b, "avg writeback MB/s")
	if lwb < 3*bwb {
		t.Errorf("writeback speeds %.0f vs %.0f MB/s: paper has 173 vs 15", lwb, bwb)
	}
}

func TestFig15Shape(t *testing.T) {
	tab, err := Fig15(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	// Last sample with GC on: utilization near/above the 70% target;
	// with GC off: utilization keeps degrading below it.
	var lastOff, lastOn float64
	for _, r := range tab.Rows {
		u, _ := strconv.ParseFloat(r[4], 64)
		if r[0] == "off" {
			lastOff = u
		} else {
			lastOn = u
		}
	}
	if lastOn < 0.60 {
		t.Errorf("GC on: final utilization %.2f, want >= ~0.65", lastOn)
	}
	if lastOff >= lastOn {
		t.Errorf("GC off utilization %.2f not worse than on %.2f", lastOff, lastOn)
	}
}

func TestTable3Runs(t *testing.T) {
	tab, err := Table3(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	if len(tab.Rows) != 3 {
		t.Fatal("want 3 workloads")
	}
}

func TestTable6Runs(t *testing.T) {
	tab, err := Table6(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	// The S3 request dominates the read-miss path (paper: 5.9 ms of a
	// ~6.2 ms total).
	var s3us, totalus float64
	for _, r := range tab.Rows {
		if r[0] == "read miss" && r[1] == "S3 range request" {
			s3us, _ = strconv.ParseFloat(r[2], 64)
		}
		if r[0] == "read miss" && r[1] == "TOTAL" {
			totalus, _ = strconv.ParseFloat(r[2], 64)
		}
	}
	if s3us < 0.8*totalus-300 || s3us == 0 {
		t.Errorf("S3 term %.0fµs of %.0fµs total; paper has it dominant", s3us, totalus)
	}
}

func TestFig16Runs(t *testing.T) {
	tab, err := Fig16(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	found := false
	for _, r := range tab.Rows {
		if r[0] == "replica mounts consistently" && r[1] == "yes" {
			found = true
		}
	}
	if !found {
		t.Fatal("replica consistency row missing")
	}
}

func TestSec49Runs(t *testing.T) {
	tab, err := Sec49(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table3", "table4", "table5", "table6", "sec49", "seqread", "gcslowdown", "ablations", "setup"}
	for _, n := range want {
		if _, ok := Registry[n]; !ok {
			t.Errorf("experiment %q missing from registry", n)
		}
	}
	if _, err := Run(ctx, testEnv(), "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if s := tab.String(); s == "" {
		t.Fatal("empty render")
	}
	if csv := tab.CSV(); csv != "a,b\n1,2\n" {
		t.Fatalf("csv %q", csv)
	}
}

// TestFig9Shape: with a small cache the run is write-back bound; LSVD
// keeps near-SSD speed while bcache+RBD degrades toward uncached RBD
// (paper §4.3: 2x-8x).
func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	small := findRow(t, tab, func(r []string) bool { return r[0] == "4K" && r[1] == "32" })
	if ratio := cellF(t, tab, small, "ratio"); ratio < 1.4 {
		t.Errorf("4K QD32 small-cache ratio %.2f, paper has 2-8x", ratio)
	}
	// Sustained throughput must be below the in-cache number for the
	// baseline (it is now backend-bound).
	if b := cellF(t, tab, small, "bcache+RBD"); b > 150 {
		t.Errorf("bcache sustained 4K %.0f MB/s, should be backend-bound", b)
	}
}

// TestAblations: each design-choice toggle must move its metric in the
// documented direction.
func TestAblations(t *testing.T) {
	tab, err := Ablations(ctx, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	get := func(name string) (off, on float64) {
		r := findRow(t, tab, func(r []string) bool { return r[0] == name })
		return cellF(t, tab, r, "off"), cellF(t, tab, r, "on")
	}
	if off, on := get("temporal prefetch"); on >= off {
		t.Errorf("prefetch did not reduce backend GETs: %v -> %v", off, on)
	}
	if off, on := get("GC reads from cache"); on >= off {
		t.Errorf("GC cache fetch did not reduce backend GETs: %v -> %v", off, on)
	}
	if off, on := get("intra-batch coalescing"); on >= off {
		t.Errorf("coalescing did not reduce backend bytes: %v -> %v", off, on)
	}
}
