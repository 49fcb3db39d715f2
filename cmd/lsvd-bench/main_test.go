package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTable4Smoke builds the command and runs one small experiment at a
// coarse scale, with -csv: it exits 0 and prints and writes Table 4
// under its header.
func TestTable4Smoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "lsvd-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lsvd-bench: %v\n%s", err, out)
	}
	csv := filepath.Join(dir, "csv")
	out, err := exec.Command(bin, "-scale", "256", "-csv", csv, "table4").CombinedOutput()
	if err != nil {
		t.Fatalf("lsvd-bench table4: %v\n%s", err, out)
	}
	lines := strings.Split(string(out), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "== Table 4:") ||
		strings.Join(strings.Fields(lines[1]), " ") != "system trial mounted fsck needed" {
		t.Fatalf("unexpected table header:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(csv, "table4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "LSVD") {
		t.Fatalf("table4.csv holds no LSVD row:\n%s", raw)
	}
}
