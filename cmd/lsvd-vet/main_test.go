package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"lsvd/internal/analysis"
)

var vetBin string

// TestMain builds the command once; the tests drive the real binary.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lsvd-vet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vetBin = filepath.Join(dir, "lsvd-vet")
	if out, err := exec.Command("go", "build", "-o", vetBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building lsvd-vet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// vet runs lsvd-vet in dir and returns its stdout and exit code.
func vet(t *testing.T, dir string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(vetBin, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("lsvd-vet %v: %v", args, err)
		}
	}
	return out, cmd.ProcessState.ExitCode()
}

// The lockorder golden package seeds cycles: the driver must fail on it
// and name them in its JSON document.
func TestReportsSeededLockCycle(t *testing.T) {
	out, code := vet(t, "../../internal/analysis/testdata/src/lockorder", "-json", ".")
	if code != 1 {
		t.Fatalf("exit %d on the seeded package, want 1\n%s", code, out)
	}
	var doc struct{ Findings []analysis.Finding }
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	for _, f := range doc.Findings {
		if f.Analyzer == "lockorder" {
			return
		}
	}
	t.Fatalf("no lockorder finding in %s", out)
}

// The module itself is clean against its committed baseline.
func TestModuleMatchesBaseline(t *testing.T) {
	if out, code := vet(t, "../..", "-baseline", "vet-baseline.json", "./..."); code != 0 {
		t.Fatalf("exit %d on the module, want 0\n%s", code, out)
	}
}
