package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var ctlBin string

// TestMain builds the command once; the tests drive the real binary.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lsvd-ctl-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctlBin = filepath.Join(dir, "lsvd-ctl")
	if out, err := exec.Command("go", "build", "-o", ctlBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building lsvd-ctl: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ctl runs one lsvd-ctl invocation against store and returns its
// combined output and exit code.
func ctl(t *testing.T, store string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(ctlBin, append([]string{"-store", store}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("lsvd-ctl %v: %v", args, err)
		}
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestSnapshotLifecycle walks the subcommands that are the block
// store's explicit-checkpoint callers — each a separate process, so
// each step also recovers what the one before it wrote.
func TestSnapshotLifecycle(t *testing.T) {
	store := t.TempDir()
	ok := func(args ...string) string {
		t.Helper()
		out, code := ctl(t, store, args...)
		if code != 0 {
			t.Fatalf("lsvd-ctl %v: exit %d\n%s", args, code, out)
		}
		return out
	}
	ok("create", "vol", "64M")
	if out, code := ctl(t, store, "create", "vol", "64M"); code == 0 {
		t.Fatalf("creating an existing volume succeeded:\n%s", out)
	}
	ok("snapshot", "vol", "golden")
	ok("checkpoint", "vol")
	if out := ok("info", "vol"); !strings.Contains(out, "snapshot:     golden") {
		t.Fatalf("info does not list the snapshot:\n%s", out)
	}
	ok("clone", "vol", "golden", "twin")
	if out := ok("info", "twin"); !strings.Contains(out, "clone of:     vol@") {
		t.Fatalf("info does not show the clone base:\n%s", out)
	}
	if out, code := ctl(t, store, "delete-snapshot", "vol", "nope"); code == 0 {
		t.Fatalf("deleting an unknown snapshot succeeded:\n%s", out)
	}
	ok("delete-snapshot", "vol", "golden")
	if out := ok("info", "vol"); strings.Contains(out, "snapshot:") {
		t.Fatalf("info still lists a snapshot after delete-snapshot:\n%s", out)
	}
	for _, vol := range []string{"vol", "twin"} {
		if out := ok("fsck", vol); !strings.HasPrefix(out, "ok:") {
			t.Fatalf("fsck %s:\n%s", vol, out)
		}
	}
	if _, code := ctl(t, store, "frobnicate"); code != 2 {
		t.Fatalf("unknown subcommand: exit %d, want 2 (usage)", code)
	}
}
