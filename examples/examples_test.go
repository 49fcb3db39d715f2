// Package examples_test runs each example program to exit: every one
// checks its own guarantees and exits nonzero when one does not hold.
package examples_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestExamplesRunToExit(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"quickstart", "replication", "multihost"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command("go", "build", "-o", bin, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("building %s: %v\n%s", name, err, out)
			}
			if out, err := exec.Command(bin).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
		})
	}
}
