package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lsvd/internal/nbd"
)

var nbdBin string

// TestMain builds the command once; the test drives the real binary.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lsvd-nbd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nbdBin = filepath.Join(dir, "lsvd-nbd")
	if out, err := exec.Command("go", "build", "-o", nbdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building lsvd-nbd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running lsvd-nbd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs chan struct{} // closed once stderr reaches EOF
}

// serve starts lsvd-nbd on store and cache, listening on a free port,
// and returns once it logs the address it serves on.
func serve(t *testing.T, store, cache string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(nbdBin, append([]string{"-store", store, "-cache", cache,
		"-cache-size", "64M", "-volume", "vm1", "-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving volume"); ok {
				addr <- a[strings.LastIndex(a, " ")+1:]
			}
		}
	}()
	select {
	case d.addr = <-addr:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("lsvd-nbd never logged its address")
	}
	return d
}

// stop sends SIGTERM and returns the exit code.
func (d *daemon) stop(t *testing.T) int {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.logs:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("lsvd-nbd did not exit on SIGTERM")
	}
	d.cmd.Wait()
	return d.cmd.ProcessState.ExitCode()
}

// TestServeWriteFlushReadTerm serves a Dir-backed volume, writes,
// flushes and reads back one block over NBD, and stops the daemon with
// SIGTERM: it exits 0, and a restart without -create reads the block.
func TestServeWriteFlushReadTerm(t *testing.T) {
	dir := t.TempDir()
	store, cache := filepath.Join(dir, "store"), filepath.Join(dir, "cache.img")
	if err := os.Mkdir(store, 0o755); err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte("lsvd"), 1024)

	d := serve(t, store, cache, "-create", "-size", "64M")
	c, err := nbd.Dial(d.addr, "vm1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(block, 8192); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(block))
	if err := c.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("read back a different block")
	}
	c.Close()
	if code := d.stop(t); code != 0 {
		t.Fatalf("SIGTERM: exit %d, want 0", code)
	}

	d = serve(t, store, cache)
	c, err = nbd.Dial(d.addr, "vm1")
	if err != nil {
		t.Fatal(err)
	}
	clear(got)
	if err := c.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if code := d.stop(t); code != 0 {
		t.Fatalf("SIGTERM after reopen: exit %d, want 0", code)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("the block did not survive the restart")
	}
}
