//go:build linux

package objstore

import (
	"bytes"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestDirPutVWritesThePiecesInPlace: an object handed over as pieces
// lands as the same file Put leaves for the joined bytes, readable whole
// and by range, and nothing but the objects is left in the directory.
func TestDirPutVWritesThePiecesInPlace(t *testing.T) {
	root := t.TempDir()
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	bufs := [][]byte{make([]byte, 512), nil, make([]byte, 128<<10), make([]byte, 1), {}, make([]byte, 4096)}
	for _, b := range bufs {
		rng.Read(b)
	}
	if err := s.PutV(ctx, "vol/obj.vec", bufs); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "vol/obj.flat", VecJoin(bufs)); err != nil {
		t.Fatal(err)
	}
	vec, err := os.ReadFile(filepath.Join(root, "vol", "obj.vec"))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := os.ReadFile(filepath.Join(root, "vol", "obj.flat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vec, flat) || int64(len(vec)) != VecLen(bufs) {
		t.Fatalf("PutV left %d bytes, Put %d of %d: files differ", len(vec), len(flat), VecLen(bufs))
	}
	if got, err := s.GetRange(ctx, "vol/obj.vec", 512, 128<<10); err != nil || !bytes.Equal(got, bufs[2]) {
		t.Fatalf("range over the second piece: %v", err)
	}
	if err := PutVec(ctx, s, "vol/obj.vec", [][]byte{[]byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(ctx, "vol/obj.vec"); string(got) != "v2" {
		t.Fatalf("overwrite through PutVec read back %q", got)
	}
	ents, err := os.ReadDir(filepath.Join(root, "vol"))
	if err != nil || len(ents) != 2 {
		t.Fatalf("directory holds %d entries (%v), want the two objects", len(ents), err)
	}
}

// TestDirPutVFailedPieceLeavesNoTemp: when a piece cannot be written —
// here the process's file-size limit cuts the second one short — PutV
// fails, the object it would have replaced is untouched, and the staging
// file is gone.
func TestDirPutVFailedPieceLeavesNoTemp(t *testing.T) {
	root := t.TempDir()
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip("no file-size limit to set:", err)
	}
	signal.Ignore(syscall.SIGXFSZ) // the kernel signals the overrun as well as failing the write
	defer signal.Reset(syscall.SIGXFSZ)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 8192, Max: old.Max}); err != nil {
		t.Skip("cannot lower the file-size limit:", err)
	}
	err = s.PutV(ctx, "obj", [][]byte{make([]byte, 4096), make([]byte, 64<<10), []byte("tail")})
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("PutV past the file-size limit succeeded")
	}

	if got, err := s.Get(ctx, "obj"); err != nil || string(got) != "v1" {
		t.Fatalf("the object read back %q, %v after a failed replacement", got, err)
	}
	ents, err := os.ReadDir(root)
	if err != nil || len(ents) != 1 || ents[0].Name() != "obj" {
		t.Fatalf("directory after the failed PutV: %v, %v; want only the object", ents, err)
	}
}
