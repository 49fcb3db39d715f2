package core

import (
	"bytes"
	"errors"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/simdev"
)

// TestSnapshotMountReadOnly: a snapshot mount sees the point-in-time
// image, rejects mutations, and survives concurrent divergence of the
// live volume.
func TestSnapshotMountReadOnly(t *testing.T) {
	h := newHarness(t, nil)
	orig := payload(1, 64*1024)
	if err := h.disk.WriteAt(orig, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.disk.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	// Diverge the live volume.
	newer := payload(2, 64*1024)
	if err := h.disk.WriteAt(newer, 0); err != nil {
		t.Fatal(err)
	}
	h.disk.Drain()

	snapOpts := h.opts
	snapOpts.Cache = simdev.NewMem(128 * block.MiB)
	snap, err := OpenSnapshot(ctx, snapOpts, "s1")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(orig))
	if err := snap.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("snapshot mount does not show point-in-time data")
	}
	// Second read comes from the read cache, still correct.
	if err := snap.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("cached snapshot read wrong")
	}
	if err := snap.WriteAt(orig, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot mount accepted a write: %v", err)
	}
	if err := snap.Trim(0, 4096); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot mount accepted a trim: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	// The live volume still reads its newest data.
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Fatal("live volume disturbed by snapshot mount")
	}
}

// TestSnapshotListSurvivesRecovery: snapshot metadata is durable in
// the superblock.
func TestSnapshotListSurvivesRecovery(t *testing.T) {
	h := newHarness(t, nil)
	_ = h.disk.WriteAt(payload(3, 8192), 0)
	if _, err := h.disk.Snapshot("keep-me"); err != nil {
		t.Fatal(err)
	}
	h.disk.Close()
	h.reopen(t)
	snaps := h.disk.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "keep-me" {
		t.Fatalf("snapshots after recovery: %+v", snaps)
	}
}
