package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// lapWriteLog overwrites a small set of 64 KiB blocks, flushing every
// few writes, until more than twice the write log has gone through it,
// and returns the newest version of every block.
func lapWriteLog(t *testing.T, d *Disk) map[int64]int64 {
	t.Helper()
	const blk = 64 * 1024
	latest := map[int64]int64{}
	target := 2*d.Stats().WriteCache.LogBytes + blk
	for v := int64(1); v*blk <= target; v++ {
		b := v % 48
		if err := d.WriteAt(payload(v, blk), b*blk); err != nil {
			t.Fatal(err)
		}
		latest[b] = v
		if v%8 == 0 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return latest
}

func checkVersions(t *testing.T, d *Disk, latest map[int64]int64) {
	t.Helper()
	const blk = 64 * 1024
	got := make([]byte, blk)
	for b, v := range latest {
		if err := d.ReadAt(got, b*blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(v, blk)) {
			t.Fatalf("block %d does not read its last flushed version (%d)", b, v)
		}
	}
}

// DESIGN.md §9.1 rule 1: the write log laps, destage catches up, a
// flushed tail smaller than a batch stays in the cache only — and a
// plain Kill and Open on the same device must give every flushed block
// back.
func TestKillAfterWriteLogLapsKeepsFlushedTail(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.Cache = simdev.NewMem(64 * block.MiB)
		o.BatchBytes = block.MiB
	})
	latest := lapWriteLog(t, h.disk)
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	// The tail: newer versions of a few blocks, flushed, never sealed.
	for b := int64(0); b < 6; b++ {
		v := 100000 + b
		if err := h.disk.WriteAt(payload(v, 64*1024), b*64*1024); err != nil {
			t.Fatal(err)
		}
		latest[b] = v
	}
	if err := h.disk.Flush(); err != nil {
		t.Fatal(err)
	}
	h.reopen(t)
	checkVersions(t, h.disk, latest)
	if got := h.disk.Stats().RecoveredReplayed; got != 6 {
		t.Fatalf("reopen re-destaged %d cache records, want the 6 of the flushed tail", got)
	}
}

// DESIGN.md §9.1 rule 4: destage works from memory, so the backend can
// hold a version the cache device never made durable. After a crash
// that loses every unflushed cache page the older cached version must
// not shadow the newer backend one.
func TestBackendAheadOfCrashedCacheIsNotShadowed(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.BatchBytes = 256 * 1024 })
	const blk = 64 * 1024
	if err := h.disk.WriteAt(payload(1, blk), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	// Version 2 and more than a batch behind it, none of it flushed.
	if err := h.disk.WriteAt(payload(2, blk), 0); err != nil {
		t.Fatal(err)
	}
	v2 := h.disk.Stats().WriteCache.MaxWriteSeq
	for i := int64(1); i <= 8; i++ {
		if err := h.disk.WriteAt(payload(10+i, blk), i*blk); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); h.disk.Backend().Stats().DurableWriteSeq < v2; {
		if time.Now().After(deadline) {
			t.Fatal("the backend never committed version 2")
		}
		time.Sleep(time.Millisecond)
	}
	h.disk.Kill()
	h.cache.Crash(1.0, rand.New(rand.NewSource(1)))
	h.reopen(t)
	if st := h.disk.Stats().WriteCache; st.RecoveredRecs == 0 {
		t.Fatal("bad test setup: the crashed cache recovered nothing, so there was no older version to shadow with")
	}
	got := make([]byte, blk)
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload(1, blk)) {
		t.Fatal("block 0 reads version 1 from the cache though the backend holds version 2")
	}
	if !bytes.Equal(got, payload(2, blk)) {
		t.Fatal("block 0 reads neither version")
	}
}

// The write log is its partition less the two superblocks, on every
// cache size: nothing else is stored there.
func TestWriteLogSpansItsPartition(t *testing.T) {
	for _, cacheMiB := range []int64{32, 128, 256} {
		h := newHarness(t, func(o *Options) {
			o.Cache = simdev.NewMem(cacheMiB * block.MiB)
			o.VolBytes = 16 * block.MiB
		})
		partition := int64(float64(cacheMiB*block.MiB)*0.2) &^ (block.BlockSize - 1)
		if got := h.disk.Stats().WriteCache.LogBytes; got != partition-2*block.BlockSize {
			t.Errorf("%d MiB cache: write log of %d bytes in a partition of %d, want all but 8 KiB", cacheMiB, got, partition)
		}
		h.disk.Kill()
	}
}

// A cache device laid out by the version before this one — its
// superblock names a chain start but not where the log begins — is
// refused by the write cache and recovered as cache loss (§3.4): the
// volume opens on the backend's prefix with an empty, re-formatted log,
// and the next crash recovers from the new layout.
func TestParentLayoutCacheIsCacheLoss(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.BatchBytes = 256 * 1024 })
	const blk = 64 * 1024
	for i := int64(0); i < 8; i++ {
		if err := h.disk.WriteAt(payload(i, blk), i*blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	h.disk.Kill()

	// Both slots as 6181c48 wrote them: gen, epoch, chain start, sequence.
	le := binary.LittleEndian
	old := make([]byte, 32)
	le.PutUint64(old, 1<<20)
	le.PutUint64(old[8:], 5)
	le.PutUint64(old[16:], uint64(2*block.BlockSize+16*block.MiB))
	le.PutUint64(old[24:], 5<<48|1)
	super, err := journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: 1 << 20, DataLen: 32}, old, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, block.BlockSize} {
		if err := h.cache.WriteAt(super, off); err != nil {
			t.Fatal(err)
		}
	}

	h.reopen(t)
	st := h.disk.Stats()
	if st.WriteCache.RecoveredRecs != 0 || st.RecoveredReplayed != 0 || st.WriteCache.Checkpoints == 0 {
		t.Fatalf("reopened with %d recovered records, %d replayed: want an empty, freshly formatted log", st.WriteCache.RecoveredRecs, st.RecoveredReplayed)
	}
	got := make([]byte, blk)
	for i := int64(0); i < 8; i++ {
		if err := h.disk.ReadAt(got, i*blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(i, blk)) {
			t.Fatalf("block %d lost with the cache though the backend held it", i)
		}
	}
	if err := h.disk.WriteAt(payload(100, blk), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Flush(); err != nil {
		t.Fatal(err)
	}
	h.reopen(t)
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(100, blk)) {
		t.Fatal("a write flushed to the re-formatted cache did not survive the next crash")
	}
}
