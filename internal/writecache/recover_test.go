package writecache

import (
	"bytes"
	"strings"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// recovered returns the write sequences of the data and trim records in
// the cache's ring, oldest first.
func recovered(t *testing.T, c *Cache) []uint64 {
	t.Helper()
	var seqs []uint64
	err := c.Records(func(ws uint64, _ journal.Type, _ block.Extent, _ []byte) error {
		seqs = append(seqs, ws)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// A flushed tail survives any number of ring laps: the head cannot pass
// the start the durable superblock names without a newer superblock, so
// Open always finds a record of the live ring to begin at.
func TestRecoveryAfterRingLaps(t *testing.T) {
	dev := simdev.NewMem(8*block.MiB + superBytes)
	cfg := Config{CheckpointBytes: 2 * block.BlockSize}
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lag = 5 // the backend trails the log by this many writes
	ext := block.Extent{Sectors: 120}
	var ws uint64
	for written := int64(0); written < 3*c.Stats().LogBytes; written += ext.Bytes() {
		ws++
		ext.LBA = block.LBA(ws) * 128
		if err := c.Append(ws, ext, payload(int64(ws), int(ext.Bytes()))); err != nil {
			t.Fatalf("append %d: %v", ws, err)
		}
		if ws > lag {
			c.SetDestaged(ws - lag)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Reconcile(ws - lag); err != nil {
		t.Fatal(err)
	}
	got := recovered(t, c2)
	if len(got) != lag || got[0] != ws-lag+1 || got[lag-1] != ws {
		t.Fatalf("after three laps the cache holds writes %v, want %d..%d", got, ws-lag+1, ws)
	}
	for _, s := range got {
		ext.LBA = block.LBA(s) * 128
		if data, full := readBack(t, c2, ext); !full || !bytes.Equal(data, payload(int64(s), int(ext.Bytes()))) {
			t.Fatalf("write %d unreadable after recovery", s)
		}
	}
}

// A record that survived beyond a lost one belongs to an incarnation
// recovery discarded, and must never chain behind what is appended into
// the hole afterwards: every Open logs under a new epoch.
func TestStaleRecordBeyondHoleDoesNotChain(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := func(i int) block.Extent { return block.Extent{LBA: block.LBA(i) * 128, Sectors: 128} }
	appendRec := func(c *Cache, ws uint64, i int) {
		t.Helper()
		if err := c.Append(ws, ext(i), payload(int64(i), int(ext(i).Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(c, 1, 0) // A
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRec(c, 2, 1) // B
	appendRec(c, 3, 2) // C
	// One page of B never reached the media; C did.
	if err := dev.WriteAt(make([]byte, block.BlockSize), c.ring[1].off+2*block.BlockSize); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, c); len(got) != 1 || got[0] != 1 {
		t.Fatalf("recovered writes %v past the hole, want only 1", got)
	}
	// Opened twice without writing: epochs may skip.
	if c, err = Open(dev); err != nil {
		t.Fatal(err)
	}
	appendRec(c, 2, 3) // X, exactly over B
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, c); len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	if got, full := readBack(t, c, ext(3)); !full || !bytes.Equal(got, payload(3, int(ext(3).Bytes()))) {
		t.Fatal("the record appended into the hole was lost")
	}
	if runs := c.Lookup(ext(2)); runs[0].Present {
		t.Fatal("the discarded incarnation's record is mapped")
	}

	// An empty ring whose start is the tail: everything destaged, closed,
	// then the same again across two incarnations.
	c.SetDestaged(2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dev); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RecoveredRecs != 0 || st.UsedBytes != 0 {
		t.Fatalf("recovered %d records from a ring closed empty", st.RecoveredRecs)
	}
	appendRec(c, 3, 4)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dev); err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, c); len(got) != 1 || got[0] != 3 {
		t.Fatalf("recovered writes %v after an empty start, want 3", got)
	}
}

// A device in either retired layout — the one that kept a map checkpoint
// beside the log, and PR 21's, whose superblock does not say where the
// log starts — is refused with the layout error, which the core treats
// as cache loss; Format over it still continues its generation and epoch.
func TestOpenRefusesCheckpointLayout(t *testing.T) {
	for _, layout := range []uint8{2, 1} {
		dev := simdev.NewMem(64 * block.MiB)
		rec, err := retiredSuper(layout, 7, 3, uint64(superBytes+16*block.MiB), 3<<seqBits|1)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteAt(rec, superSlot1); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dev); err == nil || !strings.Contains(err.Error(), "another layout") {
			t.Fatalf("layout %d: Open = %v, want the layout error", layout, err)
		}
		c, err := Format(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if c.superGen != 9 || c.nextSeq != 4<<seqBits|1 {
			t.Fatalf("layout %d: formatted at generation %d, next sequence %#x; want 9 and epoch 4", layout, c.superGen, c.nextSeq)
		}
	}
}

// The log runs from the superblocks (plus the gap Format was asked for)
// to the end of the device, and Open finds it there without being told.
func TestOpenTakesTheLayoutFromTheDevice(t *testing.T) {
	for _, gap := range []int64{0, 2 * block.BlockSize, 16 * block.MiB} {
		dev := simdev.NewMem(32 * block.MiB)
		c, err := Format(dev, Config{CheckpointBytes: gap})
		if err != nil {
			t.Fatal(err)
		}
		want := dev.Size() - superBytes - gap
		if got := c.Stats().LogBytes; got != want {
			t.Fatalf("gap %d: formatted a log of %d bytes, want %d", gap, got, want)
		}
		ext := block.Extent{LBA: 8, Sectors: 8}
		if err := c.Append(1, ext, payload(1, int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(dev); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.LogBytes != want || st.RecoveredRecs != 1 {
			t.Fatalf("gap %d: reopened a log of %d bytes with %d records, want %d and 1", gap, st.LogBytes, st.RecoveredRecs, want)
		}
	}
}
