package writecache

import (
	"bytes"
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
	c2, err := Open(dev, cfg)
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

	c, err = Open(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, c); len(got) != 1 || got[0] != 1 {
		t.Fatalf("recovered writes %v past the hole, want only 1", got)
	}
	// Opened twice without writing: epochs may skip.
	if c, err = Open(dev, Config{}); err != nil {
		t.Fatal(err)
	}
	appendRec(c, 2, 3) // X, exactly over B
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dev, Config{})
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
	if c, err = Open(dev, Config{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RecoveredRecs != 0 || st.UsedBytes != 0 {
		t.Fatalf("recovered %d records from a ring closed empty", st.RecoveredRecs)
	}
	appendRec(c, 3, 4)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dev, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := recovered(t, c); len(got) != 1 || got[0] != 3 {
		t.Fatalf("recovered writes %v after an empty start, want 3", got)
	}
}

// A device in the layout that kept a map checkpoint beside the log is
// refused, which the core treats as cache loss; Format over it still
// continues its generation and epoch.
func TestOpenRefusesCheckpointLayout(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	old := make([]byte, 28)
	old[0], old[20] = 7, 3 // gen 7, epoch 3
	rec, err := journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: 7, DataLen: 28}, old, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt(rec, superSlot1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, Config{}); err == nil {
		t.Fatal("opened a device in the checkpoint layout")
	}
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.superGen != 9 || c.nextSeq != 4<<seqBits|1 {
		t.Fatalf("formatted at generation %d, next sequence %#x; want 9 and epoch 4", c.superGen, c.nextSeq)
	}
}
