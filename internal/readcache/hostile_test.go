package readcache

import (
	"encoding/binary"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// A persisted-state header whose DataLen would wrap int64 negative (or
// merely exceeds the reserved region) must load as a cold cache, not
// panic allocating. Regression test for the length bounding in
// loadState.
func TestLoadStateHostileDataLen(t *testing.T) {
	for _, hostile := range []uint64{1 << 63, ^uint64(0), 1 << 40} {
		dev := simdev.NewMem(64 * block.MiB)
		// A structurally valid checkpoint header at the persist
		// offset, DataLen then corrupted in place. loadState must
		// reject it on the bound alone — the CRC is never reached.
		rec, err := journal.Encode(&journal.Header{Type: journal.TypeCheckpoint, Seq: 1, DataLen: 0}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(rec[32:], hostile)
		if err := dev.WriteAt(rec, block.BlockSize); err != nil {
			t.Fatal(err)
		}
		c, err := New(dev, Config{})
		if err != nil {
			t.Fatalf("DataLen=%d: New failed: %v", hostile, err)
		}
		// The arena came up cold but fully usable.
		ext := block.Extent{LBA: 64, Sectors: 8}
		data := payload(3, int(ext.Bytes()))
		_ = c.Insert(ext, data)
		if got, full := readBack(t, c, ext); !full || len(got) != len(data) {
			t.Fatalf("DataLen=%d: cache unusable after hostile load", hostile)
		}
	}
}
