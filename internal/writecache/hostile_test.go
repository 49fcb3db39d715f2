package writecache

import (
	"encoding/binary"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/simdev"
)

// Hostile 64-bit ring/map counts in a checkpoint must be rejected by
// the bound check, not wrapped negative by int() and fed to make().
// Regression test for the count bounding in decodeCheckpoint.
func TestDecodeCheckpointHostileCounts(t *testing.T) {
	c := &Cache{m: extmap.New()}
	mk := func(nRing, mapLen uint64) []byte {
		buf := make([]byte, 56)
		binary.LittleEndian.PutUint64(buf[40:], nRing)
		binary.LittleEndian.PutUint64(buf[48:], mapLen)
		return buf
	}
	cases := []struct {
		name          string
		nRing, mapLen uint64
	}{
		{"ring count wraps int", 1 << 62, 0},
		{"ring count -1", ^uint64(0), 0},
		{"map length wraps int", 0, 1 << 62},
		{"map length -1", 0, ^uint64(0)},
		{"ring count past payload", 1, 0},
	}
	for _, tc := range cases {
		if err := c.decodeCheckpoint(mk(tc.nRing, tc.mapLen)); err == nil {
			t.Errorf("%s: checkpoint accepted", tc.name)
		}
	}
}

// A log record header whose DataLen would wrap int64 negative must end
// replay at that record (the crash gap), not panic or mis-slice.
// Regression test for the length bounding in replay.
func TestReplayHostileDataLen(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := block.Extent{LBA: 0, Sectors: 8}
	if err := c.Append(1, ext, payload(1, int(ext.Bytes()))); err != nil {
		t.Fatal(err)
	}
	ext2 := block.Extent{LBA: 8, Sectors: 8}
	if err := c.Append(2, ext2, payload(2, int(ext2.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if len(c.ring) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(c.ring))
	}

	// Corrupt the second record's on-disk DataLen field to a value
	// that wraps int64, then recover from the device.
	hdr := make([]byte, block.BlockSize)
	if err := dev.ReadAt(hdr, c.ring[1].off); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(hdr[32:], 1<<63)
	if err := dev.WriteAt(hdr, c.ring[1].off); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dev, Config{})
	if err != nil {
		t.Fatalf("Open on corrupt log: %v", err)
	}
	if c2.recovered != 1 {
		t.Fatalf("recovered %d records, want 1 (replay must stop at the corrupt header)", c2.recovered)
	}
	// The surviving record still reads back.
	buf := make([]byte, ext.Bytes())
	runs, err := c2.ReadExtent(ext, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Present {
		t.Fatal("first record lost after replay stopped at the corrupt one")
	}
}
