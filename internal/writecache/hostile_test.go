package writecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// FuzzOpen opens hostile device images: a well-framed superblock with a
// wild log start, chain start, sequence and epoch (or one of the three
// retired layouts), a record header at the log start with a wild type,
// length and extent, and raw bytes behind it. The header is framed as
// Commit frames one, its CRC taken over as many of those bytes as it
// claims, so a header whose length and extent agree with them is a whole
// record, packed against whatever the ring held behind it. Open must
// refuse or recover without panicking or sizing a buffer from a field it
// has not bounded, and whatever it recovers must be a cache that works.
func FuzzOpen(f *testing.F) {
	const logStart = superBytes + 2*block.BlockSize
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(4096), uint32(8), uint8(0), uint64(logStart), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(1<<63), uint32(1<<31), uint8(0), uint64(logStart), []byte("LSVD"))
	f.Add(uint64(1<<62), ^uint64(0), ^uint64(0), uint8(journal.TypePad), uint64(0), ^uint32(0), uint8(0), uint64(logStart), []byte{})
	f.Add(uint64(logStart+4096), uint64(2<<seqBits|1), uint64(9), uint8(journal.TypeTrim), uint64(0), uint32(0), uint8(0), uint64(logStart), []byte{1})
	f.Add(uint64(0), uint64(0), uint64(3), uint8(journal.TypeGC), uint64(45), uint32(1), uint8(2), uint64(0), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(4096), uint32(8), uint8(1), uint64(0), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(4096), uint32(8), uint8(0), uint64(superBytes), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(4096), uint32(8), uint8(0), uint64(1<<63|4096), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypePad), uint64(0), uint32(8), uint8(0), uint64(logStart+block.MiB+512), []byte{})
	// Whole records: a trim, and one sector of data packed against what
	// is left of the record the ring held there.
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeTrim), uint64(0), uint32(8), uint8(0), uint64(logStart), []byte{})
	f.Add(uint64(logStart), uint64(1<<seqBits|1), uint64(1), uint8(journal.TypeData), uint64(512), uint32(1), uint8(0), uint64(logStart), make([]byte, 512))
	f.Fuzz(func(t *testing.T, startOff, startSeq, epoch uint64, typ uint8, dataLen uint64, sectors uint32, layout uint8, superLogStart uint64, ring []byte) {
		cfg := Config{CheckpointBytes: 2 * block.BlockSize}
		dev := simdev.NewMem(logStart + 4*block.MiB)
		c, err := Format(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 3; i++ {
			ext := block.Extent{LBA: block.LBA(i) * 8, Sectors: 8}
			if err := c.Append(i, ext, payload(int64(i), int(ext.Bytes()))); err != nil {
				t.Fatal(err)
			}
		}

		super, err := encodeSuper(superblock{gen: 1 << 40, epoch: epoch, startOff: int64(startOff), startSeq: startSeq, logStart: int64(superLogStart)})
		if layout != 0 {
			super, err = retiredSuper(layout, 1<<40, epoch, startOff, startSeq)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(ring) > 1<<20 {
			ring = ring[:1<<20]
		}
		hdr := journal.EncodeHeaderSum(&journal.Header{
			Type: journal.Type(typ), Seq: startSeq, WriteSeq: 4, DataLen: dataLen,
			Extents: []journal.ExtentEntry{{LBA: 64, Sectors: sectors}},
		}, journal.Sum(ring[:min(dataLen, uint64(len(ring)))]))
		for _, w := range []struct {
			p   []byte
			off int64
		}{{super, superSlot0}, {hdr, logStart}, {ring, logStart + int64(len(hdr))}} {
			if err := dev.WriteAt(w.p, w.off); err != nil {
				t.Fatal(err)
			}
		}

		c, err = Open(dev)
		if err != nil {
			return
		}
		st := c.Stats()
		if st.UsedBytes >= st.LogBytes || int64(st.Records)*hdrBytes > st.UsedBytes {
			t.Fatalf("recovered %d records in %d of %d log bytes", st.Records, st.UsedBytes, st.LogBytes)
		}
		ext := block.Extent{LBA: 1 << 20, Sectors: 16}
		data := payload(7, int(ext.Bytes()))
		if err := c.Append(st.MaxWriteSeq+1, ext, data); err != nil {
			if errors.Is(err, ErrFull) {
				return // a recovered ring of un-destaged records may be full
			}
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(dev); err != nil {
			t.Fatal(err)
		}
		if got, full := readBack(t, c, ext); !full || !bytes.Equal(got, data) {
			t.Fatal("a write flushed to the recovered cache did not survive the next Open")
		}
	})
}

// retiredSuper frames a superblock of one of the three layouts before
// this one: 1 is the 32-byte payload without a log start, 3 the 40-byte
// one of a ring framed with 4 KiB record headers, anything else the
// 28-byte one that sat beside a map checkpoint.
func retiredSuper(layout uint8, gen, epoch, startOff, startSeq uint64) ([]byte, error) {
	le := binary.LittleEndian
	var old []byte
	switch layout {
	case 1, 3:
		old = make([]byte, 32)
		le.PutUint64(old, gen)
		le.PutUint64(old[8:], epoch)
		le.PutUint64(old[16:], startOff)
		le.PutUint64(old[24:], startSeq)
		if layout == 3 {
			old = le.AppendUint64(old, superBytes)
		}
	default:
		old = make([]byte, 28)
		le.PutUint64(old, gen)
		le.PutUint64(old[20:], epoch)
	}
	return journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: gen, DataLen: uint64(len(old))}, old, false)
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

	c2, err := Open(dev)
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
