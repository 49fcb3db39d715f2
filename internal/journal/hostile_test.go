package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"lsvd/internal/block"
)

// reseal recomputes the record CRC after a test mutated header fields,
// so the corruption under test is the mutated field itself rather than
// a CRC mismatch.
func reseal(rec []byte, hdrLen int, data []byte) {
	le := binary.LittleEndian
	le.PutUint32(rec[crcOffset:], 0)
	crc := crc32.Update(0, castagnoli, rec[:hdrLen])
	crc = crc32.Update(crc, castagnoli, data)
	le.PutUint32(rec[crcOffset:], crc)
}

// A DataLen larger than the buffer must be rejected before any
// conversion or slicing: a value above MaxInt64 wraps int(DataLen)
// negative, which would slip past a post-conversion total check and
// panic (or alias the header as data). The CRC is resealed so only the
// length bound can reject the record.
func TestDecodeHostileDataLen(t *testing.T) {
	data := bytes.Repeat([]byte{0xd7}, 2*block.SectorSize)
	h := &Header{
		Type: TypeData, Seq: 3, WriteSeq: 11, DataLen: uint64(len(data)),
		Extents: []ExtentEntry{{LBA: 40, Sectors: 2, SrcSeq: 3}},
	}
	for _, hostile := range []uint64{
		uint64(len(data)) + 1, // just past the buffer
		1 << 40,               // far past the buffer
		1 << 63,               // wraps int() negative
		^uint64(0),            // -1 as int()
	} {
		rec, err := Encode(h, data, false)
		if err != nil {
			t.Fatal(err)
		}
		_, hdrLen, err := DecodeHeader(rec)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(rec[32:], hostile)
		reseal(rec, hdrLen, data)
		if _, _, _, err := Decode(rec, false); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DataLen=%d: Decode returned %v, want ErrCorrupt", hostile, err)
		}
	}
}

// Truncating a two-record object at every byte offset must never
// panic, never yield bytes past the buffer, and must flip from error
// to success exactly at each record boundary — the property backend
// recovery's torn-PUT handling (§3.3) rests on.
func TestDecodeTruncationEveryOffset(t *testing.T) {
	d1 := bytes.Repeat([]byte{0x11}, 3*block.SectorSize)
	h1 := &Header{
		Type: TypeData, Seq: 1, WriteSeq: 5, DataLen: uint64(len(d1)),
		Extents: []ExtentEntry{{LBA: 0, Sectors: 3, SrcSeq: 1}},
	}
	rec1, err := Encode(h1, d1, false)
	if err != nil {
		t.Fatal(err)
	}
	d2 := bytes.Repeat([]byte{0x22}, block.SectorSize)
	h2 := &Header{
		Type: TypeData, Seq: 2, WriteSeq: 6, DataLen: uint64(len(d2)),
		Extents: []ExtentEntry{{LBA: 9, Sectors: 1, SrcSeq: 2}},
	}
	rec2, err := Encode(h2, d2, false)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]byte{}, rec1...), rec2...)

	for n := 0; n <= len(full); n++ {
		buf := full[:n]
		h, data, total, err := Decode(buf, false)
		if n < len(rec1) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated to %d: Decode returned %v, want ErrCorrupt", n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("truncated to %d: first record failed: %v", n, err)
		}
		if total != len(rec1) || h.Seq != h1.Seq || !bytes.Equal(data, d1) {
			t.Fatalf("truncated to %d: first record decoded wrong (total %d, seq %d)", n, total, h.Seq)
		}
		h, data, _, err = Decode(buf[total:], false)
		if n < len(full) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated to %d: second record returned %v, want ErrCorrupt", n, err)
			}
			continue
		}
		if err != nil || h.Seq != h2.Seq || !bytes.Equal(data, d2) {
			t.Fatalf("full object: second record decoded wrong: %v", err)
		}
	}
}
