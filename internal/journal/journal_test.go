package journal

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lsvd/internal/block"
)

func sampleHeader(dataLen int) *Header {
	return &Header{
		Type:     TypeData,
		Seq:      42,
		WriteSeq: 1000,
		Extents: []ExtentEntry{
			{LBA: 8, Sectors: 8, SrcSeq: 42},
			{LBA: 4096, Sectors: uint32(dataLen/block.SectorSize - 8), SrcSeq: 42},
		},
		DataLen: uint64(dataLen),
	}
}

func TestRoundTripUnaligned(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 16*block.SectorSize)
	h := sampleHeader(len(data))
	rec, err := Encode(h, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != block.SectorSize+len(data) || HeaderSize(2) != block.SectorSize {
		t.Fatalf("record length %d: want one header sector and the data", len(rec))
	}
	h2, d2, n, err := Decode(rec, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rec) || !bytes.Equal(d2, data) {
		t.Fatalf("decode: n=%d", n)
	}
	if h2.Seq != h.Seq || h2.WriteSeq != h.WriteSeq || h2.Type != h.Type || len(h2.Extents) != 2 {
		t.Fatalf("header mismatch: %+v", h2)
	}
	if h2.Extents[1] != h.Extents[1] {
		t.Fatalf("extent mismatch: %+v", h2.Extents[1])
	}
}

func TestRoundTripAligned(t *testing.T) {
	data := bytes.Repeat([]byte{0x5C}, 3*block.SectorSize) // deliberately not 4K multiple
	h := &Header{Type: TypeData, Seq: 7, Extents: []ExtentEntry{{LBA: 100, Sectors: 3}}, DataLen: uint64(len(data))}
	rec, err := Encode(h, data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec)%block.BlockSize != 0 {
		t.Fatalf("aligned record not 4K multiple: %d", len(rec))
	}
	h2, d2, _, err := Decode(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d2, data) || h2.Seq != 7 {
		t.Fatal("aligned round trip mismatch")
	}
}

func TestDataLenMismatchRejected(t *testing.T) {
	h := sampleHeader(4096)
	if _, err := Encode(h, make([]byte, 8192), false); err == nil {
		t.Fatal("mismatched data length accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	h := sampleHeader(len(data))
	rec, _ := Encode(h, data, false)

	for _, pos := range []int{0, 5, 17, crcOffset, HeaderSize(2) + 10, len(rec) - 1} {
		mut := make([]byte, len(rec))
		copy(mut, rec)
		mut[pos] ^= 0xFF
		if _, _, _, err := Decode(mut, false); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
}

func TestShortBuffer(t *testing.T) {
	data := make([]byte, 4096)
	rec, _ := Encode(sampleHeader(len(data)), data, false)
	for _, n := range []int{0, 10, headerFixed - 1, headerFixed + 3, len(rec) - 1} {
		if _, _, _, err := Decode(rec[:n], false); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestPadRecord(t *testing.T) {
	h := &Header{Type: TypePad, Seq: 9}
	rec, err := Encode(h, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != block.SectorSize {
		t.Fatalf("pad record is %d bytes", len(rec))
	}
	h2, _, _, err := Decode(rec, false)
	if err != nil || h2.Type != TypePad {
		t.Fatalf("pad decode: %v %+v", err, h2)
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeData: "data", TypeCheckpoint: "checkpoint", TypeSuper: "super",
		TypeTrim: "trim", TypePad: "pad", TypeGC: "gc", Type(99): "type(99)",
	} {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d).String()=%q want %q", uint32(ty), got, want)
		}
	}
}

// Property: any header with random extents and random data round-trips
// exactly in both aligned and unaligned modes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seq, writeSeq uint64, epoch uint32, nExt uint8, dataBlocks uint8, align bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nExt%32) + 1
		exts := make([]ExtentEntry, n)
		for i := range exts {
			exts[i] = ExtentEntry{LBA: block.LBA(rng.Uint64() % (1 << 40)), Sectors: uint32(rng.Intn(1<<16) + 1), SrcSeq: rng.Uint64()}
		}
		data := make([]byte, (int(dataBlocks%16)+1)*block.SectorSize)
		rng.Read(data)
		h := &Header{Type: TypeData, Seq: seq, Epoch: epoch, WriteSeq: writeSeq, Extents: exts, DataLen: uint64(len(data))}
		rec, err := Encode(h, data, align)
		if err != nil {
			return false
		}
		h2, d2, total, err := Decode(rec, align)
		if err != nil || total != len(rec) || !bytes.Equal(d2, data) {
			return false
		}
		if h2.Seq != seq || h2.Epoch != epoch || h2.WriteSeq != writeSeq || len(h2.Extents) != n {
			return false
		}
		for i := range exts {
			if h2.Extents[i] != exts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of an encoded record makes Decode
// fail (detected by magic, length sanity, or CRC).
func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	data := bytes.Repeat([]byte{0xEE, 0x11}, 2048)
	rec, _ := Encode(sampleHeader(len(data)), data, false)
	f := func(pos uint16, mask uint8) bool {
		if mask == 0 {
			return true // no-op flip
		}
		p := int(pos) % len(rec)
		mut := make([]byte, len(rec))
		copy(mut, rec)
		mut[p] ^= mask
		_, _, _, err := Decode(mut, false)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode32MB(b *testing.B) {
	data := make([]byte, 32*block.MiB)
	exts := make([]ExtentEntry, 2048)
	for i := range exts {
		exts[i] = ExtentEntry{LBA: block.LBA(i * 64), Sectors: 32, SrcSeq: 1}
	}
	h := &Header{Type: TypeData, Seq: 1, Extents: exts, DataLen: uint64(len(data))}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(h, data, false); err != nil {
			b.Fatal(err)
		}
	}
}

// Follows is the next position, by the same session or a later one;
// and every header decodes with Seq and Epoch as written, a zero epoch
// under a Seq of 2³² or more included.
func TestFollowsAndThePackedStamp(t *testing.T) {
	prev := &Header{Seq: 9, Epoch: 4}
	for _, c := range []struct {
		next Header
		want bool
	}{
		{Header{Seq: 10, Epoch: 4}, true},
		{Header{Seq: 10, Epoch: 7}, true},
		{Header{Seq: 10, Epoch: 3}, false},
		{Header{Seq: 11, Epoch: 4}, false},
		{Header{Seq: 9, Epoch: 4}, false},
	} {
		if got := Follows(prev, &c.next); got != c.want {
			t.Errorf("Follows(%+v, %+v) = %v", *prev, c.next, got)
		}
	}
	for _, c := range []struct {
		seq   uint64
		epoch uint32
	}{{5<<32 | 10, 0}, {10, 0}, {5<<32 | 10, 2}} {
		rec, err := Encode(&Header{Type: TypeData, Seq: c.seq, Epoch: c.epoch}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := DecodeHeader(rec)
		if err != nil || h.Seq != c.seq || h.Epoch != c.epoch {
			t.Errorf("Seq %#x over epoch %d decoded to %+v (%v)", c.seq, c.epoch, h, err)
		}
	}
}

// FramedLen reports the length a header claims before all of it is in
// the buffer, and at least the fixed fields of a buffer too short to
// say.
func TestFramedLen(t *testing.T) {
	exts := make([]ExtentEntry, 600)
	rec, err := Encode(&Header{Type: TypeData, Seq: 1, Extents: exts}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		buf  []byte
		want int
	}{
		{rec, HeaderSize(600)},
		{rec[:block.BlockSize], HeaderSize(600)},
		{rec[:headerFixed], HeaderSize(600)},
		{rec[:15], headerFixed},
		{nil, headerFixed},
	} {
		if got := FramedLen(c.buf); got != c.want {
			t.Errorf("FramedLen of %d bytes = %d, want %d", len(c.buf), got, c.want)
		}
	}
}
