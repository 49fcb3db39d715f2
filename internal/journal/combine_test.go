package journal

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"lsvd/internal/block"
)

// EncodeHeader is the reference EncodeHeaderSum is checked against: the
// record header framed by one CRC pass over the header and the data
// slices laid out after it, as Encode frames a whole record.
func EncodeHeader(h *Header, data ...[]byte) ([]byte, error) {
	payload := bytes.Join(data, nil)
	rec, err := Encode(h, payload, false)
	if err != nil {
		return nil, err
	}
	return rec[:len(rec)-len(payload)], nil
}

// combineLens are the tail lengths the write path actually produces
// (nothing, a sector's neighbours, a block, a large write, a batch and
// a byte) — each a different pattern of zero operators.
var combineLens = []int{0, 1, 511, 4 << 10, 128 << 10, 8<<20 + 1}

func TestCombineMatchesOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 2*(8<<20+1))
	rng.Read(buf)
	for _, la := range combineLens {
		for _, lb := range combineLens {
			a, b := buf[:la], buf[la:la+lb]
			want := crc32.Checksum(buf[:la+lb], castagnoli)
			if got := Combine(Sum(a), Sum(b), uint64(lb)); got != want {
				t.Errorf("Combine over %d+%d bytes = %#x, one pass = %#x", la, lb, got, want)
			}
		}
	}
	// Folding piece by piece from the empty prefix is how an object's
	// payload sum is built.
	var sum uint32
	for off, n := 0, 0; off < len(buf); off += n {
		n = min(1+rng.Intn(1<<20), len(buf)-off)
		sum = Combine(sum, Sum(buf[off:off+n]), uint64(n))
	}
	if want := Sum(buf); sum != want {
		t.Errorf("piecewise fold = %#x, one pass = %#x", sum, want)
	}
}

// TestEncodeHeaderSumStampsTheSameCRC: a header framed from a payload
// sum is the header a pass over the payload frames, for the empty
// payload of a trim too.
func TestEncodeHeaderSumStampsTheSameCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 128<<10)
	rng.Read(data)
	for _, n := range []int{0, block.SectorSize, len(data)} {
		h := &Header{Type: TypeData, Seq: 3, WriteSeq: 5, DataLen: uint64(n),
			Extents: []ExtentEntry{{LBA: 64, Sectors: uint32(n / block.SectorSize), SrcSeq: 3}}}
		want, err := EncodeHeader(h, data[:n/2], data[n/2:n])
		if err != nil {
			t.Fatal(err)
		}
		got := EncodeHeaderSum(h, Sum(data[:n]))
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: headers differ", n)
		}
		if err := Verify(got, data[:n]); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
	}
	// The sum speaks for the bytes as they were when it was taken.
	h := &Header{Type: TypeData, Seq: 1, DataLen: uint64(len(data)), Extents: []ExtentEntry{{Sectors: 256}}}
	hdr := EncodeHeaderSum(h, Sum(data))
	data[len(data)/2] ^= 1
	if err := Verify(hdr, data); err == nil {
		t.Fatal("a byte changed after the sum was taken and the record still verifies")
	}
}

// FuzzCombine: Combine(Sum(a), Sum(b), len(b)) is Sum(a‖b) for every
// split. b is tiled rep times (bounded) so the fuzzer reaches batch-sized
// tails from a small corpus.
func FuzzCombine(f *testing.F) {
	f.Add([]byte(nil), []byte(nil), uint32(1))
	f.Add([]byte("header"), []byte{0}, uint32(1))
	f.Add([]byte{0xff}, []byte("0123456"), uint32(73)) // 511
	f.Add([]byte("a"), bytes.Repeat([]byte{0xa5}, 64), uint32(64))
	f.Add([]byte("LSVD"), []byte("\x00\x01\x02\x03\x04\x05\x06\x07"), uint32(16<<10)) // 128 KiB
	f.Add([]byte{}, []byte("abc"), uint32(2796203))                                   // 8 MiB + 1

	f.Fuzz(func(t *testing.T, a, b []byte, rep uint32) {
		const maxTail = 9 << 20
		if len(b) > 0 {
			b = bytes.Repeat(b, max(1, min(int(rep), maxTail/len(b))))
		}
		whole := append(append([]byte(nil), a...), b...)
		if got, want := Combine(Sum(a), Sum(b), uint64(len(b))), Sum(whole); got != want {
			t.Fatalf("Combine over %d+%d bytes = %#x, one pass = %#x", len(a), len(b), got, want)
		}
	})
}

func BenchmarkCombine128K(b *testing.B) {
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = Combine(uint32(i)*2654435761, sink, 128<<10)
	}
	_ = sink
}
