package journal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"lsvd/internal/block"
)

// FuzzDecode throws arbitrary bytes at the full record parser. Decode
// must never panic, must tag every rejection with ErrCorrupt (recovery
// distinguishes torn records from I/O errors by that tag), and any
// record it accepts must survive an encode/decode round trip — the
// differential check that the parser and the encoder agree on the
// format.
func FuzzDecode(f *testing.F) {
	data := bytes.Repeat([]byte{0xa5}, 2*block.SectorSize)
	h := &Header{
		Type: TypeData, Seq: 7, Epoch: 3, WriteSeq: 9, DataLen: uint64(len(data)),
		Extents: []ExtentEntry{{LBA: 8, Sectors: 2, SrcSeq: 7}},
	}
	if rec, err := Encode(h, data, false); err == nil {
		f.Add(rec, false)
		f.Add(rec[:headerFixed-1], false)
	}
	if rec, err := Encode(h, data, true); err == nil { // the ladder's 4 KiB framing
		f.Add(rec, true)
		f.Add(rec[:len(rec)-1], true)
		f.Add(rec, false)
	}
	if rec, err := Encode(&Header{Type: TypePad, Seq: 1, Epoch: 1}, nil, false); err == nil {
		f.Add(rec, false)
	}
	f.Add([]byte("not a journal record"), false)

	f.Fuzz(func(t *testing.T, buf []byte, align bool) {
		h, data, total, err := Decode(buf, align)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error not tagged ErrCorrupt: %v", err)
			}
			return
		}
		if _, hdrLen, _ := DecodeHeader(buf); FramedLen(buf) != hdrLen {
			t.Fatalf("FramedLen %d, DecodeHeader's length %d", FramedLen(buf), hdrLen)
		}
		if total > len(buf) {
			t.Fatalf("decoded total %d exceeds buffer %d", total, len(buf))
		}
		if uint64(len(data)) != h.DataLen {
			t.Fatalf("data %d bytes, header claims %d", len(data), h.DataLen)
		}
		// Round trip: re-encoding the decoded record must produce a
		// record that decodes to the same header and data. (The bytes
		// may differ — the original may use a different header
		// alignment — but the decoded form must not.)
		rec, err := Encode(h, data, align)
		if err != nil {
			t.Fatalf("re-encode of accepted record failed: %v", err)
		}
		h2, data2, _, err := Decode(rec, align)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(h, h2) || !bytes.Equal(data, data2) {
			t.Fatalf("round trip changed the record: %+v -> %+v", h, h2)
		}
	})
}
