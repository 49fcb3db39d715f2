package journal

import (
	"bytes"
	"testing"
)

func TestCodecRoundTripAndOverrun(t *testing.T) {
	var w Codec
	w.PutU32(7)
	w.PutU64(1 << 40)
	w.PutStr("vol")
	w.PutBytes([]byte{1, 2, 3})

	r := Codec{Buf: w.Buf}
	if r.U32() != 7 || r.U64() != 1<<40 || r.Str() != "vol" || !bytes.Equal(r.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("round trip mismatch")
	}
	if r.Err != nil || len(r.Buf) != 0 {
		t.Fatalf("after a full read: err %v, %d bytes left", r.Err, len(r.Buf))
	}

	// A length field that claims more than the input holds.
	r = Codec{Buf: []byte{0xff, 0xff, 0xff, 0x7f, 'x'}}
	if b := r.Bytes(); b != nil || r.Err == nil {
		t.Fatalf("overrun read returned %v, err %v", b, r.Err)
	}
	if r.U32() != 0 || r.Err == nil {
		t.Fatal("a read after an error must keep failing")
	}

	// What that length field becomes where int is 32 bits.
	r = Codec{Buf: []byte{1, 2, 3, 4}}
	if b := r.take(-1); b != nil || r.Err == nil {
		t.Fatalf("negative length returned %v, err %v", b, r.Err)
	}
}
