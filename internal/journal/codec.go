package journal

import (
	"encoding/binary"
	"fmt"
)

// Codec builds and parses a record payload made of little-endian
// fixed-width integers and length-prefixed byte strings: the block
// store's superblock and checkpoint objects and the read cache's
// persisted map. The Put methods append to Buf; U32, U64, Bytes and
// Str consume from its front. A read past the end sets Err and returns
// zero, as does every read after it, so a decoder checks Err once.
type Codec struct {
	Buf []byte
	Err error
}

func (c *Codec) PutU32(v uint32) { c.Buf = binary.LittleEndian.AppendUint32(c.Buf, v) }

func (c *Codec) PutU64(v uint64) { c.Buf = binary.LittleEndian.AppendUint64(c.Buf, v) }

// PutBytes appends p behind its 32-bit length.
func (c *Codec) PutBytes(p []byte) {
	c.PutU32(uint32(len(p)))
	c.Buf = append(c.Buf, p...)
}

func (c *Codec) PutStr(s string) {
	c.PutU32(uint32(len(s)))
	c.Buf = append(c.Buf, s...)
}

// take consumes n bytes. n comes from a length field in the input: on
// a 32-bit int a hostile one converts to a negative n, which must fail
// like any other overrun instead of reaching the slice expression.
func (c *Codec) take(n int) []byte {
	if c.Err != nil {
		return nil
	}
	if n < 0 || len(c.Buf) < n {
		c.Err = fmt.Errorf("truncated at %d (need %d)", len(c.Buf), n)
		return nil
	}
	out := c.Buf[:n]
	c.Buf = c.Buf[n:]
	return out
}

func (c *Codec) U32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *Codec) U64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes consumes a length-prefixed byte string; the result aliases Buf.
func (c *Codec) Bytes() []byte { return c.take(int(c.U32())) }

func (c *Codec) Str() string { return string(c.Bytes()) }
