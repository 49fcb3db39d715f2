package journal

import "hash/crc32"

// A record's CRC covers header and data, but the two are rarely in hand
// at the same moment: the write path checksums a payload when it is
// acknowledged, and the headers that will vouch for those bytes — the
// cache record's now, the backend object's tens of milliseconds later —
// are framed elsewhere. Combine lets each of them reuse the one pass:
// CRC(A‖B) is a function of CRC(A), CRC(B) and len(B) alone.

// Sum returns the CRC32C of p, the checksum every record carries.
func Sum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// zeroOp is a 32x32 matrix over GF(2), one column per uint32: applied
// to a CRC register it yields the register after some fixed number of
// zero bytes have been fed through it.
type zeroOp [32]uint32

func (m *zeroOp) apply(v uint32) uint32 {
	var sum uint32
	for i, col := range m {
		sum ^= col & -(v >> i & 1) // branch-free: CRC bits are coin flips
	}
	return sum
}

func (m *zeroOp) square() (sq zeroOp) {
	for i, col := range m {
		sq[i] = m.apply(col)
	}
	return sq
}

// zeroOps[k] advances a CRC32C register over 2^k zero bytes.
var zeroOps = func() (ops [64]zeroOp) {
	// One zero bit: shift right, folding the (reflected) polynomial in
	// when a one falls off the end.
	var bit zeroOp
	bit[0] = crc32.Castagnoli
	for i := 1; i < 32; i++ {
		bit[i] = 1 << (i - 1)
	}
	ops[0] = bit.square() // 2 bits
	ops[0] = ops[0].square()
	ops[0] = ops[0].square() // 8 bits
	for k := 1; k < len(ops); k++ {
		ops[k] = ops[k-1].square()
	}
	return ops
}()

// Combine returns the CRC32C of A‖B given crcA = Sum(A), crcB = Sum(B)
// and lenB = len(B) — zlib's crc32_combine with the squarings done once:
// crcA is advanced over lenB zero bytes, one precomputed operator per
// set bit of lenB, and crcB is folded in. A 128 KiB tail costs one
// operator, some 40 ns.
func Combine(crcA, crcB uint32, lenB uint64) uint32 {
	for k := 0; lenB != 0; k, lenB = k+1, lenB>>1 {
		if lenB&1 != 0 {
			crcA = zeroOps[k].apply(crcA)
		}
	}
	return crcA ^ crcB
}
