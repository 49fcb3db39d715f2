// Package journal implements the log-record format shared by the
// on-SSD write cache and the backend object store (paper Fig 2 and
// Fig 4): a header carrying a magic number, record type, sequence
// number, CRC and the list of virtual-disk extents described by the
// following data blocks. The CRC covers header and data so that
// recovery uses only complete records (§3.3): replay stops at the first
// record whose magic, sequence number or CRC does not line up.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"lsvd/internal/block"
)

// Magic identifies an LSVD log record ("LSVD" little-endian).
const Magic uint32 = 0x4456534c

// ErrCorrupt tags every decode failure — short buffer, bad magic,
// impossible lengths, CRC mismatch — so callers can tell a truncated
// or torn record (errors.Is(err, ErrCorrupt)) apart from an I/O error
// fetching it. Backend recovery uses this to treat a torn tail object
// as the crash gap rather than a fatal error.
var ErrCorrupt = errors.New("journal: corrupt record")

// Type discriminates log records and backend objects.
type Type uint32

const (
	// TypeData is a batch of client writes (cache record or backend
	// data object).
	TypeData Type = iota + 1
	// TypeCheckpoint is a serialized map checkpoint (§3.3).
	TypeCheckpoint
	// TypeSuper is the volume superblock, the only mutable object.
	TypeSuper
	// TypeTrim records a discarded range in the cache log.
	TypeTrim
	// TypePad fills the tail of the circular cache log before
	// wrap-around; it carries no data.
	TypePad
	// TypeGC is a backend object written by the garbage collector;
	// its extents carry the source object sequence numbers so that
	// recovery replay cannot resurrect stale data (DESIGN.md §4).
	TypeGC
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeSuper:
		return "super"
	case TypeTrim:
		return "trim"
	case TypePad:
		return "pad"
	case TypeGC:
		return "gc"
	default:
		return fmt.Sprintf("type(%d)", uint32(t))
	}
}

// ExtentEntry describes one run of data blocks within a record. SrcSeq
// is meaningful for TypeGC objects: the sequence number of the object
// the data was copied from; for fresh data it equals the record's own
// sequence number (and may be left zero in cache records).
type ExtentEntry struct {
	LBA     block.LBA
	Sectors uint32
	SrcSeq  uint64
}

// Header is the decoded form of a record header.
type Header struct {
	Type     Type
	Seq      uint64 // position in this log's sequence
	WriteSeq uint64 // last client write sequence folded into the record
	Extents  []ExtentEntry
	DataLen  uint64 // bytes of data following the header
}

// DataSectors returns the total sectors described by the extent list.
func (h *Header) DataSectors() uint64 {
	var n uint64
	for _, e := range h.Extents {
		n += uint64(e.Sectors)
	}
	return n
}

const (
	headerFixed = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4 // magic,type,hdrLen,crc,seq,writeSeq,dataLen,nExtents,reserved
	entrySize   = 8 + 4 + 8                         // lba, sectors, srcSeq

	crcOffset = 8 // byte offset of the crc field within the header
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HeaderSize returns the encoded header size for n extents, before any
// alignment padding.
func HeaderSize(n int) int { return headerFixed + n*entrySize }

// AlignedHeaderSize returns HeaderSize rounded up to the 4 KiB cache
// log alignment.
func AlignedHeaderSize(n int) int {
	s := HeaderSize(n)
	return (s + block.BlockSize - 1) &^ (block.BlockSize - 1)
}

// Encode serializes the header followed by data. If align4K, the header
// is padded to a 4 KiB multiple before the data, and the whole record
// is padded to a 4 KiB multiple at the end, matching the cache log
// layout (§3.1); backend objects use the unaligned form. The CRC is
// computed over the padded header (crc field zeroed) and the data.
func Encode(h *Header, data []byte, align4K bool) ([]byte, error) {
	if align4K {
		return encode(h, data, block.BlockSize, block.BlockSize)
	}
	return encode(h, data, 1, 1)
}

// EncodeSectorHeader serializes a record whose header is padded to a
// 512-byte sector boundary with no trailing padding — the backend
// object layout, where data offsets must be sector-addressable.
func EncodeSectorHeader(h *Header, data []byte) ([]byte, error) {
	return encode(h, data, block.SectorSize, 1)
}

func encode(h *Header, data []byte, hdrAlign, totalAlign int) ([]byte, error) {
	if uint64(len(data)) != h.DataLen {
		return nil, fmt.Errorf("journal: header DataLen %d != data %d", h.DataLen, len(data))
	}
	hs := HeaderSize(len(h.Extents))
	hs = (hs + hdrAlign - 1) / hdrAlign * hdrAlign
	total := hs + len(data)
	total = (total + totalAlign - 1) / totalAlign * totalAlign
	buf := make([]byte, total)
	putHeader(buf, h, hs)
	copy(buf[hs:], data)
	crc := crc32.Update(0, castagnoli, buf[:hs])
	crc = crc32.Update(crc, castagnoli, data)
	binary.LittleEndian.PutUint32(buf[crcOffset:], crc)
	return buf, nil
}

// putHeader writes h's fields into buf[:hs] with the CRC field zero;
// buf[:hs] must already be zeroed (freshly allocated or cleared).
func putHeader(buf []byte, h *Header, hs int) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	le.PutUint32(buf[4:], uint32(h.Type))
	le.PutUint32(buf[12:], uint32(hs))
	le.PutUint64(buf[16:], h.Seq)
	le.PutUint64(buf[24:], h.WriteSeq)
	le.PutUint64(buf[32:], h.DataLen)
	le.PutUint32(buf[40:], uint32(len(h.Extents)))
	off := headerFixed
	for _, e := range h.Extents {
		le.PutUint64(buf[off:], uint64(e.LBA))
		le.PutUint32(buf[off+8:], e.Sectors)
		le.PutUint64(buf[off+12:], e.SrcSeq)
		off += entrySize
	}
}

// EncodeHeader serializes only the record header, padded to hdrAlign,
// with the CRC computed as if the data slices followed the header
// contiguously. The result decodes identically to Encode's header, but
// the payload is never copied: callers issue one vectored device write
// of [header, data...] instead of materializing the full record.
func EncodeHeader(h *Header, hdrAlign int, data ...[]byte) ([]byte, error) {
	var n uint64
	var sum uint32
	for _, d := range data {
		n += uint64(len(d))
		sum = crc32.Update(sum, castagnoli, d)
	}
	if n != h.DataLen {
		return nil, fmt.Errorf("journal: header DataLen %d != data %d", h.DataLen, n)
	}
	return EncodeHeaderSum(h, hdrAlign, sum), nil
}

// EncodeHeaderSum is EncodeHeader for a caller that already holds
// sum, the CRC32C (Sum) of the h.DataLen data bytes: the header is
// stamped with the same CRC a pass over header and data would compute,
// and the data is not read. The record then vouches for the bytes as
// they were when sum was taken.
func EncodeHeaderSum(h *Header, hdrAlign int, sum uint32) []byte {
	hs := HeaderSize(len(h.Extents))
	hs = (hs + hdrAlign - 1) / hdrAlign * hdrAlign
	buf := make([]byte, hs)
	putHeader(buf, h, hs)
	binary.LittleEndian.PutUint32(buf[crcOffset:], Combine(Sum(buf), sum, h.DataLen))
	return buf
}

// DecodeHeader parses a header from the front of buf without verifying
// the data CRC (the data may not have been read yet). It returns the
// header and the header's encoded length (including alignment padding).
func DecodeHeader(buf []byte) (*Header, int, error) {
	if len(buf) < headerFixed {
		return nil, 0, fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(buf))
	}
	le := binary.LittleEndian
	if m := le.Uint32(buf); m != Magic {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	h := &Header{
		Type:     Type(le.Uint32(buf[4:])),
		Seq:      le.Uint64(buf[16:]),
		WriteSeq: le.Uint64(buf[24:]),
		DataLen:  le.Uint64(buf[32:]),
	}
	hdrLen := int(le.Uint32(buf[12:]))
	n := int(le.Uint32(buf[40:]))
	if hdrLen < HeaderSize(n) || hdrLen > len(buf) {
		return nil, 0, fmt.Errorf("%w: header length %d invalid for %d extents (buf %d)", ErrCorrupt, hdrLen, n, len(buf))
	}
	if n > 0 {
		h.Extents = make([]ExtentEntry, n)
		off := headerFixed
		for i := range h.Extents {
			h.Extents[i] = ExtentEntry{
				LBA:     block.LBA(le.Uint64(buf[off:])),
				Sectors: le.Uint32(buf[off+8:]),
				SrcSeq:  le.Uint64(buf[off+12:]),
			}
			off += entrySize
		}
	}
	return h, hdrLen, nil
}

// Verify checks the record CRC given the padded header bytes and the
// data bytes.
func Verify(hdrBytes, data []byte) error {
	if len(hdrBytes) < headerFixed {
		return fmt.Errorf("%w: short header", ErrCorrupt)
	}
	le := binary.LittleEndian
	want := le.Uint32(hdrBytes[crcOffset:])
	tmp := make([]byte, len(hdrBytes))
	copy(tmp, hdrBytes)
	le.PutUint32(tmp[crcOffset:], 0)
	crc := crc32.Update(0, castagnoli, tmp)
	crc = crc32.Update(crc, castagnoli, data)
	if crc != want {
		return fmt.Errorf("%w: CRC mismatch: computed %#x, stored %#x", ErrCorrupt, crc, want)
	}
	return nil
}

// Decode parses and fully verifies a record from buf, returning the
// header, the data, and the total encoded record length. align4K must
// match the flag used at encode time.
func Decode(buf []byte, align4K bool) (*Header, []byte, int, error) {
	h, hdrLen, err := DecodeHeader(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	// Bound the length field BEFORE converting: a hostile DataLen
	// wraps int(h.DataLen) negative, which would slip past the total
	// check below and panic slicing. DecodeHeader guarantees
	// hdrLen <= len(buf).
	if h.DataLen > uint64(len(buf)-hdrLen) {
		return nil, nil, 0, fmt.Errorf("%w: data length %d exceeds buffer %d", ErrCorrupt, h.DataLen, len(buf))
	}
	dataLen := int(h.DataLen)
	total := hdrLen + dataLen
	if align4K {
		total = (total + block.BlockSize - 1) &^ (block.BlockSize - 1)
	}
	if total > len(buf) {
		return nil, nil, 0, fmt.Errorf("%w: record of %d bytes exceeds buffer %d", ErrCorrupt, total, len(buf))
	}
	data := buf[hdrLen : hdrLen+dataLen]
	if err := Verify(buf[:hdrLen], data); err != nil {
		return nil, nil, 0, err
	}
	return h, data, total, nil
}
