// Package block defines the fundamental units shared by every LSVD
// layer: sectors, extents of the virtual disk address space, and the
// helpers for validating and manipulating them.
//
// All addresses in LSVD are expressed in 512-byte sectors, matching the
// convention of the block layer the paper's prototype plugs into. Data
// buffers are always whole sectors.
package block

import (
	"fmt"
)

const (
	// SectorSize is the unit of addressing: 512 bytes, the traditional
	// logical block size presented by SCSI/NVMe devices.
	SectorSize = 512

	// SectorShift converts between bytes and sectors.
	SectorShift = 9

	// BlockSize is the 4 KiB alignment unit used by the cache log
	// (paper §3.1: "using 4 KB alignment").
	BlockSize = 4096

	// SectorsPerBlock is the number of sectors in one 4 KiB block.
	SectorsPerBlock = BlockSize / SectorSize
)

// Byte-size constants, handy throughout the tree.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
	TiB = int64(1) << 40
)

// LBA is a logical block address in 512-byte sectors. Depending on
// context it addresses the virtual disk (vLBA) or a physical device
// (pLBA); the type is shared because extents on both sides are
// manipulated with the same machinery.
type LBA uint64

// Bytes returns the byte offset of the LBA.
//
//lsvd:ignore sanctioned conversion point: LBAs are bounded by the device size at admission
func (l LBA) Bytes() int64 { return int64(l) << SectorShift }

// LBAFromBytes converts a byte offset to sectors; off must be
// sector-aligned.
func LBAFromBytes(off int64) LBA {
	if off%SectorSize != 0 {
		panic(fmt.Sprintf("block: unaligned byte offset %d", off))
	}
	return LBA(off >> SectorShift)
}

// Extent is a contiguous run of sectors in some address space.
type Extent struct {
	LBA     LBA    // first sector
	Sectors uint32 // length in sectors; never zero for a valid extent
}

// End returns the first LBA past the extent.
func (e Extent) End() LBA { return e.LBA + LBA(e.Sectors) }

// Bytes returns the extent length in bytes.
func (e Extent) Bytes() int64 { return int64(e.Sectors) << SectorShift }

// Empty reports whether the extent covers no sectors.
func (e Extent) Empty() bool { return e.Sectors == 0 }

// Contains reports whether lba falls inside the extent.
func (e Extent) Contains(lba LBA) bool { return lba >= e.LBA && lba < e.End() }

// Overlaps reports whether the two extents share any sector.
func (e Extent) Overlaps(o Extent) bool {
	return e.LBA < o.End() && o.LBA < e.End()
}

// Intersect returns the overlapping portion of two extents; the second
// result is false when they are disjoint.
func (e Extent) Intersect(o Extent) (Extent, bool) {
	lo := max(e.LBA, o.LBA)
	hi := min(e.End(), o.End())
	if lo >= hi {
		return Extent{}, false
	}
	return Extent{LBA: lo, Sectors: uint32(hi - lo)}, true
}

func (e Extent) String() string {
	return fmt.Sprintf("[%d+%d)", e.LBA, e.Sectors)
}

// CheckIO validates an I/O against a disk of size sectors: the buffer
// must be whole sectors and the extent in range.
func CheckIO(diskSectors LBA, lba LBA, buf []byte) error {
	if len(buf)%SectorSize != 0 {
		return fmt.Errorf("block: buffer length %d not sector aligned", len(buf))
	}
	n := LBA(len(buf) / SectorSize)
	if lba+n < lba || lba+n > diskSectors {
		return fmt.Errorf("block: I/O [%d+%d) outside device of %d sectors", lba, n, diskSectors)
	}
	return nil
}
