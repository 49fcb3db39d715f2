// Package consistency provides the machinery behind the paper's crash
// tests (§4.4, Table 4). Instead of an ext4 file system and fsck, it
// writes self-describing stamped blocks — each 4 KiB block records
// which write produced it, and the rest of its bytes are a function of
// that write and the block — and after a crash checks the recovered
// image against the recorded history:
//
//   - "Mounted without errors" ⇔ the image is a consistent prefix of
//     the write history: there is a time t' such that every block holds
//     exactly the newest value written to it at or before t', and no
//     trace of any write after t' exists.
//   - "All committed writes recovered" ⇔ t' covers the last completed
//     commit barrier.
//
// A journaling file system is consistent exactly when its block device
// provides these properties, so the checker decides Table 4's
// mountable/fsck columns without reimplementing ext4.
package consistency

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"lsvd/internal/block"
	"lsvd/internal/vdisk"
)

const stampMagic = 0x5354414D // "STAM"

// stamp layout within each 4 KiB block:
// magic(4) version(8) blockIdx(8) crc(4)
const stampLen = 24

// Writer issues stamped writes against a disk and records the history
// needed to audit a recovered image.
type Writer struct {
	disk   vdisk.Disk
	blocks int64

	version   uint64
	committed uint64
	// lastWrite[b] = list of (version) writes touching block b, in
	// order; we keep only what the checker needs: for each block, the
	// full version history (versions are globally ordered).
	history map[int64][]uint64
}

// NewWriter wraps a disk whose size must be a 4 KiB multiple.
func NewWriter(d vdisk.Disk) (*Writer, error) {
	if d.Size()%block.BlockSize != 0 {
		return nil, fmt.Errorf("consistency: disk size %d not 4K aligned", d.Size())
	}
	return &Writer{disk: d, blocks: d.Size() / block.BlockSize, history: make(map[int64][]uint64)}, nil
}

func stampBlock(p []byte, version uint64, blockIdx int64) {
	binary.LittleEndian.PutUint32(p, stampMagic)
	binary.LittleEndian.PutUint64(p[4:], version)
	binary.LittleEndian.PutUint64(p[12:], uint64(blockIdx))
	crc := crc32.ChecksumIEEE(p[:20])
	binary.LittleEndian.PutUint32(p[20:], crc)
}

// fillBlock writes version's block blockIdx into p, one 4 KiB block:
// each sector holds a 32-byte unit over and over (the version, the
// block, the sector's offset and a mix of the three), and the stamp
// covers the front of the first. A block holding another write's
// sectors, another block's or another sector's, or none, differs from
// every block a write made.
func fillBlock(p []byte, version uint64, blockIdx int64) {
	for off := 0; off < block.BlockSize; off += block.SectorSize {
		u := p[off : off+block.SectorSize]
		binary.LittleEndian.PutUint64(u, version)
		binary.LittleEndian.PutUint64(u[8:], uint64(blockIdx))
		binary.LittleEndian.PutUint64(u[16:], uint64(off))
		binary.LittleEndian.PutUint64(u[24:], mix(version^uint64(blockIdx)<<20^uint64(off)))
		for n := 32; n < len(u); n *= 2 {
			copy(u[n:], u[:n])
		}
	}
	stampBlock(p, version, blockIdx)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func readStamp(p []byte) (version uint64, blockIdx int64, ok bool) {
	if len(p) < stampLen || binary.LittleEndian.Uint32(p) != stampMagic {
		return 0, 0, false
	}
	if crc32.ChecksumIEEE(p[:20]) != binary.LittleEndian.Uint32(p[20:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(p[4:]), int64(binary.LittleEndian.Uint64(p[12:])), true
}

// Write performs one stamped write of n 4 KiB blocks at blockIdx.
func (w *Writer) Write(blockIdx int64, n int) error {
	if blockIdx < 0 || blockIdx+int64(n) > w.blocks {
		return fmt.Errorf("consistency: write outside disk")
	}
	w.version++
	v := w.version
	buf := make([]byte, int64(n)*block.BlockSize)
	for i := 0; i < n; i++ {
		b := blockIdx + int64(i)
		fillBlock(buf[int64(i)*block.BlockSize:], v, b)
		w.history[b] = append(w.history[b], v)
	}
	return w.disk.WriteAt(buf, blockIdx*block.BlockSize)
}

// Barrier issues a commit barrier; on return all prior writes are
// committed.
func (w *Writer) Barrier() error {
	if err := w.disk.Flush(); err != nil {
		return err
	}
	w.committed = w.version
	return nil
}

// Rebind points the writer at a new disk (e.g. the volume reopened
// after a crash) so the recorded history can keep growing across
// crash/recover cycles.
func (w *Writer) Rebind(d vdisk.Disk) error {
	if d.Size()/block.BlockSize != w.blocks {
		return fmt.Errorf("consistency: rebind to disk of %d blocks, history has %d",
			d.Size()/block.BlockSize, w.blocks)
	}
	w.disk = d
	return nil
}

// Clone returns a writer with w's history, to go on from where w is
// without changing it: Rebind it to the disk it writes next.
func (w *Writer) Clone() *Writer {
	c := *w
	c.history = make(map[int64][]uint64, len(w.history))
	for b, versions := range w.history {
		c.history[b] = slices.Clone(versions)
	}
	return &c
}

// Prune discards the history of writes newer than v. After a crash
// recovered to prefix v, those writes are gone for good — auditing
// future states against them would demand data the disk never promised
// to keep. The committed watermark is clamped to v; the version
// counter is not, so post-recovery writes never reuse a lost version.
func (w *Writer) Prune(v uint64) {
	for b, versions := range w.history {
		kept := versions[:0]
		for _, ver := range versions {
			if ver <= v {
				kept = append(kept, ver)
			}
		}
		if len(kept) == 0 {
			delete(w.history, b)
		} else {
			w.history[b] = kept
		}
	}
	if w.committed > v {
		w.committed = v
	}
}

// Committed returns the newest committed version.
func (w *Writer) Committed() uint64 { return w.committed }

// Version returns the newest issued version.
func (w *Writer) Version() uint64 { return w.version }

// Report is the outcome of auditing a recovered image.
type Report struct {
	// Mountable: the image is some consistent prefix of the history.
	Mountable bool
	// CommittedPreserved: the prefix covers the last commit barrier.
	CommittedPreserved bool
	// RecoveredVersion is the t' the image corresponds to (when
	// Mountable).
	RecoveredVersion uint64
	// Violations lists the first few inconsistencies found.
	Violations []string
}

// Check audits a recovered disk against the recorded history.
func (w *Writer) Check(d vdisk.Disk) (Report, error) {
	var r Report
	// Pass 1: find the newest version present anywhere — the only t'
	// that could make the image a prefix (any smaller t' would leave
	// evidence of a later write; any larger needs no block changed).
	stamps := make(map[int64]uint64, len(w.history))
	buf, want, zero := make([]byte, block.BlockSize), make([]byte, block.BlockSize), make([]byte, block.BlockSize)
	var tPrime uint64
	// In block order, so one history reads the disk in one order: a
	// seeded walk (DESIGN.md §5) replays its reads too.
	order := make([]int64, 0, len(w.history))
	for b := range w.history {
		order = append(order, b)
	}
	slices.Sort(order)
	for _, b := range order {
		if err := d.ReadAt(buf, b*block.BlockSize); err != nil {
			return r, err
		}
		v, idx, ok := readStamp(buf)
		if !ok {
			if !bytes.Equal(buf, zero) {
				r.Violations = append(r.Violations, fmt.Sprintf("block %d holds bytes but no stamp", b))
			}
			stamps[b] = 0 // never-written or zeroed
			continue
		}
		if idx != b {
			r.Violations = append(r.Violations, fmt.Sprintf("block %d holds stamp for block %d", b, idx))
			continue
		}
		if v > w.version {
			r.Violations = append(r.Violations, fmt.Sprintf("block %d holds version %d beyond history %d", b, v, w.version))
			continue
		}
		if fillBlock(want, v, b); !bytes.Equal(buf, want) {
			r.Violations = append(r.Violations, fmt.Sprintf("block %d holds version %d's stamp but other bytes", b, v))
			continue
		}
		stamps[b] = v
		if v > tPrime {
			tPrime = v
		}
	}
	// Pass 2: at t', every block must hold its newest version <= t'.
	for b, versions := range w.history {
		var want uint64
		for _, v := range versions {
			if v <= tPrime && v > want {
				want = v
			}
		}
		if got := stamps[b]; got != want {
			if len(r.Violations) < 10 {
				r.Violations = append(r.Violations,
					fmt.Sprintf("block %d: holds v%d, but prefix t'=%d requires v%d", b, got, tPrime, want))
			}
		}
	}
	r.RecoveredVersion = tPrime
	r.Mountable = len(r.Violations) == 0
	r.CommittedPreserved = r.Mountable && tPrime >= w.committed
	return r, nil
}
