// Package simdev provides the block devices LSVD layers sit on: a
// sparse in-memory device with realistic crash semantics (a write
// acknowledged before a flush may be lost: the device keeps the
// pre-image of every page written since the last flush, and a crash
// rolls a random subset of those pages back), a file-backed device for
// real deployments, and a metering wrapper that records the I/O stream
// for the iomodel timing analysis.
//
// The memory device elides all-zero pages, so multi-gigabyte
// experiment volumes written with zero payloads cost almost no RAM
// while correctness tests with random payloads still see exact data.
// Its wall-clock cost is the simulator's, not a device's: what the
// I/O would cost on real hardware is the metered stream's modelled
// time (DESIGN.md §16.2).
package simdev

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"lsvd/internal/iomodel"
)

// Device is the block-device abstraction used by the caches.
type Device interface {
	// ReadAt fills p from the device at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at byte offset off. The write is acknowledged
	// when WriteAt returns but is only durable after Flush.
	WriteAt(p []byte, off int64) error
	// Flush is the commit barrier: all previously acknowledged writes
	// are durable when it returns.
	Flush() error
	// Size returns the device capacity in bytes.
	Size() int64
}

const pageSize = 64 << 10

// VectorWriter is an optional Device extension: WriteAtv stores the
// concatenation of bufs at byte offset off as one device operation.
// The write-cache group-commit leader uses it to land a whole batch of
// log records (headers, payloads, padding) with a single call instead
// of one WriteAt per fragment.
type VectorWriter interface {
	WriteAtv(bufs [][]byte, off int64) error
}

// WriteVec writes the concatenation of bufs at off, using the device's
// native vectored write when it has one and falling back to sequential
// WriteAt calls otherwise.
func WriteVec(dev Device, off int64, bufs ...[]byte) error {
	if vw, ok := dev.(VectorWriter); ok {
		return vw.WriteAtv(bufs, off)
	}
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		if err := dev.WriteAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

func vecLen(bufs [][]byte) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}

// MemDevice is a sparse in-memory device. Nil pages read as zeros and
// all-zero writes release pages, so only genuinely non-zero data costs
// memory. It models a volatile device cache lost on power failure:
// every page written since the last Flush keeps its pre-image — the
// page as it stood at that Flush — so Crash can roll an arbitrary
// subset of them back.
//
// Pre-images are kept by copy-on-write: the first write to a page
// after a Flush moves the current page into preimages (no copy) and
// lands in a recycled page that inherits only the bytes the write
// leaves alone; later writes to the same page go in place. A page held
// in preimages is therefore never also in pages.
type MemDevice struct {
	mu    sync.RWMutex
	size  int64
	pages map[int64][]byte
	// preimages has a key for every page written since the last Flush;
	// a nil value means the page read as zeros then.
	preimages map[int64][]byte
	// free holds released pages (contents undefined) for reuse, at most
	// maxFreePages of them: only pages that once held non-zero data ever
	// get here, so zero-payload volumes keep costing almost no RAM.
	free [][]byte
}

// maxFreePages bounds the page free list (16 MiB): about twice what a
// write log dirties between two commit barriers.
const maxFreePages = 256

// NewMem returns a sparse in-memory device of the given size.
func NewMem(size int64) *MemDevice {
	return &MemDevice{
		size:      size,
		pages:     make(map[int64][]byte),
		preimages: make(map[int64][]byte),
	}
}

// Size returns the device capacity in bytes.
func (d *MemDevice) Size() int64 { return d.size }

func (d *MemDevice) check(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("simdev: I/O [%d,%d) outside device of %d bytes", off, off+int64(len(p)), d.size)
	}
	return nil
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) error {
	if err := d.check(p, off); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for len(p) > 0 {
		pg := off / pageSize
		po := off % pageSize
		n := int64(len(p))
		if n > pageSize-po {
			n = pageSize - po
		}
		if page := d.pages[pg]; page != nil {
			copy(p[:n], page[po:po+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off int64) error {
	if err := d.check(p, off); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeLocked(p, off)
	return nil
}

// WriteAtv implements VectorWriter: the whole batch lands under one
// lock acquisition.
func (d *MemDevice) WriteAtv(bufs [][]byte, off int64) error {
	if total := vecLen(bufs); off < 0 || off+total > d.size {
		return fmt.Errorf("simdev: I/O [%d,%d) outside device of %d bytes", off, off+total, d.size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range bufs {
		d.writeLocked(p, off)
		off += int64(len(p))
	}
	return nil
}

func (d *MemDevice) writeLocked(p []byte, off int64) {
	for len(p) > 0 {
		pg := off / pageSize
		po := off % pageSize
		n := int64(len(p))
		if n > pageSize-po {
			n = pageSize - po
		}
		d.writePage(pg, po, p[:n])
		p = p[n:]
		off += n
	}
}

// writePage stores p at offset po of page pg.
func (d *MemDevice) writePage(pg, po int64, p []byte) {
	page := d.pages[pg]
	_, dirty := d.preimages[pg]
	if !dirty {
		// First write since the last Flush: the current page becomes
		// the pre-image as it is, and the write goes to a fresh one.
		d.preimages[pg] = page
	}
	zero := allZero(p)
	if page == nil && zero {
		return // zeros over a zero page
	}
	if page == nil || !dirty {
		old, end := page, po+int64(len(p))
		page = d.newPage()
		if old != nil {
			copy(page[:po], old)
			copy(page[end:], old[end:])
		} else {
			clear(page[:po])
			clear(page[end:])
		}
		d.pages[pg] = page
	}
	copy(page[po:], p)
	if zero && allZero(page) {
		delete(d.pages, pg)
		d.freePage(page)
	}
}

// newPage returns a page whose contents are undefined.
func (d *MemDevice) newPage() []byte {
	if n := len(d.free); n > 0 {
		page := d.free[n-1]
		d.free = d.free[:n-1]
		return page
	}
	return make([]byte, pageSize)
}

// freePage recycles a page nothing references anymore (nil is a no-op).
func (d *MemDevice) freePage(page []byte) {
	if page != nil && len(d.free) < maxFreePages {
		d.free = append(d.free, page)
	}
}

// Flush implements Device: it commits all acknowledged writes, dropping
// the crash pre-images.
func (d *MemDevice) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pre := range d.preimages {
		d.freePage(pre)
	}
	clear(d.preimages)
	return nil
}

// Crash simulates a power failure: every page written since the last
// Flush is independently rolled back to its pre-image with probability
// lossProb, using rng for determinism. lossProb 1 loses all unflushed
// writes; 0 keeps them all (writes that happened to reach media).
func (d *MemDevice) Crash(lossProb float64, rng *rand.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for pg, pre := range d.preimages {
		if rng.Float64() >= lossProb {
			d.freePage(pre)
			continue
		}
		d.freePage(d.pages[pg])
		if pre != nil {
			d.pages[pg] = pre
		} else {
			delete(d.pages, pg)
		}
	}
	clear(d.preimages)
}

// DirtyPages returns the number of pages written since the last flush.
func (d *MemDevice) DirtyPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.preimages)
}

// Discard erases the whole device (used to model losing the cache SSD
// entirely, §4.4 Table 4).
func (d *MemDevice) Discard() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = make(map[int64][]byte)
	clear(d.preimages)
}

// PagesInUse returns the number of materialized (non-zero) pages.
func (d *MemDevice) PagesInUse() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

func allZero(p []byte) bool {
	// Word loads (the compiler elides the per-iteration bounds checks)
	// rather than a byte loop: this runs over every zero page written,
	// so it shows up in write-path profiles.
	for len(p) >= 32 {
		if binary.LittleEndian.Uint64(p)|binary.LittleEndian.Uint64(p[8:])|
			binary.LittleEndian.Uint64(p[16:])|binary.LittleEndian.Uint64(p[24:]) != 0 {
			return false
		}
		p = p[32:]
	}
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
		p = p[8:]
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// FileDevice is a Device backed by a file (or raw block device path);
// used by the NBD server and the CLI tools for real deployments.
type FileDevice struct {
	f    *os.File
	size int64
}

// OpenFile opens (creating and sizing if needed) a file-backed device.
func OpenFile(path string, size int64) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
	} else if size == 0 {
		size = st.Size()
	}
	return &FileDevice{f: f, size: size}, nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(p []byte, off int64) error {
	_, err := d.f.ReadAt(p, off)
	return err
}

// WriteAt implements Device.
func (d *FileDevice) WriteAt(p []byte, off int64) error {
	_, err := d.f.WriteAt(p, off)
	return err
}

// Flush implements Device via fsync.
func (d *FileDevice) Flush() error { return d.f.Sync() }

// Size implements Device.
func (d *FileDevice) Size() int64 { return d.size }

// Close closes the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }

// Section exposes a contiguous region of a parent device as its own
// Device; LSVD statically partitions the cache SSD into a write-cache
// area and a read-cache area this way (§3.7).
type Section struct {
	parent Device
	off    int64
	size   int64
}

// NewSection returns the [off, off+size) window of parent.
func NewSection(parent Device, off, size int64) (*Section, error) {
	if off < 0 || size <= 0 || off+size > parent.Size() {
		return nil, fmt.Errorf("simdev: section [%d,%d) outside parent of %d bytes", off, off+size, parent.Size())
	}
	return &Section{parent: parent, off: off, size: size}, nil
}

func (s *Section) check(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > s.size {
		return fmt.Errorf("simdev: I/O [%d,%d) outside section of %d bytes", off, off+int64(len(p)), s.size)
	}
	return nil
}

// ReadAt implements Device.
func (s *Section) ReadAt(p []byte, off int64) error {
	if err := s.check(p, off); err != nil {
		return err
	}
	return s.parent.ReadAt(p, s.off+off)
}

// WriteAt implements Device.
func (s *Section) WriteAt(p []byte, off int64) error {
	if err := s.check(p, off); err != nil {
		return err
	}
	return s.parent.WriteAt(p, s.off+off)
}

// WriteAtv implements VectorWriter by delegating to the parent's
// vectored write (or its fallback), so the per-volume write-log
// sections carved from a shared host SSD keep single-op group commits.
func (s *Section) WriteAtv(bufs [][]byte, off int64) error {
	if total := vecLen(bufs); off < 0 || off+total > s.size {
		return fmt.Errorf("simdev: I/O [%d,%d) outside section of %d bytes", off, off+total, s.size)
	}
	return WriteVec(s.parent, s.off+off, bufs...)
}

// Flush implements Device.
func (s *Section) Flush() error { return s.parent.Flush() }

// Size implements Device.
func (s *Section) Size() int64 { return s.size }

// Metered wraps a Device, recording every operation in an
// iomodel.Meter for timing analysis.
type Metered struct {
	Dev   Device
	Meter *iomodel.Meter
}

// NewMetered wraps dev with a meter using device parameters p.
func NewMetered(dev Device, p iomodel.Params) *Metered {
	return &Metered{Dev: dev, Meter: iomodel.NewMeter(p)}
}

// ReadAt implements Device.
func (m *Metered) ReadAt(p []byte, off int64) error {
	m.Meter.Record(iomodel.OpRead, off, int64(len(p)))
	return m.Dev.ReadAt(p, off)
}

// WriteAt implements Device.
func (m *Metered) WriteAt(p []byte, off int64) error {
	m.Meter.Record(iomodel.OpWrite, off, int64(len(p)))
	return m.Dev.WriteAt(p, off)
}

// WriteAtv implements VectorWriter: a vectored batch meters as the
// single device write it is.
func (m *Metered) WriteAtv(bufs [][]byte, off int64) error {
	m.Meter.Record(iomodel.OpWrite, off, vecLen(bufs))
	return WriteVec(m.Dev, off, bufs...)
}

// Flush implements Device.
func (m *Metered) Flush() error {
	m.Meter.RecordFlush()
	return m.Dev.Flush()
}

// Size implements Device.
func (m *Metered) Size() int64 { return m.Dev.Size() }
