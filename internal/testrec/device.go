package testrec

import (
	"fmt"
	"maps"
	"sync"

	"lsvd/internal/simdev"
)

// Page is the crash granularity of simdev.MemDevice: a crash keeps or
// loses each page written since the last flush as a whole.
const Page = 64 << 10

// Device is a recording simdev.Device over a zeroed one. It logs the
// bytes of every write, so Image can rebuild the device as of any stamp.
// It has no vectored write: simdev.WriteVec hands it each buffer of a
// vector as a write of its own, so a trace can be cut between a
// record's header and its payload.
type Device struct {
	recorder
	inner simdev.Device

	mu     sync.Mutex
	replay *replay // the newest Image's, reused by a later stamp
}

// NewDevice records inner's operations on a clock of its own; set Clock
// before the first operation to share another's.
func NewDevice(inner simdev.Device) *Device {
	return &Device{recorder: recorder{Clock: NewClock(), Keep: true}, inner: inner}
}

// Size implements simdev.Device.
func (d *Device) Size() int64 { return d.inner.Size() }

// ReadAt implements simdev.Device; reads are not logged.
func (d *Device) ReadAt(p []byte, off int64) error { return d.inner.ReadAt(p, off) }

// WriteAt implements simdev.Device.
func (d *Device) WriteAt(p []byte, off int64) error {
	return d.do(Op{Kind: Write, Off: off, Len: int64(len(p))}, [][]byte{p}, func() error { return d.inner.WriteAt(p, off) })
}

// Flush implements simdev.Device.
func (d *Device) Flush() error { return d.do(Op{Kind: Flush}, nil, d.inner.Flush) }

// Image returns the device as of stamp, crashed with the named pages
// lost: each loses every write since the last flush, as
// simdev.MemDevice.Crash rolls a page back. Writes to the image stay in
// it.
func (d *Device) Image(stamp uint64, lost []int64) simdev.Device {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.replayTo(stamp)
	img := &image{size: r.cur.size, pages: maps.Clone(r.cur.pages)}
	for _, pg := range lost {
		if r.dirty[pg] {
			img.pages[pg] = r.flushed[pg]
		}
	}
	return img
}

// Unflushed returns the pages written since the last flush as of stamp,
// in ascending order: the ones a crash there may lose.
func (d *Device) Unflushed(stamp uint64) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.replayTo(stamp)
	var pages []int64
	for pg := int64(0); pg*Page < r.cur.size; pg++ {
		if r.dirty[pg] {
			pages = append(pages, pg)
		}
	}
	return pages
}

// replay is the device rebuilt from the log up to at: cur holds every
// completed write, flushed the pages as of the newest flush, and dirty
// the pages written since.
type replay struct {
	at      uint64
	cur     *image
	flushed map[int64][]byte
	dirty   map[int64]bool
}

// replayTo advances the cached replay to stamp, or starts over when
// stamp is behind it.
func (d *Device) replayTo(stamp uint64) *replay {
	r := d.replay
	if r == nil || r.at > stamp {
		r = &replay{cur: &image{size: d.inner.Size(), pages: map[int64][]byte{}}, dirty: map[int64]bool{}}
		d.replay = r
	}
	log := d.upTo(stamp)
	for _, op := range log[r.at:] {
		if op.src != &d.recorder || !op.Done || op.Err != nil {
			continue
		}
		switch op.Kind {
		case Write:
			_ = r.cur.WriteAt(op.Data, op.Off) // in range: the device took it
			for pg := op.Off / Page; pg*Page < op.Off+op.Len; pg++ {
				r.dirty[pg] = true
			}
		case Flush:
			r.flushed = maps.Clone(r.cur.pages)
			clear(r.dirty)
		}
	}
	r.at = uint64(len(log))
	return r
}

// image is a sparse device whose pages never change once stored: a
// write replaces the pages it touches, so images share pages freely. A
// missing page reads as zeros.
type image struct {
	size  int64
	pages map[int64][]byte
}

func (m *image) Size() int64  { return m.size }
func (m *image) Flush() error { return nil }

func (m *image) ReadAt(p []byte, off int64) error {
	return m.each(p, off, func(pg, po int64, p []byte) {
		if page := m.pages[pg]; page != nil {
			copy(p, page[po:])
		} else {
			clear(p)
		}
	})
}

func (m *image) WriteAt(p []byte, off int64) error {
	return m.each(p, off, func(pg, po int64, p []byte) {
		page := make([]byte, Page)
		copy(page, m.pages[pg])
		copy(page[po:], p)
		m.pages[pg] = page
	})
}

// each calls fn for the part of p on each page [off, off+len(p)) spans.
func (m *image) each(p []byte, off int64, fn func(pg, po int64, p []byte)) error {
	if off < 0 || off+int64(len(p)) > m.size {
		return fmt.Errorf("testrec: I/O [%d,%d) outside device of %d bytes", off, off+int64(len(p)), m.size)
	}
	for len(p) > 0 {
		pg, po := off/Page, off%Page
		n := min(int64(len(p)), Page-po)
		fn(pg, po, p[:n])
		p, off = p[n:], off+n
	}
	return nil
}
