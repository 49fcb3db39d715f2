package main

import (
	"sync/atomic"
	"time"

	"lsvd/internal/iomodel"
	"lsvd/internal/nbd"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
)

// traceDev is the simdev.Device seam under both caches. It exists in
// traced runs only; untraced runs hand the program the bare device.
type traceDev struct {
	dev simdev.Device
	tr  *tracer
	// meter prices the same op stream on the paper's cache SSD (§7's
	// clock). Modelled time is reported in its own column and never
	// added to wall time.
	meter *iomodel.Meter

	writes, reads, flushes, writeBytes atomic.Uint64
	writeNS                            hist
}

func newTraceDev(dev simdev.Device, tr *tracer) *traceDev {
	return &traceDev{dev: dev, tr: tr, meter: iomodel.NewMeter(iomodel.NVMeP3700)}
}

func (d *traceDev) Size() int64 { return d.dev.Size() }

func (d *traceDev) ReadAt(p []byte, off int64) error {
	sp := d.tr.beginLeaf("simdev.read", false)
	err := d.dev.ReadAt(p, off)
	if sp.on {
		sp.end()
		d.reads.Add(1)
		d.meter.Record(iomodel.OpRead, off, int64(len(p)))
	}
	return err
}

func (d *traceDev) wrote(sp *leafSpan, off, n int64) {
	if sp.on {
		d.writeNS.add(sp.end())
		d.writes.Add(1)
		d.writeBytes.Add(uint64(n))
		d.meter.Record(iomodel.OpWrite, off, n)
	}
}

func (d *traceDev) WriteAt(p []byte, off int64) error {
	sp := d.tr.beginLeaf("simdev.write", false)
	err := d.dev.WriteAt(p, off)
	d.wrote(&sp, off, int64(len(p)))
	return err
}

// WriteAtv keeps vectored writes vectored (simdev.VectorWriter), so
// the wrapper does not change how the write cache reaches the device.
func (d *traceDev) WriteAtv(bufs [][]byte, off int64) error {
	sp := d.tr.beginLeaf("simdev.write", false)
	err := simdev.WriteVec(d.dev, off, bufs...)
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	d.wrote(&sp, off, n)
	return err
}

func (d *traceDev) Flush() error {
	sp := d.tr.beginLeaf("simdev.flush", false)
	err := d.dev.Flush()
	if sp.on {
		sp.end()
		d.flushes.Add(1)
		d.meter.RecordFlush()
	}
	return err
}

// stallNS is the write latency beyond which a write counts as stalled
// (an un-stalled 4 KiB ack is tens of microseconds).
const stallNS = int64(time.Millisecond)

// volTrace is one volume's vdisk.Disk seam, between the client (or
// the NBD server) and core.
type volTrace struct {
	tr   *tracer
	disk vdisk.Disk

	writeNS, readNS, flushNS hist
	stalls, stalledNS        atomic.Uint64

	// NBD runs: the client's open nbd.request span (0 if unsampled)
	// and whether one is open, read by the server-side handle; the
	// server-side disk call's duration, read back by the client.
	nbdReq     atomic.Uint64
	nbdOpen    atomic.Bool
	lastDiskNS atomic.Int64
	nbdSelfNS  hist
	nbdReqNS   hist
}

// diskHandle is the vdisk.Disk one goroutine uses. g is that
// goroutine's id, or 0 for the NBD server's workers, which look it up
// per call.
type diskHandle struct {
	v *volTrace
	g int64
}

func (h diskHandle) begin(name string) fgSpan {
	t := h.v.tr
	if !t.on.Load() {
		return fgSpan{}
	}
	if h.v.nbdOpen.Load() {
		parent := h.v.nbdReq.Load()
		var id uint64
		if parent != 0 {
			id = t.ids.Add(1)
		}
		return t.beginFG(name, goid(), id, parent, parent)
	}
	id := t.sampleRoot()
	return t.beginFG(name, h.g, id, 0, id)
}

func (h diskHandle) finish(f *fgSpan, into *hist) int64 {
	if !f.on {
		return 0
	}
	d := f.end()
	into.add(d)
	h.v.lastDiskNS.Store(d)
	return d
}

func (h diskHandle) Size() int64 { return h.v.disk.Size() }

func (h diskHandle) ReadAt(p []byte, off int64) error {
	f := h.begin("core.read")
	err := h.v.disk.ReadAt(p, off)
	h.finish(&f, &h.v.readNS)
	return err
}

func (h diskHandle) WriteAt(p []byte, off int64) error {
	f := h.begin("core.write")
	err := h.v.disk.WriteAt(p, off)
	if d := h.finish(&f, &h.v.writeNS); d > stallNS {
		h.v.stalls.Add(1)
		h.v.stalledNS.Add(uint64(d))
	}
	return err
}

func (h diskHandle) Flush() error {
	f := h.begin("core.flush")
	err := h.v.disk.Flush()
	h.finish(&f, &h.v.flushNS)
	return err
}

func (h diskHandle) Trim(off, length int64) error { return h.v.disk.Trim(off, length) }

// nbdHandle is the client side of a traced NBD export: it opens the
// nbd.request span the server-side core.* span hangs under, and
// splits the round trip into the disk call and everything else
// (framing, TCP, the server's worker hand-off).
type nbdHandle struct {
	v *volTrace
	c *nbd.Client
}

func (h nbdHandle) do(call func() error) error {
	t := h.v.tr
	if !t.on.Load() {
		return call()
	}
	id := t.sampleRoot()
	h.v.nbdReq.Store(id)
	h.v.nbdOpen.Store(true)
	h.v.lastDiskNS.Store(0)
	f := t.beginFG("nbd.request", 0, id, 0, id)
	err := call()
	rtt := f.end()
	h.v.nbdOpen.Store(false)
	h.v.nbdReqNS.add(rtt)
	h.v.nbdSelfNS.add(rtt - h.v.lastDiskNS.Load())
	return err
}

func (h nbdHandle) Size() int64 { return h.c.Size() }
func (h nbdHandle) ReadAt(p []byte, off int64) error {
	return h.do(func() error { return h.c.ReadAt(p, off) })
}
func (h nbdHandle) WriteAt(p []byte, off int64) error {
	return h.do(func() error { return h.c.WriteAt(p, off) })
}
func (h nbdHandle) Flush() error                 { return h.do(h.c.Flush) }
func (h nbdHandle) Trim(off, length int64) error { return h.c.Trim(off, length) }
