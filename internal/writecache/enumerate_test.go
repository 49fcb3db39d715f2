package writecache

import (
	"bytes"
	"fmt"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// Crash enumeration (ROADMAP item 1d, first step): a scripted workload
// runs once over a recording device, and then every prefix of the
// recorded write/flush trace is crashed in every way the device model
// allows at one-page depth — all unflushed 64 KiB pages kept, all lost,
// each single one lost — and opened.

const crashPage = 64 << 10 // simdev's crash granularity

// traceOp is one device operation: a write of data at off, or a flush
// (data nil).
type traceOp struct {
	off  int64
	data []byte
}

// traceDev records the write/flush trace of the cache above it. It has
// no vectored write, so a record lands as separate header and payload
// writes and the trace can be cut between them. At every flush it notes
// the newest write the script had been acknowledged: that write is
// durable in every prefix that includes the flush.
type traceDev struct {
	simdev.Device
	ops     []traceOp
	acked   int   // index of the newest acknowledged append, -1 if none
	durable []int // per op: acked as of the newest flush in ops[:i+1]
}

func (d *traceDev) record(op traceOp, durable int) {
	d.ops = append(d.ops, op)
	d.durable = append(d.durable, durable)
}

func (d *traceDev) lastDurable() int {
	if len(d.durable) == 0 {
		return -1
	}
	return d.durable[len(d.durable)-1]
}

func (d *traceDev) WriteAt(p []byte, off int64) error {
	d.record(traceOp{off: off, data: bytes.Clone(p)}, d.lastDurable())
	return d.Device.WriteAt(p, off)
}

func (d *traceDev) Flush() error {
	d.record(traceOp{}, d.acked)
	return d.Device.Flush()
}

// imageDev is a crashed device: base, with at most one page taken from
// alt instead, under the writes of the Open that examines it.
type imageDev struct {
	base, alt []byte
	altPage   int64 // -1: none
	written   []traceOp
}

func (d *imageDev) Size() int64  { return int64(len(d.base)) }
func (d *imageDev) Flush() error { return nil }

func (d *imageDev) WriteAt(p []byte, off int64) error {
	d.written = append(d.written, traceOp{off: off, data: bytes.Clone(p)})
	return nil
}

func (d *imageDev) ReadAt(p []byte, off int64) error {
	overlay := func(src []byte, srcOff int64) {
		lo, hi := max(off, srcOff), min(off+int64(len(p)), srcOff+int64(len(src)))
		if lo < hi {
			copy(p[lo-off:hi-off], src[lo-srcOff:hi-srcOff])
		}
	}
	overlay(d.base, 0)
	if d.altPage >= 0 {
		overlay(d.alt[d.altPage*crashPage:(d.altPage+1)*crashPage], d.altPage*crashPage)
	}
	for _, w := range d.written {
		overlay(w.data, w.off)
	}
	return nil
}

// logged is one append of the script.
type logged struct {
	ws   uint64
	typ  journal.Type
	ext  block.Extent
	data []byte
	// dead is the trace length from which the record must never be
	// recovered again: it was unflushed when a lost page cut it off and
	// the next Open discarded it. Zero: never.
	dead int
}

// crashScript is the workload: two ring laps of mixed records with a
// flush every few, the backend trailing a few records behind, one
// explicit checkpoint, trims, and in the middle a lost page followed by
// a reopen that appends into the hole.
type crashScript struct {
	t   *testing.T
	dev *traceDev
	cfg Config
	c   *Cache

	log      []logged
	ws       uint64
	destaged []destageMark
}

// destageMark: from trace length at on, the cache has been told the
// backend holds every write up to ws.
type destageMark struct {
	at int
	ws uint64
}

func (s *crashScript) append(typ journal.Type, sectors uint32) {
	s.t.Helper()
	s.ws++
	id := len(s.log)
	rec := logged{ws: s.ws, typ: typ, ext: block.Extent{LBA: block.LBA(id) * 256, Sectors: sectors}}
	var err error
	if typ == journal.TypeTrim {
		err = s.c.AppendTrim(rec.ws, rec.ext)
	} else {
		rec.data = payload(int64(id), int(rec.ext.Bytes()))
		err = s.c.Append(rec.ws, rec.ext, rec.data)
	}
	if err != nil {
		s.t.Fatalf("append %d: %v", id, err)
	}
	s.log = append(s.log, rec)
	s.dev.acked = id
}

func (s *crashScript) destage(idx int) {
	if idx < 0 {
		return
	}
	s.c.SetDestaged(s.log[idx].ws)
	s.destaged = append(s.destaged, destageMark{len(s.dev.ops), s.log[idx].ws})
}

// lap appends a ring and a half of records, so the head chases the
// start for the last third of it.
func (s *crashScript) lap() {
	s.t.Helper()
	for written := int64(0); written < s.c.Stats().LogBytes*3/2; {
		i := len(s.log)
		sectors := uint32(120) // with its header, one crash page
		switch {
		case i%11 == 3:
			s.append(journal.TypeTrim, 64)
			continue
		case i%7 == 5:
			sectors = 8
		case i%5 == 1:
			sectors = 96 // records stop lining up with crash pages
		}
		s.append(journal.TypeData, sectors)
		written += s.log[i].ext.Bytes() + block.BlockSize
		if i%4 == 3 {
			if err := s.c.Flush(); err != nil {
				s.t.Fatal(err)
			}
			s.destage(i - 6)
		}
		if i == 30 {
			if err := s.c.Checkpoint(); err != nil {
				s.t.Fatal(err)
			}
		}
	}
}

func (s *crashScript) run() {
	s.t.Helper()
	var err error
	if s.c, err = Format(s.dev, s.cfg); err != nil {
		s.t.Fatal(err)
	}
	s.lap()
	evicted := s.c.Stats().Evictions

	// A flushed, B and C unflushed, one page of B lost; the Open that
	// follows discards B and C for good, and the next lap starts in the
	// hole B left.
	if err := s.c.Flush(); err != nil {
		s.t.Fatal(err)
	}
	a := len(s.log) - 1
	s.append(journal.TypeData, 120)
	bOff := s.c.ring[len(s.c.ring)-1].off
	s.append(journal.TypeData, 120)
	if err := s.dev.WriteAt(make([]byte, block.BlockSize), bOff+2*block.BlockSize); err != nil {
		s.t.Fatal(err)
	}
	s.log[a+1].dead, s.log[a+2].dead = len(s.dev.ops), len(s.dev.ops)
	s.dev.acked = a
	if s.c, err = Open(s.dev); err != nil {
		s.t.Fatal(err)
	}
	d := s.destaged[len(s.destaged)-1].ws
	if err := s.c.Reconcile(d); err != nil {
		s.t.Fatal(err)
	}
	s.ws = max(d, s.c.MaxWriteSeq())
	if s.ws != s.log[a].ws {
		s.t.Fatalf("reopen recovered up to write %d, want %d", s.ws, s.log[a].ws)
	}
	s.lap()
	if evicted == 0 || s.c.Stats().Evictions == 0 {
		s.t.Fatal("the ring did not lap on both sides of the reopen")
	}
}

// check opens one crashed image of the first n trace ops and returns a
// description of the first violation, or "".
func (s *crashScript) check(img *imageDev, n int) string {
	live := func(i int) bool { return s.log[i].dead == 0 || n < s.log[i].dead }
	// owed: the appends this crash must give back — flushed, not
	// discarded since, and newer than what the backend holds.
	var destaged uint64
	for _, d := range s.destaged {
		if d.at <= n {
			destaged = d.ws
		}
	}
	var owed []int
	for i := 0; n > 0 && i <= s.dev.durable[n-1]; i++ {
		if live(i) && s.log[i].ws > destaged {
			owed = append(owed, i)
		}
	}

	c, err := Open(img)
	if err != nil {
		if len(owed) > 0 {
			return fmt.Sprintf("Open: %v, with appends %v flushed and not destaged", err, owed)
		}
		return ""
	}
	first, last := -1, -1
	err = c.Records(func(ws uint64, typ journal.Type, ext block.Extent, data []byte) error {
		i := int(ext.LBA / 256)
		if i >= len(s.log) || !live(i) {
			return fmt.Errorf("recovered append %d, which was never logged or was discarded by an earlier recovery", i)
		}
		if want := s.log[i]; ws != want.ws || typ != want.typ || ext != want.ext || !bytes.Equal(data, want.data) {
			return fmt.Errorf("append %d recovered as write %d %v %v with other bytes", i, ws, typ, ext)
		}
		// Contiguous in what was appended, skipping the discarded.
		for j := last + 1; last >= 0 && j < i; j++ {
			if live(j) {
				return fmt.Errorf("recovered append %d after %d: not one contiguous run", i, last)
			}
		}
		if last >= i {
			return fmt.Errorf("recovered append %d after %d: out of order", i, last)
		}
		if first < 0 {
			first = i
		}
		last = i
		return nil
	})
	if err != nil {
		return err.Error()
	}
	if len(owed) > 0 && (first < 0 || first > owed[0] || last < owed[len(owed)-1]) {
		return fmt.Sprintf("recovered appends %d..%d; %v are flushed and the backend lacks them", first, last, owed)
	}
	return ""
}

func TestCrashEnumeration(t *testing.T) {
	cfg := Config{CheckpointBytes: crashPage - superBytes} // the log starts on a page boundary
	size := int64(crashPage + 4*block.MiB)
	s := &crashScript{t: t, cfg: cfg, dev: &traceDev{Device: simdev.NewMem(size), acked: -1}}
	s.run()

	// cur is the device with every write of the prefix applied, dur the
	// device as of the prefix's last flush; dirty lists the pages that
	// differ, which are the ones a crash may roll back.
	cur, dur := make([]byte, size), make([]byte, size)
	dirty := map[int64]bool{}
	points, violations := 0, 0
	try := func(n int, img *imageDev, what string) {
		points++
		if v := s.check(img, n); v != "" {
			if violations++; violations <= 5 {
				t.Errorf("crash after %d of %d device ops, %s: %s", n, len(s.dev.ops), what, v)
			}
		}
	}
	for n := 0; n <= len(s.dev.ops); n++ {
		if n > 0 {
			if op := s.dev.ops[n-1]; op.data == nil {
				for pg := range dirty {
					copy(dur[pg*crashPage:(pg+1)*crashPage], cur[pg*crashPage:])
				}
				clear(dirty)
			} else {
				copy(cur[op.off:], op.data)
				for pg := op.off / crashPage; pg*crashPage < op.off+int64(len(op.data)); pg++ {
					dirty[pg] = true
				}
			}
		}
		try(n, &imageDev{base: cur, altPage: -1}, "every unflushed page kept")
		if len(dirty) == 0 {
			continue
		}
		try(n, &imageDev{base: dur, altPage: -1}, "every unflushed page lost")
		for pg := range dirty {
			try(n, &imageDev{base: cur, alt: dur, altPage: pg}, fmt.Sprintf("page %d lost", pg))
		}
	}
	pads, supers := 0, 0
	for _, op := range s.dev.ops {
		if h, _, err := journal.DecodeHeader(op.data); err == nil && h.Type == journal.TypePad {
			pads++
		} else if err == nil && h.Type == journal.TypeSuper {
			supers++
		}
	}
	if pads == 0 {
		t.Error("the script never wrapped the ring with a pad")
	}
	t.Logf("%d appends, %d pads, %d superblocks, %d device ops: %d crash points, %d violations",
		len(s.log), pads, supers, len(s.dev.ops), points, violations)
}
