package writecache

import (
	"bytes"
	"fmt"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// Crash enumeration (DESIGN.md §5): a scripted workload
// runs once over a recording device, and then every prefix of the
// recorded write/flush trace is crashed in every way the device model
// allows at one-page depth — all unflushed 64 KiB pages kept, all lost,
// each single one lost — and opened. A record's header and payload are
// separate writes in the trace, so a prefix can hold one without the
// other.

// logged is one append of the script.
type logged struct {
	ws   uint64
	typ  journal.Type
	ext  block.Extent
	data []byte
	// dead is the stamp from which the record must never be recovered
	// again: it was unflushed when a lost page cut it off and the next
	// Open discarded it. Zero: never.
	dead uint64
}

// crashScript is the workload: two ring laps of mixed records with a
// flush every few, the backend trailing a few records behind, one
// explicit checkpoint, trims, and in the middle a lost page followed by
// a reopen that appends into the hole. Its notes in the device's log:
// "acked i" once append i returned, "destaged ws" once the cache was
// told the backend holds every write up to ws.
type crashScript struct {
	t   *testing.T
	dev *testrec.Device
	cfg Config
	c   *Cache

	log      []logged
	ws       uint64
	destaged uint64 // the newest watermark told to the cache
}

func (s *crashScript) append(typ journal.Type, sectors uint32) {
	s.t.Helper()
	s.ws++
	id := len(s.log)
	rec := logged{ws: s.ws, typ: typ, ext: block.Extent{LBA: block.LBA(id) * 256, Sectors: sectors}}
	var err error
	if typ == journal.TypeTrim {
		err = appendTrim(s.c, rec.ws, rec.ext)
	} else {
		rec.data = payload(int64(id), int(rec.ext.Bytes()))
		err = s.c.Append(rec.ws, rec.ext, rec.data)
	}
	if err != nil {
		s.t.Fatalf("append %d: %v", id, err)
	}
	s.log = append(s.log, rec)
	s.dev.Note("acked", int64(id))
}

func (s *crashScript) destage(idx int) {
	if idx < 0 {
		return
	}
	s.destaged = s.log[idx].ws
	s.c.SetDestaged(s.destaged)
	s.dev.Note("destaged", int64(s.destaged))
}

// lap appends a ring and a half of records, so the head chases the
// start for the last third of it.
func (s *crashScript) lap() {
	s.t.Helper()
	for written := int64(0); written < s.c.Stats().LogBytes*3/2; {
		i := len(s.log)
		sectors := uint32(127) // with its header sector, one crash page
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
		written += s.log[i].ext.Bytes() + hdrBytes
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
	s.append(journal.TypeData, 127)
	bOff := s.c.ring[len(s.c.ring)-1].off
	s.append(journal.TypeData, 127)
	dead := s.dev.Note("acked", int64(a))
	s.log[a+1].dead, s.log[a+2].dead = dead, dead
	if err := s.dev.WriteAt(make([]byte, block.BlockSize), bOff+2*block.BlockSize); err != nil {
		s.t.Fatal(err)
	}
	if s.c, err = Open(s.dev); err != nil {
		s.t.Fatal(err)
	}
	d := s.destaged
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

// check opens one crashed image of the trace as of the end of prefix,
// a prefix of the device's log, and returns a description of the first
// violation, or "".
func (s *crashScript) check(img simdev.Device, prefix []testrec.Op) string {
	stamp := uint64(len(prefix))
	live := func(i int) bool { return s.log[i].dead == 0 || stamp < s.log[i].dead }
	// owed: the appends this crash must give back — flushed, not
	// discarded since, and newer than what the backend holds.
	acked, durable, destaged := int64(-1), int64(-1), uint64(0)
	for _, op := range prefix {
		switch {
		case op.Kind == testrec.Note && op.Name == "acked":
			acked = op.Off
		case op.Kind == testrec.Note:
			destaged = uint64(op.Off)
		case op.Kind == testrec.Flush && op.Done:
			durable = acked
		}
	}
	var owed []int
	for i := 0; int64(i) <= durable; i++ {
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
	cfg := Config{CheckpointBytes: testrec.Page - superBytes} // the log starts on a page boundary
	size := int64(testrec.Page + 4*block.MiB)
	s := &crashScript{t: t, cfg: cfg, dev: testrec.NewDevice(simdev.NewMem(size))}
	s.run()

	// A crash point follows every completed device write and flush.
	log := s.dev.Log()
	ops := []uint64{0}
	pads, supers := 0, 0
	for _, op := range log {
		if !op.Done || (op.Kind != testrec.Write && op.Kind != testrec.Flush) {
			continue
		}
		ops = append(ops, op.Stamp)
		if h, _, err := journal.DecodeHeader(op.Data); err == nil && h.Type == journal.TypePad {
			pads++
		} else if err == nil && h.Type == journal.TypeSuper {
			supers++
		}
	}
	points, violations := 0, 0
	try := func(n int, lost []int64, what string) {
		points++
		if v := s.check(s.dev.Image(ops[n], lost), log[:ops[n]]); v != "" {
			if violations++; violations <= 5 {
				t.Errorf("crash after %d of %d device ops, %s: %s", n, len(ops)-1, what, v)
			}
		}
	}
	for n := range ops {
		try(n, nil, "every unflushed page kept")
		dirty := s.dev.Unflushed(ops[n])
		if len(dirty) == 0 {
			continue
		}
		try(n, dirty, "every unflushed page lost")
		for _, pg := range dirty {
			try(n, []int64{pg}, fmt.Sprintf("page %d lost", pg))
		}
	}
	if pads == 0 {
		t.Error("the script never wrapped the ring with a pad")
	}
	t.Logf("%d appends, %d pads, %d superblocks, %d device ops: %d crash points, %d violations",
		len(s.log), pads, supers, len(ops)-1, points, violations)
}
