package writecache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/consistency"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// Crash enumeration (DESIGN.md §5): a scripted workload runs as
// testrec.Explore's one schedule at bound 0, over a device whose gate
// holds every write and flush, and each crash point of the device's log
// (testrec.Clock.Cuts) is opened. A record's header and payload are
// separate writes, so a crash can keep one without the other.

// logged is one append of the script.
type logged struct {
	ws      uint64
	typ     journal.Type
	ext     block.Extent
	version uint64 // the Writer's version of a data append, 0 for a trim
	// blocks are the Writer's whole blocks of a data append: the record
	// holds their first ext.Bytes(), and no device the rest.
	blocks []byte
	// dead is the stamp from which the record must never be recovered
	// again: it was unflushed when a lost page cut it off and the next
	// Open discarded it. Zero: never.
	dead uint64
}

// crashScript is the workload: two ring laps of mixed records with a
// flush every few, the backend trailing a few records behind, one
// explicit checkpoint, trims, and in the middle a lost page followed by
// a reopen that appends into the hole. Append i writes the stamped
// blocks of a consistency.Writer at LBA 256·i. Its notes in the device's
// log: "acked i" once append i returned, "destaged ws" once the cache
// was told the backend holds every write up to ws.
type crashScript struct {
	dev *testrec.Device
	cfg Config
	c   *Cache

	log      []logged
	ws       uint64
	destaged uint64 // the newest watermark told to the cache
	w        *consistency.Writer
	sectors  uint32 // the size of the data append w is writing
	blocks   []byte // the blocks w wrote
	mu       sync.Mutex
	checked  map[string]consistency.Report // by the appends a volume holds
}

// WriteAt appends the Writer's write as one record of s.sectors, which
// keeps the stamp at the front of each of its blocks.
func (s *crashScript) WriteAt(p []byte, off int64) error {
	ext := block.Extent{LBA: block.LBA(off >> block.SectorShift), Sectors: s.sectors}
	s.blocks = p
	return s.c.Append(s.ws, ext, p[:ext.Bytes()])
}

func (s *crashScript) ReadAt([]byte, int64) error { return errors.New("write-only") }
func (s *crashScript) Flush() error               { return nil }
func (s *crashScript) Trim(_, _ int64) error      { return nil }
func (s *crashScript) Size() int64                { return 1 << 40 }

func (s *crashScript) append(typ journal.Type, sectors uint32) error {
	s.ws++
	id := len(s.log)
	rec := logged{ws: s.ws, typ: typ, ext: block.Extent{LBA: block.LBA(id) * 256, Sectors: sectors}}
	var err error
	if typ == journal.TypeTrim {
		err = appendTrim(s.c, rec.ws, rec.ext)
	} else {
		s.sectors = sectors
		err = s.w.Write(int64(rec.ext.LBA/8), int(sectors+7)/8)
		rec.version, rec.blocks = s.w.Version(), s.blocks
	}
	if err != nil {
		return fmt.Errorf("append %d: %w", id, err)
	}
	s.log = append(s.log, rec)
	s.dev.Note("acked", int64(id))
	return nil
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
func (s *crashScript) lap() error {
	for written := int64(0); written < s.c.Stats().LogBytes*3/2; {
		i := len(s.log)
		sectors := uint32(127) // with its header sector, one crash page
		switch {
		case i%11 == 3:
			if err := s.append(journal.TypeTrim, 64); err != nil {
				return err
			}
			continue
		case i%7 == 5:
			sectors = 8
		case i%5 == 1:
			sectors = 96 // records stop lining up with crash pages
		}
		if err := s.append(journal.TypeData, sectors); err != nil {
			return err
		}
		written += s.log[i].ext.Bytes() + hdrBytes
		if i%4 == 3 {
			if err := s.c.Flush(); err != nil {
				return err
			}
			s.destage(i - 6)
		}
		if i == 30 {
			if err := s.c.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *crashScript) run() error {
	var err error
	if s.c, err = Format(s.dev, s.cfg); err != nil {
		return err
	}
	if err := s.lap(); err != nil {
		return err
	}
	evicted := s.c.Stats().Evictions

	// A flushed, B and C unflushed, one page of B lost; the Open that
	// follows discards B and C for good, and the next lap starts in the
	// hole B left.
	if err := s.c.Flush(); err != nil {
		return err
	}
	a := len(s.log) - 1
	if err := s.append(journal.TypeData, 127); err != nil {
		return err
	}
	bOff := s.c.ring[len(s.c.ring)-1].off
	if err := s.append(journal.TypeData, 127); err != nil {
		return err
	}
	dead := s.dev.Note("acked", int64(a))
	s.log[a+1].dead, s.log[a+2].dead = dead, dead
	if err := s.dev.WriteAt(make([]byte, block.BlockSize), bOff+2*block.BlockSize); err != nil {
		return err
	}
	if s.c, err = Open(s.dev); err != nil {
		return err
	}
	d := s.destaged
	if err := s.c.Reconcile(d); err != nil {
		return err
	}
	s.ws = max(d, s.c.MaxWriteSeq())
	if s.ws != s.log[a].ws {
		return fmt.Errorf("reopen recovered up to write %d, want %d", s.ws, s.log[a].ws)
	}
	s.w.Prune(s.log[a].version) // the two appends are gone for good
	if err := s.lap(); err != nil {
		return err
	}
	if evicted == 0 || s.c.Stats().Evictions == 0 {
		return errors.New("the ring did not lap on both sides of the reopen")
	}
	return nil
}

// check opens the device as a crash at cut left it, log being the
// device's, and returns the first violation, or "". The records it
// recovers must be appends as logged, in order, one contiguous run of
// them but for those an earlier recovery discarded, and reach every
// append flushed and not destaged. The volume the backend's writes and
// the recovered records make must read as a prefix of the Writer's
// writes.
func (s *crashScript) check(log []testrec.Op, cut testrec.Cut, img simdev.Device) string {
	live := func(i int) bool { return s.log[i].dead == 0 || cut.From < s.log[i].dead }
	acked, durable, destaged := int64(-1), int64(-1), uint64(0)
	for _, op := range log[:cut.From] {
		switch {
		case op.Kind == testrec.Note && op.Name == "acked":
			acked = op.Off
		case op.Kind == testrec.Note:
			destaged = uint64(op.Off)
		case op.Kind == testrec.Flush && op.Done:
			durable = acked
		}
	}
	// owed: the appends this crash must give back — flushed, not
	// discarded since, and newer than what the backend holds. holds: the
	// data appends the volume holds, those the backend holds first.
	var owed []int
	holds := make([]byte, len(s.log))
	for i, a := range s.log {
		switch {
		case !live(i):
		case a.ws > destaged && int64(i) <= durable:
			owed = append(owed, i)
		case a.ws <= destaged && a.version != 0:
			holds[i] = 1
		}
	}
	first, last := -1, -1
	c, err := Open(img)
	if err != nil && len(owed) > 0 {
		return fmt.Sprintf("Open: %v, with appends %v flushed and not destaged", err, owed)
	}
	if err == nil {
		err = c.Records(func(ws uint64, typ journal.Type, ext block.Extent, data []byte) error {
			i := int(ext.LBA / 256)
			switch {
			case i >= len(s.log) || !live(i):
				return fmt.Errorf("recovered append %d, which was never logged or was discarded by an earlier recovery", i)
			case ws != s.log[i].ws || typ != s.log[i].typ || ext != s.log[i].ext || !bytes.HasPrefix(s.log[i].blocks, data):
				return fmt.Errorf("append %d recovered as write %d %v %v with other bytes", i, ws, typ, ext)
			case i <= last:
				return fmt.Errorf("recovered append %d after %d: out of order", i, last)
			}
			for j := last + 1; last >= 0 && j < i; j++ {
				if live(j) {
					return fmt.Errorf("recovered append %d after %d: not one contiguous run", i, last)
				}
			}
			if first < 0 {
				first = i
			}
			if last = i; typ != journal.TypeTrim {
				holds[i] = 1
			}
			return nil
		})
		if err != nil {
			return err.Error()
		}
	}
	if len(owed) > 0 && (first < 0 || first > owed[0] || last < owed[len(owed)-1]) {
		return fmt.Sprintf("recovered appends %d..%d; %v are flushed and the backend lacks them", first, last, owed)
	}
	// Many crash points leave one volume: its audit is looked up.
	s.mu.Lock()
	rep, ok := s.checked[string(holds)]
	s.mu.Unlock()
	if !ok {
		vol := volume{}
		for i, a := range s.log {
			if holds[i] == 1 {
				vol.write(a.ext, a.blocks)
			}
		}
		var err error
		if rep, err = s.w.Check(vol); err != nil {
			return err.Error()
		}
		s.mu.Lock()
		s.checked[string(holds)] = rep
		s.mu.Unlock()
	}
	if !rep.Mountable {
		return fmt.Sprintf("recovered appends %d..%d: not a prefix: %v", first, last, rep.Violations)
	}
	return ""
}

// volume is a sparse volume of the records' data, by 4 KiB block, which
// the Writer reads back.
type volume map[int64][]byte

func (v volume) write(ext block.Extent, data []byte) {
	for off := int64(0); off < int64(len(data)); off += block.BlockSize {
		v[(ext.LBA.Bytes()+off)/block.BlockSize] = data[off:min(off+block.BlockSize, int64(len(data)))]
	}
}

func (v volume) ReadAt(p []byte, off int64) error {
	clear(p)
	copy(p, v[off/block.BlockSize])
	return nil
}

func (v volume) WriteAt([]byte, int64) error { return errors.New("read-only") }
func (v volume) Flush() error                { return nil }
func (v volume) Trim(_, _ int64) error       { return nil }
func (v volume) Size() int64                 { return 1 << 40 }

func TestCrashEnumeration(t *testing.T) {
	row, _ := testrec.Replay(t)
	row.Name = t.Name()
	var points, pads int
	testrec.Explore(t, row, 0, nil, func(sched []testrec.Choice) (*testrec.Schedule, error) {
		cfg := Config{CheckpointBytes: testrec.Page - superBytes} // the log starts on a page boundary
		s := &crashScript{cfg: cfg, checked: map[string]consistency.Report{}, dev: testrec.NewDevice(simdev.NewMem(testrec.Page + 4*block.MiB))}
		s.w, _ = consistency.NewWriter(s)
		sc := testrec.NewScript(s.dev.Clock)
		s.dev.Join(sc.Gate, testrec.Kinds(testrec.Write, testrec.Flush))
		run, err := sc.Run(s.run, sched, nil)
		if err != nil || run.Failed != nil {
			return run, err
		}
		log := s.dev.Log()
		for _, op := range log {
			if h, _, err := journal.DecodeHeader(op.Data); op.Kind == testrec.Write && err == nil && h.Type == journal.TypePad {
				pads++
			}
		}
		// The crash points are checked in parallel, each on an image made
		// in log order, which the device's replay needs.
		cuts := s.dev.Cuts(s.dev)
		imgs := make([]simdev.Device, len(cuts))
		for i, cut := range cuts {
			imgs[i] = s.dev.Image(cut.From, cut.Lost)
		}
		vs := make([]string, len(cuts))
		var wg sync.WaitGroup
		for w, n := 0, runtime.NumCPU(); w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(cuts); i += n {
					vs[i] = s.check(log, cuts[i], imgs[i])
					imgs[i] = nil // Open writes to it: let it go
				}
			}()
		}
		wg.Wait()
		for i, v := range vs {
			if points++; v != "" {
				run.Violations = append(run.Violations, fmt.Sprintf("crash at stamp %d, pages %v lost: %s", cuts[i].From, cuts[i].Lost, v))
			}
		}
		t.Logf("%d appends, %d pads: %d crash points, %d volumes, %d violations", len(s.log), pads, points, len(s.checked), len(run.Violations))
		return run, nil
	})
	if pads == 0 {
		t.Error("the script never wrapped the ring with a pad")
	}
}
