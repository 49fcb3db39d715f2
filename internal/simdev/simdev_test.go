package simdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"lsvd/internal/iomodel"
)

func TestMemReadWriteRoundTrip(t *testing.T) {
	d := NewMem(1 << 20)
	data := make([]byte, 12345)
	rand.New(rand.NewSource(1)).Read(data)
	if err := d.WriteAt(data, 777); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestMemUnwrittenReadsZero(t *testing.T) {
	d := NewMem(1 << 20)
	got := make([]byte, 4096)
	got[0] = 0xFF
	if err := d.ReadAt(got, 65536); err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Fatal("unwritten area not zero")
	}
}

func TestMemBoundsChecked(t *testing.T) {
	d := NewMem(4096)
	if err := d.WriteAt(make([]byte, 8192), 0); err == nil {
		t.Fatal("oversized write accepted")
	}
	if err := d.ReadAt(make([]byte, 10), 4090); err == nil {
		t.Fatal("over-the-end read accepted")
	}
	if err := d.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestMemZeroPageElision(t *testing.T) {
	d := NewMem(1 << 30)
	zeros := make([]byte, 1<<20)
	for off := int64(0); off < 1<<26; off += int64(len(zeros)) {
		if err := d.WriteAt(zeros, off); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.PagesInUse(); n != 0 {
		t.Fatalf("zero writes materialized %d pages", n)
	}
	// Non-zero then overwrite with zeros frees the page.
	if err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if d.PagesInUse() != 1 {
		t.Fatal("non-zero write did not materialize a page")
	}
	if err := d.WriteAt(zeros[:pageSize], 0); err != nil {
		t.Fatal(err)
	}
	if d.PagesInUse() != 0 {
		t.Fatal("zeroed page not released")
	}
}

func TestMemCrashLosesUnflushedWrites(t *testing.T) {
	d := NewMem(1 << 20)
	one := bytes.Repeat([]byte{1}, pageSize)
	two := bytes.Repeat([]byte{2}, pageSize)
	if err := d.WriteAt(one, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(two, 0); err != nil {
		t.Fatal(err)
	}
	if d.DirtyPages() != 1 {
		t.Fatalf("DirtyPages=%d", d.DirtyPages())
	}
	d.Crash(1.0, rand.New(rand.NewSource(1)))
	got := make([]byte, pageSize)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, one) {
		t.Fatal("crash did not roll back to flushed content")
	}
	if d.DirtyPages() != 0 {
		t.Fatal("dirty state survives crash")
	}
}

func TestMemCrashKeepsFlushedWrites(t *testing.T) {
	d := NewMem(1 << 20)
	one := bytes.Repeat([]byte{7}, pageSize)
	if err := d.WriteAt(one, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Crash(1.0, rand.New(rand.NewSource(1)))
	got := make([]byte, pageSize)
	if err := d.ReadAt(got, pageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, one) {
		t.Fatal("flushed write lost in crash")
	}
}

func TestMemCrashPartialLoss(t *testing.T) {
	d := NewMem(16 << 20)
	for i := int64(0); i < 100; i++ {
		if err := d.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, pageSize), i*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash(0.5, rand.New(rand.NewSource(42)))
	kept, lost := 0, 0
	buf := make([]byte, pageSize)
	for i := int64(0); i < 100; i++ {
		if err := d.ReadAt(buf, i*pageSize); err != nil {
			t.Fatal(err)
		}
		if buf[0] == byte(i+1) {
			kept++
		} else if buf[0] == 0 {
			lost++
		} else {
			t.Fatalf("page %d has foreign content %d", i, buf[0])
		}
	}
	if kept+lost != 100 || kept == 0 || lost == 0 {
		t.Fatalf("kept=%d lost=%d; expected a mix", kept, lost)
	}
}

func TestMemDiscard(t *testing.T) {
	d := NewMem(1 << 20)
	if err := d.WriteAt([]byte{9}, 5); err != nil {
		t.Fatal(err)
	}
	d.Discard()
	got := make([]byte, 1)
	if err := d.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("discard left data behind")
	}
}

// refDevice is the reference oracle for MemDevice's crash semantics:
// the copy-before-write implementation MemDevice used before its
// pre-images became copy-on-write. The first write to a page after a
// Flush copies the page aside, every write goes in place, and Crash
// copies pre-images back.
type refDevice struct {
	size      int64
	pages     map[int64][]byte
	preimages map[int64][]byte // page index -> content at last flush
	hasPre    map[int64]bool   // distinguishes "preimage is zero page"
}

func newRef(size int64) *refDevice {
	return &refDevice{
		size:      size,
		pages:     make(map[int64][]byte),
		preimages: make(map[int64][]byte),
		hasPre:    make(map[int64]bool),
	}
}

func (d *refDevice) Size() int64 { return d.size }

func (d *refDevice) ReadAt(p []byte, off int64) error {
	for len(p) > 0 {
		pg, po := off/pageSize, off%pageSize
		n := min(int64(len(p)), pageSize-po)
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

func (d *refDevice) WriteAt(p []byte, off int64) error {
	for len(p) > 0 {
		pg, po := off/pageSize, off%pageSize
		n := min(int64(len(p)), pageSize-po)
		d.savePreimage(pg)
		page := d.pages[pg]
		if page == nil {
			if allZero(p[:n]) {
				p = p[n:]
				off += n
				continue
			}
			page = make([]byte, pageSize)
			d.pages[pg] = page
		}
		copy(page[po:po+n], p[:n])
		if allZero(page) {
			delete(d.pages, pg)
		}
		p = p[n:]
		off += n
	}
	return nil
}

func (d *refDevice) WriteAtv(bufs [][]byte, off int64) error {
	for _, p := range bufs {
		if err := d.WriteAt(p, off); err != nil {
			return err
		}
		off += int64(len(p))
	}
	return nil
}

func (d *refDevice) savePreimage(pg int64) {
	if d.hasPre[pg] {
		return
	}
	d.hasPre[pg] = true
	if page := d.pages[pg]; page != nil {
		d.preimages[pg] = bytes.Clone(page)
	} else {
		d.preimages[pg] = nil // zero page
	}
}

func (d *refDevice) Flush() error {
	d.preimages = make(map[int64][]byte)
	d.hasPre = make(map[int64]bool)
	return nil
}

// crashAs rolls back exactly the dirty pages lost reports. Which pages
// a Crash(p, rng) with 0 < p < 1 loses depends on map iteration order,
// so the model test reads the outcome off the device under test and
// has the oracle adopt it.
func (d *refDevice) crashAs(lost func(pg int64) bool) {
	for pg := range d.hasPre {
		if !lost(pg) {
			continue
		}
		if pre := d.preimages[pg]; pre != nil {
			d.pages[pg] = bytes.Clone(pre)
		} else {
			delete(d.pages, pg)
		}
	}
	_ = d.Flush()
}

func (d *refDevice) Discard() {
	d.pages = make(map[int64][]byte)
	_ = d.Flush()
}

// page returns the content of page pg in m (zeros when absent).
func refPage(m map[int64][]byte, pg int64) []byte {
	if p := m[pg]; p != nil {
		return p
	}
	return make([]byte, pageSize)
}

// TestMemCrashModel drives MemDevice and the copy-before-write oracle
// through the same seeded stream of writes (plain and vectored, through
// two Sections whose boundary is mid-page, page-straddling, all-zero and
// mixed payloads), commit barriers, crashes at loss probability 0, 0.5
// and 1, and discards, and compares the whole device, DirtyPages and
// PagesInUse after every step.
func TestMemCrashModel(t *testing.T) {
	const (
		size  = 6*pageSize + 1000 // last page is short
		split = 2*pageSize + 12345
		seeds = 8
		steps = 400
	)
	kept, lost := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, ref := NewMem(size), newRef(size)
		var devSec, refSec [2]Device
		for i, r := range [2][2]int64{{0, split}, {split, size - split}} {
			ds, err := NewSection(dev, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			rs, err := NewSection(ref, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			devSec[i], refSec[i] = ds, rs
		}
		payload := func(n int64) []byte {
			p := make([]byte, n)
			switch rng.Intn(4) {
			case 0: // all zeros
			case 1: // zeros with one non-zero byte somewhere
				if n > 0 {
					p[rng.Int63n(n)] = byte(1 + rng.Intn(255))
				}
			default:
				rng.Read(p)
			}
			return p
		}
		got, want := make([]byte, size), make([]byte, size)
		for step := 0; step < steps; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 70:
				si := rng.Intn(2)
				secSize := devSec[si].Size()
				n := rng.Int63n(3 * pageSize)
				if rng.Intn(3) == 0 {
					n = rng.Int63n(200)
				}
				n = min(n, secSize)
				off := rng.Int63n(secSize - n + 1)
				p := payload(n)
				if r < 50 {
					op = fmt.Sprintf("WriteAt(sec%d, %d, %d)", si, off, n)
					if err := devSec[si].WriteAt(p, off); err != nil {
						t.Fatal(err)
					}
					if err := refSec[si].WriteAt(p, off); err != nil {
						t.Fatal(err)
					}
					break
				}
				var bufs [][]byte
				for len(p) > 0 {
					k := rng.Int63n(int64(len(p)) + 1)
					bufs = append(bufs, p[:k])
					p = p[k:]
				}
				op = fmt.Sprintf("WriteAtv(sec%d, %d, %d in %d)", si, off, n, len(bufs))
				if err := WriteVec(devSec[si], off, bufs...); err != nil {
					t.Fatal(err)
				}
				if err := WriteVec(refSec[si], off, bufs...); err != nil {
					t.Fatal(err)
				}
			case r < 82:
				op = "Flush"
				if err := devSec[rng.Intn(2)].Flush(); err != nil {
					t.Fatal(err)
				}
				_ = ref.Flush()
			case r < 97:
				prob := []float64{0, 0.5, 1}[rng.Intn(3)]
				op = fmt.Sprintf("Crash(%v)", prob)
				dev.Crash(prob, rng)
				if err := dev.ReadAt(got, 0); err != nil {
					t.Fatal(err)
				}
				ref.crashAs(func(pg int64) bool {
					if prob != 0.5 {
						return prob == 1
					}
					end := min((pg+1)*pageSize, size)
					now := got[pg*pageSize : end]
					cur, pre := refPage(ref.pages, pg), refPage(ref.preimages, pg)
					isCur, isPre := bytes.Equal(now, cur[:len(now)]), bytes.Equal(now, pre[:len(now)])
					if !isCur && !isPre {
						t.Fatalf("seed %d step %d: %s left page %d neither as written nor as flushed", seed, step, op, pg)
					}
					if isCur != isPre {
						if isPre {
							lost++
						} else {
							kept++
						}
					}
					return isPre
				})
			default:
				op = "Discard"
				dev.Discard()
				ref.Discard()
			}

			if err := dev.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			_ = ref.ReadAt(want, 0)
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d step %d: after %s device differs from oracle at byte %d (page %d)", seed, step, op, i, i/pageSize)
			}
			if g, w := dev.DirtyPages(), len(ref.hasPre); g != w {
				t.Fatalf("seed %d step %d: after %s DirtyPages=%d, oracle %d", seed, step, op, g, w)
			}
			if g, w := dev.PagesInUse(), len(ref.pages); g != w {
				t.Fatalf("seed %d step %d: after %s PagesInUse=%d, oracle %d", seed, step, op, g, w)
			}
			// No page may be reachable twice: a pre-image that is also
			// live, or a free page that is still referenced, would be
			// overwritten behind the device's back.
			seen := make(map[*byte]string)
			for where, set := range map[string]map[int64][]byte{"pages": dev.pages, "preimages": dev.preimages} {
				for pg, page := range set {
					if page == nil {
						continue
					}
					if prev, dup := seen[&page[0]]; dup {
						t.Fatalf("seed %d step %d: after %s page %d of %s aliases %s", seed, step, op, pg, where, prev)
					}
					seen[&page[0]] = where
				}
			}
			for _, page := range dev.free {
				if prev, dup := seen[&page[0]]; dup {
					t.Fatalf("seed %d step %d: after %s a free page aliases %s", seed, step, op, prev)
				}
				seen[&page[0]] = "free"
			}
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("Crash(0.5) kept %d and lost %d distinguishable pages; expected a mix", kept, lost)
	}
}

// TestMemZeroWritesKeepNoRAM checks the sparse-RAM property the
// multi-GiB experiment volumes rely on: a gigabyte of zero payload
// materializes nothing and recycles nothing, and zeroing a region that
// did hold data leaves at most the bounded free list behind.
func TestMemZeroWritesKeepNoRAM(t *testing.T) {
	d := NewMem(1 << 30)
	zeros := make([]byte, 1<<20)
	zeroFill := func(end int64) {
		t.Helper()
		for off := int64(0); off < end; off += int64(len(zeros)) {
			if err := d.WriteAt(zeros, off); err != nil {
				t.Fatal(err)
			}
			if off%(64<<20) == 0 {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	zeroFill(d.Size())
	if n, f := d.PagesInUse(), len(d.free); n != 0 || f != 0 {
		t.Fatalf("1 GiB of zeros left %d pages in use and %d on the free list", n, f)
	}

	const held = 2 * maxFreePages * pageSize
	ones := bytes.Repeat([]byte{1}, 1<<20)
	for off := int64(0); off < held; off += int64(len(ones)) {
		if err := d.WriteAt(ones, off); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.PagesInUse(); n != 2*maxFreePages {
		t.Fatalf("PagesInUse=%d after writing %d pages", n, 2*maxFreePages)
	}
	zeroFill(held)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, f := d.PagesInUse(), len(d.free); n != 0 || f > maxFreePages {
		t.Fatalf("zeroing left %d pages in use and %d on the free list (cap %d)", n, f, maxFreePages)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Size() != 1<<20 {
		t.Fatalf("size %d", d.Size())
	}
	data := []byte("hello block device")
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file round trip mismatch")
	}
	st, _ := os.Stat(path)
	if st.Size() != 1<<20 {
		t.Fatalf("file size %d", st.Size())
	}
}

func TestMeteredCountsOps(t *testing.T) {
	d := NewMetered(NewMem(1<<24), iomodel.NVMeP3700)
	buf := make([]byte, 4096)
	// Three sequential writes merge into one effective op.
	for i := int64(0); i < 3; i++ {
		if err := d.WriteAt(buf, i*4096); err != nil {
			t.Fatal(err)
		}
	}
	// A distant write starts a new run.
	if err := d.WriteAt(buf, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	c := d.Meter.Snapshot()
	if c.WriteOps != 4 || c.WriteEffOps != 2 || c.WriteBytes != 4*4096 || c.Flushes != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestMeteredElapsedBounds(t *testing.T) {
	p := iomodel.NVMeP3700
	// 90K random 4K writes at the device's rated IOPS is ~1 s.
	c := iomodel.Counters{WriteEffOps: 90_000, WriteBytes: 90_000 * 4096}
	e := iomodel.Elapsed(p, c, 32)
	if e.Seconds() < 0.9 || e.Seconds() > 1.1 {
		t.Fatalf("90K 4K writes modeled at %v, want ~1s", e)
	}
	// 1.9 GB sequential (one effective op per 512K) is ~1 s bandwidth-bound.
	c = iomodel.Counters{WriteEffOps: 3800, WriteBytes: 1_900_000_000}
	e = iomodel.Elapsed(p, c, 32)
	if e.Seconds() < 0.9 || e.Seconds() > 1.1 {
		t.Fatalf("1.9GB sequential modeled at %v, want ~1s", e)
	}
	// Low queue depth is latency-bound: 1000 ops at QD1 ~ 64ms.
	c = iomodel.Counters{WriteEffOps: 1000, WriteBytes: 1000 * 4096}
	e = iomodel.Elapsed(p, c, 1)
	if e < 50*1e6 || e > 80*1e6 {
		t.Fatalf("QD1 writes modeled at %v", e)
	}
}

func TestSizeHistogram(t *testing.T) {
	h := iomodel.NewSizeHistogram()
	h.Record(4096)
	h.Record(4096)
	h.Record(1 << 20)
	rows := h.Buckets()
	if len(rows) != 2 || rows[0].Low != 4096 || rows[0].Count != 2 || rows[1].Low != 1<<20 {
		t.Fatalf("rows %+v", rows)
	}
	h2 := iomodel.NewSizeHistogram()
	h2.Record(4096)
	h.Merge(h2)
	if h.Buckets()[0].Count != 3 {
		t.Fatal("merge failed")
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := iomodel.Counters{ReadOps: 10, WriteOps: 20, ReadBytes: 100, WriteBytes: 200, Flushes: 1}
	b := iomodel.Counters{ReadOps: 4, WriteOps: 5, ReadBytes: 40, WriteBytes: 50}
	d := a.Sub(b)
	if d.ReadOps != 6 || d.WriteOps != 15 || d.ReadBytes != 60 || d.WriteBytes != 150 || d.Flushes != 1 {
		t.Fatalf("sub %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Fatalf("add %+v != %+v", s, a)
	}
}

// TestConcurrentMemAccess has readers overlap the moments a page is
// replaced: a first write after a Flush (the page moves to the
// pre-images and a recycled one takes its place), Flush (pre-images go
// to the free list) and Crash (pre-images move back). Every writer
// stamps whole 4 KiB blocks of its own region with one byte, so any
// block a reader sees must be uniform and either that byte or zero.
func TestConcurrentMemAccess(t *testing.T) {
	const (
		writers = 4
		region  = 4 << 20
		blk     = 4096
	)
	d := NewMem(writers * region)
	uniform := func(rd []byte, want byte) error {
		if rd[0] != 0 && rd[0] != want {
			return fmt.Errorf("block holds %d, want 0 or %d", rd[0], want)
		}
		if !bytes.Equal(rd, bytes.Repeat(rd[:1], len(rd))) {
			return fmt.Errorf("torn block for writer %d", want)
		}
		return nil
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bgErr := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		bg.Add(1)
		go func(g int) { // reader of writer g's region
			defer bg.Done()
			rd := make([]byte, blk)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := d.ReadAt(rd, int64(g)*region+int64(i%64)*blk); err != nil {
					bgErr <- err
					return
				}
				if err := uniform(rd, byte(g+1)); err != nil {
					bgErr <- err
					return
				}
			}
		}(g)
	}
	bg.Add(1)
	go func() { // commit barriers and power failures
		defer bg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 2 {
				d.Crash(0.5, rng)
			} else if err := d.Flush(); err != nil {
				bgErr <- err
				return
			}
		}
	}()

	done := make(chan error, writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			buf := bytes.Repeat([]byte{byte(g + 1)}, blk)
			rd := make([]byte, blk)
			for i := 0; i < 500; i++ {
				off := int64(g)*region + int64(i%64)*blk
				if err := d.WriteAt(buf, off); err != nil {
					done <- err
					return
				}
				if err := d.ReadAt(rd, off); err != nil {
					done <- err
					return
				}
				if err := uniform(rd, byte(g+1)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < writers; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	bg.Wait()
	close(bgErr)
	for err := range bgErr {
		t.Error(err)
	}
}

func BenchmarkMemWrite4K(b *testing.B) {
	d := NewMem(1 << 30)
	buf := bytes.Repeat([]byte{0xA5}, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, int64(i%(1<<18))*4096); err != nil {
			b.Fatal(err)
		}
	}
}
