package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

const (
	coldDataBytes = 48 * block.MiB
	coldCacheDev  = 16 * block.MiB // 30 % write log, a 10 MiB read arena
)

// coldVolume writes coldDataBytes sequentially, then reopens the volume
// on a fresh 16 MiB cache device, so every read starts as a miss and the
// read arena fills after about 10 MiB of fetches.
func coldVolume(t *testing.T, ceiling uint32) (*harness, *testrec.Store) {
	t.Helper()
	store := testrec.NewStore(objstore.NewMem())
	h := newHarness(t, func(o *Options) {
		o.Store = store
		o.WriteCacheFrac = 0.3
		o.VolBytes = 64 * block.MiB
		o.PrefetchSectors = ceiling
		o.GCLowWater = -1
	})
	chunk := payload(1, 64*1024)
	for off := int64(0); off < coldDataBytes; off += int64(len(chunk)) {
		if err := h.disk.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
	h.opts.Cache = simdev.NewMem(coldCacheDev)
	h.reopen(t)
	return h, store
}

// dataGetOps returns the data range GETs rs logged after stamp from.
func dataGetOps(rs *testrec.Store, from uint64) []testrec.Op {
	var gets []testrec.Op
	for _, op := range rs.Log()[from:] {
		if testrec.DataRead(op) && !op.Done {
			gets = append(gets, op)
		}
	}
	return gets
}

// dataGets returns the lengths of the data range GETs rs logged after
// stamp from.
func dataGets(rs *testrec.Store, from uint64) []int64 {
	var gets []int64
	for _, op := range dataGetOps(rs, from) {
		gets = append(gets, op.Len)
	}
	return gets
}

// readAt reads n bytes at off and waits for the admission it queued, so
// every step sees the read cache its predecessors left.
func readAt(t *testing.T, d *Disk, off int64, n int) {
	t.Helper()
	buf := make([]byte, n)
	if err := d.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	chunk := payload(1, 64*1024)
	if want := chunk[off%int64(len(chunk)):][:n]; !bytes.Equal(buf, want) {
		t.Fatalf("read at %d returned wrong bytes", off)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
}

// fetchedBytes sums the lengths of the data GETs rs logged after stamp
// from.
func fetchedBytes(rs *testrec.Store, from uint64) int64 {
	var n int64
	for _, g := range dataGets(rs, from) {
		n += g
	}
	return n
}

// fillArena reads 8 KiB blocks uniformly until the read arena is full.
// Every miss until then fetches a ceiling window: the extras fill empty
// slabs and displace nothing. A window is 128 KiB unless it is clamped
// at the end of an 8 MiB object's data region, which only the one
// window that reaches it can be.
func fillArena(t *testing.T, d *Disk, store *testrec.Store, rng *rand.Rand) {
	t.Helper()
	const blk, ceiling = 8 * 1024, 128 * 1024
	from := store.Now()
	for !d.rc.Arena().Full() {
		readAt(t, d, rng.Int63n(coldDataBytes/blk)*blk, blk)
	}
	clamped := map[string]bool{}
	for _, op := range dataGetOps(store, from) {
		if op.Len > ceiling || op.Len < ceiling && clamped[op.Name] {
			t.Fatalf("GET of %d KiB at %d of %s while the arena had free slabs, want a %d KiB window",
				op.Len>>10, op.Off, op.Name, ceiling>>10)
		}
		clamped[op.Name] = clamped[op.Name] || op.Len < ceiling
	}
}

// TestWindowBacksOffOnUniformReads: once the arena is full, 8 KiB reads
// uniform over four times the arena continue no stream, so each miss
// fetches its own two blocks and no more, where a fixed 128 KiB window
// fetched 16 times them.
func TestWindowBacksOffOnUniformReads(t *testing.T) {
	h, store := coldVolume(t, 256)
	d := h.disk
	rng := rand.New(rand.NewSource(1))
	fillArena(t, d, store, rng)
	const blk = 8 * 1024
	from, missed := store.Now(), d.Stats().BackendReadSectors
	for i := 0; i < 600; i++ {
		readAt(t, d, rng.Int63n(coldDataBytes/blk)*blk, blk)
	}
	fetched := fetchedBytes(store, from)
	missedBytes := int64(d.Stats().BackendReadSectors-missed) * block.SectorSize
	ratio := float64(fetched) / float64(missedBytes)
	t.Logf("%d KiB fetched for %d KiB missed on a full arena (x%.2f)", fetched>>10, missedBytes>>10, ratio)
	if ratio > 1.1 {
		t.Fatalf("uniform reads on a full arena fetched %.2f bytes per missed byte, want <= 1.1", ratio)
	}
}

// TestSequentialScanAfterUniformReads: uniform reads fill the arena and
// leave every miss fetching only its own blocks; a sequential scan that
// follows still gets ceiling windows. Its second read starts where the
// first one's window ended, and each window after that starts where the
// last ended, so the scan costs about one GET per 128 KiB, not one per
// read. A window reaches only ahead of the stream, so no GET fetches a
// byte an earlier one brought, and none is wider than the ceiling plus
// the read that starts it.
func TestSequentialScanAfterUniformReads(t *testing.T) {
	h, store := coldVolume(t, 256)
	d := h.disk
	rng := rand.New(rand.NewSource(2))
	fillArena(t, d, store, rng)
	const blk = 8 * 1024
	for i := 0; i < 200; i++ {
		readAt(t, d, rng.Int63n(coldDataBytes/blk)*blk, blk)
	}
	const scan, step = 8 * block.MiB, 16 * 1024
	from := store.Now()
	for off := int64(16 * block.MiB); off < 16*block.MiB+scan; off += step {
		readAt(t, d, off, step)
	}
	gets := dataGetOps(store, from)
	t.Logf("%d KiB scan in %d KiB reads: %d GETs, %d KiB fetched", scan>>10, step>>10, len(gets), fetchedBytes(store, from)>>10)
	if len(gets) > 70 {
		t.Fatalf("a %d KiB scan on a full arena made %d GETs, want <= 70", scan>>10, len(gets))
	}
	for i, g := range gets {
		if g.Len > 128*1024+step {
			t.Errorf("scan GET of %d KiB at %d of %s, want <= %d KiB", g.Len>>10, g.Off, g.Name, (128*1024+step)>>10)
		}
		for _, e := range gets[:i] {
			if e.Name == g.Name && e.Off < g.Off+g.Len && g.Off < e.Off+e.Len {
				t.Errorf("scan GET [%d,+%d) of %s fetches again bytes of GET [%d,+%d)", g.Off, g.Len, g.Name, e.Off, e.Len)
			}
		}
	}
}

// TestWindowHoldsOnClusteredReads: a sequential re-read on a full arena
// is one stream, so every window after the first starts where the last
// one ended and fetches the ceiling.
func TestWindowHoldsOnClusteredReads(t *testing.T) {
	h, store := coldVolume(t, 256)
	d := h.disk
	const blk = 16 * 1024
	off := int64(0)
	for ; !d.rc.Arena().Full(); off += blk {
		readAt(t, d, off, blk)
	}
	from := store.Now()
	region := coldDataBytes - off
	for ; off < coldDataBytes; off += blk {
		readAt(t, d, off, blk)
	}
	// One 128 KiB window per GET, plus a couple of clamped ones at the
	// edges of each 8 MiB object's data region. A window stuck at half
	// the ceiling would need twice the GETs.
	gets := dataGets(store, from)
	objects := int(region/(8*block.MiB)) + 2
	if limit := int(region/(128*1024)) + 2*objects; len(gets) > limit {
		t.Fatalf("clustered re-read of %d KiB on a full arena made %d GETs, want <= %d", region>>10, len(gets), limit)
	}
}

// TestConcurrentMissesShareAGetAcrossAWindowChange: the stream records
// a led window after its GET returns, not before it is issued,
// so a second reader missing on the same block while the GET is in
// flight computes the same key and joins it.
func TestConcurrentMissesShareAGetAcrossAWindowChange(t *testing.T) {
	h, store := coldVolume(t, 256)
	d := h.disk
	const blk = 16 * 1024
	off := int64(0)
	for ; !d.rc.Arena().Full(); off += blk {
		readAt(t, d, off, blk)
	}
	off += 1 * block.MiB // a block no window has touched
	before := d.Stats().Backend
	from := store.Now()

	p := store.Park(testrec.DataRead.Once())
	var wg sync.WaitGroup
	errs := make([]error, 2)
	read := func(i int) {
		defer wg.Done()
		errs[i] = d.ReadAt(make([]byte, blk), off)
	}
	wg.Add(1)
	go read(0)
	<-p.Arrived()
	wg.Add(1)
	go read(1)
	waitFor(t, "the second reader to join the parked GET", joinedFlight)
	p.Release(nil)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	after := d.Stats().Backend
	if gets := dataGets(store, from); len(gets) != 1 || after.FetchesDeduped-before.FetchesDeduped != 1 {
		t.Fatalf("two concurrent misses on one block: %d data GETs, %d joins; want 1 and 1",
			len(gets), after.FetchesDeduped-before.FetchesDeduped)
	}
	run := d.bs.Lookup(block.Extent{LBA: block.LBAFromBytes(off), Sectors: blk / block.SectorSize})[0]
	d.stream.mu.Lock()
	obj, end := d.stream.obj, d.stream.end
	d.stream.mu.Unlock()
	if want := run.Target.Off + blk/block.SectorSize; obj != run.Target.Obj || end != want {
		t.Fatalf("stream ends at %d of object %d after one led GET of a block no stream reached, want %d of %d",
			end, obj, want, run.Target.Obj)
	}
}

// joinedFlight reports whether some goroutine is waiting in FetchSpan
// for a GET another reader issued (the issuer itself waits inside the
// store's GetRange).
func joinedFlight() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "blockstore.(*Store).FetchSpan") && !strings.Contains(g, "GetRange") &&
			strings.Contains(g, "[chan receive") {
			return true
		}
	}
	return false
}

// TestWindowOfOneSectorFetchesOnlyTheRequest: PrefetchSectors 1, the
// prefetch ablation's "off", never widens a GET past the demand run.
func TestWindowOfOneSectorFetchesOnlyTheRequest(t *testing.T) {
	h, store := coldVolume(t, 1)
	d := h.disk
	const blk = 16 * 1024
	for off := int64(0); off < 16*block.MiB; off += blk {
		readAt(t, d, off, blk)
	}
	if !d.rc.Arena().Full() {
		t.Fatal("16 MiB of reads did not fill the arena: the test checks half of what it should")
	}
	gets := dataGets(store, 0)
	if reads := int(16 * block.MiB / blk); len(gets) != reads {
		t.Fatalf("%d data GETs for %d reads", len(gets), reads)
	}
	for i, n := range gets {
		if n != blk {
			t.Fatalf("GET %d fetched %d bytes for a %d-byte read", i, n, blk)
		}
	}
}
