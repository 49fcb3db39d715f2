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

func (w *prefetchWindow) current() uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sectors
}

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
	h.opts.CacheDev = simdev.NewMem(coldCacheDev)
	h.reopen(t)
	return h, store
}

// dataGets returns the lengths of the data range GETs rs logged after
// stamp from.
func dataGets(rs *testrec.Store, from uint64) []int64 {
	var gets []int64
	for _, op := range rs.Log()[from:] {
		if testrec.DataRead(op) && !op.Done {
			gets = append(gets, op.Len)
		}
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

// TestWindowBacksOffOnUniformReads: once the arena is full, 8 KiB reads
// uniform over four times the arena find almost none of a 128 KiB
// window's extras before they are evicted. The window collapses and a
// miss costs about its own bytes, where the fixed window fetched 16
// times them. Until the arena is full the window stays at its ceiling:
// the extras fill empty slabs and displace nothing.
func TestWindowBacksOffOnUniformReads(t *testing.T) {
	h, store := coldVolume(t, 256)
	d := h.disk
	rng := rand.New(rand.NewSource(1))
	const blk = 8 * 1024
	uniform := func() { readAt(t, d, rng.Int63n(coldDataBytes/blk)*blk, blk) }

	fills := 0
	for ; !d.rc.Arena().Full(); fills++ {
		if got := d.window.current(); got != 256 {
			t.Fatalf("window %d sectors after %d reads, while the arena still had free slabs", got, fills)
		}
		uniform()
	}
	from, missed := store.Now(), d.Stats().BackendReadSectors
	for i := 0; i < 600; i++ {
		uniform()
	}
	var fetched int64
	for _, n := range dataGets(store, from) {
		fetched += n
	}
	missedBytes := int64(d.Stats().BackendReadSectors-missed) * block.SectorSize
	ratio := float64(fetched) / float64(missedBytes)
	t.Logf("arena full after %d reads; then %d KiB fetched for %d KiB missed (x%.2f), window %d",
		fills, fetched>>10, missedBytes>>10, ratio, d.window.current())
	if ratio > 2 {
		t.Fatalf("uniform reads on a full arena fetched %.2f bytes per missed byte, want <= 2", ratio)
	}
}

// TestWindowHoldsOnClusteredReads: a sequential re-read consumes every
// window's extras, so a full arena does not shrink the window: each GET
// halves it and the reads it saves double it back.
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

// TestConcurrentMissesShareAGetAcrossAWindowChange: the window shrinks
// after a led GET returns, not before it is issued, so a second reader
// missing on the same block while the GET is in flight computes the
// same key and joins it.
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
	if got := d.window.current(); got != 128 {
		t.Fatalf("window %d sectors after one led GET on a full arena, want 128", got)
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
