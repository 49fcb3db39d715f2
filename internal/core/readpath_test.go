package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

// TestConcurrentColdReadsDedupOneGET proves the singleflight window:
// N readers missing on the same cold 4 KiB at the same moment issue
// exactly one backend range GET between them.
func TestConcurrentColdReadsDedupOneGET(t *testing.T) {
	// Every range GET is slow, widening the window in which concurrent
	// readers of the same cold data race each other.
	met := objstore.NewMetered(delay(testrec.NewStore(objstore.NewMem()), testrec.GetRanges, 10*time.Millisecond))
	opts := Options{
		HostOptions: HostOptions{Store: met, CacheDev: simdev.NewMem(64 * block.MiB)},
		VolumeOptions: VolumeOptions{
			Volume:   "vol",
			VolBytes: 64 * block.MiB,
			// Window quantum of one sector: the fetch window is exactly the
			// demand run, so no header-driven extras GETs muddy the count.
			PrefetchSectors: 1,
			BatchBytes:      256 * 1024,
		},
	}
	d, err := Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	blockA := payload(1, 4096)
	blockB := payload(2, 4096)
	if err := d.WriteAt(blockA, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(blockB, 64*1024); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh cache: both blocks are cold, reads must hit the backend.
	opts.CacheDev = simdev.NewMem(64 * block.MiB)
	d, err = Open(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Warm the object-header cache with the sibling block so the
	// extras admission for the measured reads needs no header GET.
	got := make([]byte, 4096)
	if err := d.ReadAt(got, 64*1024); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blockB) {
		t.Fatal("warm-up read wrong")
	}
	d.adm.drain()
	met.Reset()
	getsBefore := d.Stats().Backend.FetchGETs

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			buf := make([]byte, 4096)
			if err := d.ReadAt(buf, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, blockA) {
				t.Error("concurrent cold read returned wrong data")
			}
			errs <- nil
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	d.adm.drain()
	if n := met.Stats().GetRanges; n != 1 {
		t.Fatalf("%d concurrent identical cold reads issued %d backend GETs, want exactly 1", readers, n)
	}
	st := d.Stats()
	if st.Backend.FetchesDeduped == 0 {
		t.Fatal("no fetch joins recorded for racing readers")
	}
	if got := st.Backend.FetchGETs - getsBefore; got != 1 {
		t.Fatalf("Stats.Backend.FetchGETs advanced by %d, want 1", got)
	}
}

// TestReadPathTorture hammers the fan-out miss path with concurrent
// readers, overwriters and trimmers. Every 4 KiB block is only ever
// written with a uniform stamp byte, so any read must come back
// uniform: a stamp that was written to that block, or zeros after a
// trim. Run under -race this validates the fetch/admit/invalidate
// interleavings.
func TestReadPathTorture(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.BatchBytes = 256 * 1024
		o.FetchDepth = 8
	})
	const (
		blocks    = 32
		blockSize = 4096
		stride    = int64(1 << 20)
	)
	// allowed[b] accumulates every stamp ever written to block b; the
	// stamp is recorded before the write is issued, so the set is
	// always a superset of what a reader may observe.
	var (
		allowedMu sync.Mutex
		allowed   [blocks]map[byte]bool
	)
	stampOf := func(b, gen int) byte { return byte(1 + (b+7*gen)%255) }
	writeBlock := func(b, gen int) error {
		st := stampOf(b, gen)
		allowedMu.Lock()
		allowed[b][st] = true
		allowedMu.Unlock()
		return h.disk.WriteAt(bytes.Repeat([]byte{st}, blockSize), int64(b)*stride)
	}
	for b := 0; b < blocks; b++ {
		allowed[b] = map[byte]bool{0: true} // trims read back as zeros
		if err := writeBlock(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	// Fresh cache so reads exercise the backend fan-out, not the warm
	// write cache alone.
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)
	for b := 0; b < blocks; b++ {
		allowed[b][0] = true
	}

	var (
		wg   sync.WaitGroup
		fail atomic.Bool
	)
	reader := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, blockSize)
		for i := 0; i < 150 && !fail.Load(); i++ {
			b := rng.Intn(blocks)
			if err := h.disk.ReadAt(buf, int64(b)*stride); err != nil {
				t.Errorf("read block %d: %v", b, err)
				fail.Store(true)
				return
			}
			st := buf[0]
			for _, c := range buf {
				if c != st {
					t.Errorf("block %d read torn: %d vs %d", b, st, c)
					fail.Store(true)
					return
				}
			}
			allowedMu.Lock()
			ok := allowed[b][st]
			allowedMu.Unlock()
			if !ok {
				t.Errorf("block %d read stamp %d that was never written", b, st)
				fail.Store(true)
				return
			}
		}
	}
	writer := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 1; i <= 60 && !fail.Load(); i++ {
			if err := writeBlock(rng.Intn(blocks), i); err != nil {
				t.Errorf("write: %v", err)
				fail.Store(true)
				return
			}
		}
	}
	trimmer := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 30 && !fail.Load(); i++ {
			b := rng.Intn(blocks)
			if err := h.disk.Trim(int64(b)*stride, blockSize); err != nil {
				t.Errorf("trim: %v", err)
				fail.Store(true)
				return
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go reader(int64(100 + g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go writer(int64(200 + g))
	}
	wg.Add(1)
	go trimmer(300)
	wg.Wait()
	if fail.Load() {
		return
	}

	// Quiesced re-check: every block still uniform and plausible.
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for b := 0; b < blocks; b++ {
		if err := h.disk.ReadAt(buf, int64(b)*stride); err != nil {
			t.Fatal(err)
		}
		st := buf[0]
		for _, c := range buf {
			if c != st {
				t.Fatalf("block %d torn after quiesce", b)
			}
		}
		if !allowed[b][st] {
			t.Fatalf("block %d holds never-written stamp %d", b, st)
		}
	}
}

// TestReadPathFaultInjected reruns a cold concurrent read workload
// against a backend that drops and delays range GETs: the retry layer
// must absorb the faults and every read must still return the exact
// destaged bytes.
func TestReadPathFaultInjected(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	opts := Options{
		HostOptions: HostOptions{
			Store:      faulty,
			CacheDev:   simdev.NewMem(128 * block.MiB),
			FetchDepth: 8,
			Retry:      objstore.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, Seed: 42},
		},
		VolumeOptions: VolumeOptions{Volume: "vol", VolBytes: 128 * block.MiB, BatchBytes: 256 * 1024},
	}
	d, err := Create(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 16
	want := make([][]byte, blocks)
	for b := 0; b < blocks; b++ {
		want[b] = payload(int64(b), 16*1024)
		if err := d.WriteAt(want[b], int64(b)*(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	opts.CacheDev = simdev.NewMem(128 * block.MiB)
	d, err = Open(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	faulty.Arm(objstore.FaultConfig{
		Seed:    7,
		Rates:   objstore.FaultRates{GetRange: 0.2},
		Latency: time.Millisecond,
	})
	defer faulty.Disarm()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 16*1024)
			for i := 0; i < 40; i++ {
				b := rng.Intn(blocks)
				if err := d.ReadAt(buf, int64(b)*(1<<20)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, want[b]) {
					t.Errorf("block %d wrong under GET faults", b)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if faulty.InjectedFaults() == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
}

// TestRunCoalescing checks that a cold fragmented sequential read is
// served with far fewer GETs than runs: adjacent runs in the same
// object ride one range request.
func TestRunCoalescing(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.BatchBytes = 2 * block.MiB
	})
	// Write every other 8 KiB chunk: the LBA gaps keep the map runs
	// from merging, while the destaged object packs the chunks back to
	// back — a cold read over the range sees many small runs that are
	// adjacent in one object.
	const chunk = 8 * 1024
	data := payload(3, 1<<20)
	for off := 0; off < len(data); off += 2 * chunk {
		if err := h.disk.WriteAt(data[off:off+chunk], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	h.opts.CacheDev = simdev.NewMem(256 * block.MiB)
	h.reopen(t)

	got := make([]byte, len(data))
	if err := h.disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(data))
	for off := 0; off < len(data); off += 2 * chunk {
		copy(want[off:off+chunk], data[off:off+chunk])
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fragmented cold read wrong")
	}
	st := h.disk.Stats()
	const chunks = (1 << 20) / (2 * chunk)
	if st.Backend.RunsCoalesced < chunks/2 {
		t.Fatalf("only %d runs coalesced on a %d-run fragmented read (GETs=%d)",
			st.Backend.RunsCoalesced, chunks, st.Backend.FetchGETs)
	}
	if st.Backend.FetchGETs > 8 {
		t.Fatalf("GET amplification too high: %d GETs for %d adjacent runs", st.Backend.FetchGETs, chunks)
	}
}

// TestAdmissionSkipsBlocksTheWriteCacheHolds: between a write's ack and
// its object's commit the map still assigns the block's old version to
// the old object, so a window fetched for a neighbour carries that old
// version as a live-looking prefetch extra. Admitting it would serve
// stale bytes once the write-cache record is evicted.
func TestAdmissionSkipsBlocksTheWriteCacheHolds(t *testing.T) {
	store := testrec.NewStore(objstore.NewMem())
	h := newHarness(t, func(o *Options) {
		o.Store = store
		o.CacheDev = simdev.NewMem(32 * block.MiB)
		o.VolBytes = 64 * block.MiB
	})
	const blk = 4096
	oldB, newB := payload(1, blk), payload(2, blk)
	// The neighbour and B, logged side by side in one object.
	if err := h.disk.WriteAt(payload(3, blk), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.WriteAt(oldB, blk); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
	h.opts.CacheDev = simdev.NewMem(32 * block.MiB) // both caches cold
	h.reopen(t)
	d := h.disk

	held := store.Park(testrec.Puts)
	if err := d.WriteAt(newB, blk); err != nil { // acknowledged, not committed
		t.Fatal(err)
	}
	got := make([]byte, blk)
	if err := d.ReadAt(got, 0); err != nil { // miss: fetches the window holding old B
		t.Fatal(err)
	}
	d.adm.drain()
	held.Release(nil)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	// Push B's record out of the write log with writes elsewhere.
	extB := block.Extent{LBA: block.LBAFromBytes(blk), Sectors: blk / block.SectorSize}
	filler := payload(4, 256*1024)
	for i := 0; i < 64; i++ {
		if err := d.WriteAt(filler, 8*block.MiB+int64(i)*int64(len(filler))); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range d.wc.Lookup(extB) {
		if r.Present {
			t.Fatalf("B still in the write cache (%v): the test evicted nothing", r)
		}
	}
	if err := d.ReadAt(got, blk); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, oldB) {
		t.Fatal("read of B returned the version its acknowledged overwrite replaced")
	}
	if !bytes.Equal(got, newB) {
		t.Fatal("read of B returned neither version")
	}
}

// TestReadCacheCountsDemandReadsOnly: admission asks the read cache what
// a fetched window would overwrite, once per prefetched extra; those
// presence checks are not reads and must not move the hit and miss
// counters the hit ratio is computed from.
func TestReadCacheCountsDemandReadsOnly(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.CacheDev = simdev.NewMem(32 * block.MiB)
		o.VolBytes = 64 * block.MiB
	})
	const blk = 16 * 1024
	for i := 0; i < 8; i++ { // one 128 KiB window, logged block by block
		if err := h.disk.WriteAt(payload(int64(i), blk), int64(i)*blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Close(); err != nil {
		t.Fatal(err)
	}
	h.opts.CacheDev = simdev.NewMem(32 * block.MiB) // both caches cold
	h.reopen(t)
	d := h.disk

	got := make([]byte, blk)
	if err := d.ReadAt(got, 3*blk); err != nil { // miss: admits the window's extras
		t.Fatal(err)
	}
	d.adm.drain()
	st := d.Stats()
	if st.PrefetchedSectors == 0 {
		t.Fatal("the miss admitted no extras: the test checks nothing")
	}
	if st.ReadCache.Hits != 0 || st.ReadCache.Misses != 1 {
		t.Fatalf("one demand miss counted as %d hits, %d misses", st.ReadCache.Hits, st.ReadCache.Misses)
	}
	if err := d.ReadAt(got, 5*blk); err != nil { // an admitted extra: a hit
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(5, blk)) {
		t.Fatal("admitted extra read back wrong")
	}
	if st := d.Stats(); st.ReadCache.Hits != 1 || st.ReadCache.Misses != 1 || st.PrefetchHitSectors == 0 {
		t.Fatalf("after one miss and one hit on prefetched data: %d hits, %d misses, %d prefetch-hit sectors",
			st.ReadCache.Hits, st.ReadCache.Misses, st.PrefetchHitSectors)
	}
}

// TestReadMissAcrossAReap: a read miss looks its blocks up in the map
// and then GETs the range with no lock held. If the object dies
// meanwhile — overwritten whole, below the checkpoint the superblock
// names — the reaper deletes it at once and the GET finds it missing.
// The read looks the blocks up again and returns the new data.
func TestReadMissAcrossAReap(t *testing.T) {
	store := testrec.NewStore(objstore.NewMem())
	h := newHarness(t, func(o *Options) {
		o.Store = store
		o.CacheDev = simdev.NewMem(32 * block.MiB)
		o.VolBytes = 64 * block.MiB
	})
	const n = 64 * 1024
	oldX, newX := payload(1, n), payload(2, n)
	if err := h.disk.WriteAt(oldX, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.disk.Close(); err != nil { // its object lies below the checkpoint Close writes
		t.Fatal(err)
	}
	h.opts.CacheDev = simdev.NewMem(32 * block.MiB) // both caches cold
	h.reopen(t)
	d := h.disk

	held := store.Park(testrec.DataRead.Once())
	got := make([]byte, n)
	read := make(chan error, 1)
	go func() { read <- d.ReadAt(got, 0) }()
	op := <-held.Arrived()

	from := store.Now()
	if err := d.WriteAt(newX, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if !store.Await(from, testrec.Deletes.Named(op.Name), 10*time.Second) {
		t.Fatalf("%s was not reaped when its last block was overwritten", op.Name)
	}
	held.Release(nil)
	if err := <-read; err != nil {
		t.Fatalf("read across the reap: %v", err)
	}
	if !bytes.Equal(got, newX) {
		t.Fatal("read across the reap did not return the data that replaced the reaped object's")
	}
}
