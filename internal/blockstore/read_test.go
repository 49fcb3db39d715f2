package blockstore

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// slowRanges delays every range GET so concurrent cold readers overlap.
func slowRanges() objstore.Store {
	rs := testrec.NewStore(objstore.NewMem())
	rs.Do(testrec.GetRanges, func(testrec.Op) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	return rs
}

// TestHeaderSingleflight: concurrent cold header readers share one
// backend fetch (the old headerL issued it under s.mu, serializing
// every lookup behind the GET and re-fetching per caller).
func TestHeaderSingleflight(t *testing.T) {
	met := objstore.NewMetered(slowRanges())
	s := newVolume(t, met, Config{})
	data := bytes.Repeat([]byte{7}, 64*1024)
	if err := s.Append(1, block.Extent{LBA: 0, Sectors: 128}, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	seq := uint32(s.Stats().NextSeq - 1)

	// Evict the header cached at install time so every caller is cold.
	s.mu.Lock()
	s.hdrCache = make(map[uint32]*hdrEntry)
	s.mu.Unlock()
	met.Reset()

	const callers = 8
	var (
		wg   sync.WaitGroup
		hdrs [callers]*hdrEntry
		errs [callers]error
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			hdrs[i], errs[i] = s.header(seq)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if hdrs[i] != hdrs[0] {
			t.Fatal("callers decoded separate header copies")
		}
	}
	if n := s.Stats().HeaderFetches; n != 1 {
		t.Fatalf("%d concurrent cold header reads did %d backend fetches, want 1", callers, n)
	}
	if got := met.Stats().GetRanges; got > 2 {
		t.Fatalf("header singleflight issued %d range GETs, want <=2 (probe + tail)", got)
	}
}

// TestFetchSpanWindowsAreWholeBlocksOfTheDataRegion: an object's header
// is padded only to a sector, so its data region starts off every 4 KiB
// boundary of the object. Windows are aligned to the data region: a
// block-aligned 8 KiB miss at a 4 KiB quantum fetches exactly its two
// blocks, a 128 KiB window starts a multiple of 128 KiB into the data,
// and a window ahead starts at the miss and ends on such a multiple.
func TestFetchSpanWindowsAreWholeBlocksOfTheDataRegion(t *testing.T) {
	s := newVolume(t, objstore.NewMem(), Config{})
	data := payload(3, 1*1024*1024)
	if err := s.Append(1, block.Extent{LBA: 0, Sectors: 2048}, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	miss := block.Extent{LBA: 37 * block.SectorsPerBlock, Sectors: 2 * block.SectorsPerBlock}
	runs := s.Lookup(miss)
	if len(runs) != 1 || !runs[0].Present {
		t.Fatalf("unexpected lookup shape: %v", runs)
	}
	s.mu.RLock()
	dataStart := block.LBA(s.objects[runs[0].Target.Obj].hdrSectors)
	s.mu.RUnlock()
	if dataStart%2 != 1 {
		t.Fatalf("header of %d sectors: the test needs an odd count", dataStart)
	}
	for _, c := range []struct {
		quantum uint32
		ahead   bool
		lo      block.LBA
		bytes   int
	}{
		{block.SectorsPerBlock, false, runs[0].Target.Off, 8 * 1024},
		{256, false, dataStart + 256, 128 * 1024},
		{256, true, runs[0].Target.Off, int((dataStart + 512 - runs[0].Target.Off).Bytes())},
	} {
		f, err := s.FetchSpan(runs, c.quantum, c.ahead)
		if err != nil {
			t.Fatal(err)
		}
		if f.Lo != c.lo || len(f.Raw) != c.bytes {
			t.Errorf("quantum %d, ahead %v: window at sector %d of %d bytes, want %d of %d (data region at %d)",
				c.quantum, c.ahead, f.Lo, len(f.Raw), c.lo, c.bytes, dataStart)
		}
		if got, err := f.Slice(runs[0]); err != nil || !bytes.Equal(got, data[miss.LBA.Bytes():][:miss.Bytes()]) {
			t.Errorf("quantum %d: demand bytes wrong (err %v)", c.quantum, err)
		}
		f.Release()
	}
}

// TestFetchSpanWindowDedup: concurrent FetchSpan calls for runs inside
// the same aligned window share one range GET, and joiners see the
// Shared flag.
func TestFetchSpanWindowDedup(t *testing.T) {
	met := objstore.NewMetered(slowRanges())
	s := newVolume(t, met, Config{FetchSem: make(chan struct{}, 8)})
	data := bytes.Repeat([]byte{9}, 256*1024)
	if err := s.Append(1, block.Extent{LBA: 0, Sectors: 512}, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	met.Reset()

	// Two disjoint 4 KiB runs, same 128 KiB window.
	const window = 256 // sectors
	runsA := s.Lookup(block.Extent{LBA: 0, Sectors: 8})
	runsB := s.Lookup(block.Extent{LBA: 64, Sectors: 8})
	if len(runsA) != 1 || !runsA[0].Present || len(runsB) != 1 || !runsB[0].Present {
		t.Fatalf("unexpected lookup shape: %v %v", runsA, runsB)
	}

	const callers = 6
	var (
		wg     sync.WaitGroup
		shared [callers]bool
		errs   [callers]error
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			runs := runsA
			if i%2 == 1 {
				runs = runsB
			}
			f, err := s.FetchSpan(runs, window, false)
			if err != nil {
				errs[i] = err
				return
			}
			defer f.Release()
			shared[i] = f.Shared
			got, err := f.Slice(runs[0])
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data[:4096]) { // uniform payload
				t.Error("window slice returned wrong bytes")
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := met.Stats().GetRanges; n != 1 {
		t.Fatalf("same-window concurrent fetches issued %d GETs, want 1", n)
	}
	nShared := 0
	for _, sh := range shared {
		if sh {
			nShared++
		}
	}
	if nShared != callers-1 {
		t.Fatalf("%d of %d fetchers joined the flight, want %d", nShared, callers, callers-1)
	}
	st := s.Stats()
	if st.FetchGETs != 1 || st.FetchesDeduped != uint64(callers-1) {
		t.Fatalf("stats: GETs=%d deduped=%d, want 1/%d", st.FetchGETs, st.FetchesDeduped, callers-1)
	}
}
