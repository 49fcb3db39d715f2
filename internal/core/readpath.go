// Parallel read-miss pipeline (paper §3.2, Fig 6/7): the misses one
// ReadAt still has after the write and read caches are looked up in
// the block store, coalesced into per-object spans, and fetched by a
// pool of up to Options.FetchDepth concurrent backend range GETs that
// scatter directly into the caller's buffer. The fetch worker admits
// the demand runs into the read cache itself — that keeps the
// read-then-read-again hit guarantee deterministic and the cost is
// overlapped with the other spans' GETs — while the expensive part of
// admission, decoding the object header and inserting the
// temporal-prefetch extras, happens afterwards on a background
// admitter goroutine, off the ack path; the fetched window stays
// joinable in the block store's flight table until that admission
// completes, so a reader arriving in between shares the bytes instead
// of re-issuing the GET.
//
// Consistency rests on one order: epoch, then write cache, then map.
// ReadAt records the rcGen epoch before it looks in the write cache,
// every writer bumps the epoch (after its record is readable there)
// before invalidating the read cache, and both admissions drop their
// own inserts if the epoch moved — so a fetch that raced an overwrite
// can never linger in the read cache. A write acknowledged before the
// epoch was recorded is covered by the order of the other two: its
// block's old version stays mapped until the write's object commits,
// but its record leaves the write cache only after that commit, so
// data the write cache did not hold when asked, and the map still
// assigns to the fetched object when walked afterwards, is not stale.
// The demand runs are what ReadAt's own write-cache lookup missed; the
// prefetch extras were never looked up, so admit hands WindowExtras the
// write cache to ask before its map walk. Scattering into p needs no
// locks: spans cover disjoint regions of the one read's buffer.
package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
	"lsvd/internal/objstore"
)

// spanGapSectors is the largest object-offset gap between two runs
// folded into one span: fetching up to 32 KiB of dead bytes beats a
// second backend round trip.
const spanGapSectors = 64

// span is a group of present runs in one object close enough together
// to serve with a single range GET.
type span struct {
	runs   []extmap.Run
	lo, hi block.LBA // object sector range covered
}

// readBackend serves one ReadAt's read-cache misses from the block
// store. A concurrent GC can delete an object between the map lookup
// and the range GET; by then the map has moved on to the relocated
// copy, so the affected virtual ranges are looked up afresh and
// retried.
func (d *Disk) readBackend(ext block.Extent, misses []block.Extent, p []byte, epoch uint64) error {
	const maxRetries = 3
	for attempt := 0; ; attempt++ {
		retry, err := d.fetchMisses(ext, misses, p, epoch)
		if err == nil || attempt >= maxRetries {
			return err
		}
		if !errors.Is(err, objstore.ErrNotFound) || len(retry) == 0 {
			return err
		}
		misses = retry
	}
}

// fetchMisses runs one attempt: lookup, zero-fill, span building and
// the concurrent fan-out. On ErrNotFound it returns the virtual
// extents whose objects vanished (for re-lookup by the caller); any
// other error wins over ErrNotFound.
func (d *Disk) fetchMisses(ext block.Extent, misses []block.Extent, p []byte, epoch uint64) ([]block.Extent, error) {
	runs := make([]extmap.Run, 0, 2*len(misses))
	for _, miss := range misses {
		runs = d.bs.LookupInto(runs, miss)
	}
	present := 0
	for _, run := range runs {
		if run.Present {
			runs[present] = run
			present++
			continue
		}
		sub := p[(run.LBA - ext.LBA).Bytes():][:run.Bytes()]
		clear(sub)
		d.c.zeroFillSectors.Add(uint64(run.Sectors))
	}
	runs = runs[:present]
	if len(runs) == 0 {
		return nil, nil
	}
	spans := buildSpans(runs)

	workers := d.opts.FetchDepth
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers <= 1 {
		return d.fetchSpansSerial(ext, spans, p, epoch)
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		retry    []block.Extent
		firstErr error
		notFound error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		invariant.Go("core-fetch-worker", func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				if err := d.fetchSpan(ext, spans[i], p, epoch); err != nil {
					mu.Lock()
					if errors.Is(err, objstore.ErrNotFound) {
						notFound = err
						for _, r := range spans[i].runs {
							retry = append(retry, r.Extent)
						}
					} else if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return retry, notFound
}

// fetchSpansSerial is the workers<=1 path without goroutine overhead;
// backend GETs are still bounded by the store-wide fetcher pool.
func (d *Disk) fetchSpansSerial(ext block.Extent, spans []span, p []byte, epoch uint64) ([]block.Extent, error) {
	var retry []block.Extent
	var notFound error
	for _, sp := range spans {
		if err := d.fetchSpan(ext, sp, p, epoch); err != nil {
			if errors.Is(err, objstore.ErrNotFound) {
				notFound = err
				for _, r := range sp.runs {
					retry = append(retry, r.Extent)
				}
				continue
			}
			return nil, err
		}
	}
	return retry, notFound
}

// buildSpans orders the present runs by object position and coalesces
// neighbors (gap <= spanGapSectors, same object) into spans.
func buildSpans(runs []extmap.Run) []span {
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i].Target, runs[j].Target
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		return a.Off < b.Off
	})
	var spans []span
	for _, r := range runs {
		rl := r.Target.Off
		rh := rl + block.LBA(r.Sectors)
		if n := len(spans); n > 0 {
			last := &spans[n-1]
			if last.runs[0].Target.Obj == r.Target.Obj && rl <= last.hi+spanGapSectors {
				last.runs = append(last.runs, r)
				if rh > last.hi {
					last.hi = rh
				}
				continue
			}
		}
		spans = append(spans, span{runs: []extmap.Run{r}, lo: rl, hi: rh})
	}
	return spans
}

// fetchSpan fetches one span's window (or joins another reader's
// in-flight fetch of it), scatters the demand runs into p, admits them
// into the read cache, and hands the window to the admitter for the
// prefetch extras. Only the fetch leader enqueues extras and records
// the window's end: a shared window is already owned by its leader.
func (d *Disk) fetchSpan(ext block.Extent, sp span, p []byte, epoch uint64) error {
	obj := sp.runs[0].Target.Obj
	q, ahead := d.stream.window(obj, sp.lo, d.rc.Arena().Full(), d.opts.PrefetchSectors)
	win, err := d.bs.FetchSpan(sp.runs, q, ahead)
	if err != nil {
		return err
	}
	// Recorded after the GET, not before it: readers missing on the same
	// block meanwhile computed the same key and joined this flight.
	if !win.Shared {
		d.stream.record(obj, win.Lo+block.LBA(len(win.Raw)>>block.SectorShift))
	}
	for _, run := range sp.runs {
		data, err := win.Slice(run)
		if err != nil {
			win.Release()
			return err
		}
		copy(p[(run.LBA-ext.LBA).Bytes():], data)
		// Runs served out of a window another reader already fetched
		// cost no backend I/O — like a prefetch hit, they are exactly
		// the traffic the window machinery saves.
		if !win.Shared {
			d.c.backendReadSectors.Add(uint64(run.Sectors))
		}
	}
	d.admitDemand(sp.runs, win, epoch)
	if win.Shared || !d.adm.enqueue(admitTask{win: win, runs: sp.runs, epoch: epoch}) {
		win.Release()
	}
	return nil
}

// stream is a volume's read-ahead state (§3.2 temporal prefetch), after
// Linux on-demand readahead: the object and end sector of the last
// window the volume led. While the read arena has a free slab every
// miss fetches the ceiling, Options.PrefetchSectors: the extras fill
// empty slabs and evict nothing. Once it is full, a miss fetches only
// its own blocks unless it starts where that window ended. Data written
// together lies together in its object, so such a miss is a stream
// reading on in write order, and it gets a ceiling window ahead of it;
// a random miss gets no read-ahead, and its extras cannot evict data
// that would have been read. One end is what the tests and workloads
// exercise: a second stream or a random miss in between ends a stream,
// and its next miss starts it again at the cost of one exact GET.
type stream struct {
	mu  sync.Mutex
	obj uint32
	end block.LBA // object sector one past the window
}

// window returns the window quantum for a miss on object obj whose span
// starts at object sector lo, and whether the miss continues the stream
// (the window then reaches only ahead of it).
func (s *stream) window(obj uint32, lo block.LBA, full bool, ceiling uint32) (uint32, bool) {
	if !full {
		return ceiling, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj == s.obj && lo == s.end {
		return ceiling, true
	}
	return min(block.SectorsPerBlock, ceiling), false
}

// record makes a led window ending at object sector end of obj the
// stream's.
func (s *stream) record(obj uint32, end block.LBA) {
	s.mu.Lock()
	s.obj, s.end = obj, end
	s.mu.Unlock()
}

// admitDemand inserts the demand runs into the read cache on the fetch
// worker itself, before the read acks: a reader that comes straight
// back for the same data must hit the cache, not re-fetch. Failures
// are swallowed — the read already has its bytes and the cache is
// best-effort. The epoch check mirrors admit(): if a write or trim
// raced the fetch, our stale inserts are pulled back out (the writer's
// Invalidate may have run before them).
func (d *Disk) admitDemand(runs []extmap.Run, win *blockstore.Fetch, epoch uint64) {
	inserted := make([]block.Extent, 0, len(runs))
	for _, run := range runs {
		data, err := win.Slice(run)
		if err != nil {
			break
		}
		if err := d.rc.Insert(run.Extent, data); err != nil {
			break
		}
		inserted = append(inserted, run.Extent)
	}
	if d.rcGen.Load() != epoch {
		for _, ie := range inserted {
			d.rc.Invalidate(ie)
		}
	}
}

// admitTask is one fetched window awaiting prefetch-extras admission:
// the demand runs (already in the read cache) mark what to skip.
type admitTask struct {
	win   *blockstore.Fetch
	runs  []extmap.Run
	epoch uint64
}

// admitter is the background queue for prefetch-extras admission.
// Extras are best-effort: a full queue drops the task (the window's
// extras simply are not cached) rather than stalling the read ack
// path — the demand runs were already admitted by the fetch worker.
type admitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []admitTask
	max  int
	// queued and applied count the tasks enqueued and the tasks the
	// loop has finished, so drain can wait for a prefix of the queue.
	queued, applied uint64
	stopped         bool
	done            chan struct{}
	dropped         atomic.Uint64
}

func (a *admitter) start(d *Disk) {
	a.cond = sync.NewCond(&a.mu)
	a.max = 4 * d.opts.FetchDepth
	a.done = make(chan struct{})
	invariant.Go("core-admitter", func() { a.loop(d) })
}

// enqueue hands a window to the admitter; false means the caller keeps
// ownership (queue full or admitter stopped).
func (a *admitter) enqueue(t admitTask) bool {
	a.mu.Lock()
	if a.stopped || len(a.q) >= a.max {
		a.mu.Unlock()
		a.dropped.Add(1)
		return false
	}
	a.q = append(a.q, t)
	a.queued++
	a.cond.Broadcast()
	a.mu.Unlock()
	return true
}

func (a *admitter) loop(d *Disk) {
	defer close(a.done)
	a.mu.Lock()
	for {
		for !a.stopped && len(a.q) == 0 {
			a.cond.Wait()
		}
		if a.stopped {
			for _, t := range a.q {
				t.win.Release()
			}
			a.q = nil
			a.mu.Unlock()
			return
		}
		t := a.q[0]
		a.q = a.q[1:]
		a.mu.Unlock()
		d.admit(t)
		a.mu.Lock()
		a.applied++
		a.cond.Broadcast()
	}
}

// drain blocks until every admission queued before the call has been
// applied. Later ones are not waited for, so readers that keep
// refilling the queue cannot hold it up.
func (a *admitter) drain() {
	a.mu.Lock()
	for upTo := a.queued; !a.stopped && a.applied < upTo; {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// stop terminates the admitter, releasing queued windows unapplied,
// and waits for the goroutine to exit. Idempotent.
func (a *admitter) stop() {
	a.mu.Lock()
	if a.cond == nil || a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.cond.Broadcast()
	a.mu.Unlock()
	<-a.done
}

// admit applies one extras admission: the window's header is decoded
// (off every lock) and the temporal-prefetch extras that the write
// cache does not hold and the map still assigns to the window's object
// are inserted — never overwriting newer read-cache content — then the
// epoch check drops them if a write or trim raced the fetch (the
// writer's Invalidate may have run before these inserts; the
// authoritative copy is in the write cache / newer log, which readers
// consult first).
func (d *Disk) admit(t admitTask) {
	defer t.win.Release()
	inserted := make([]block.Extent, 0, 4)
	defer func() {
		if d.rcGen.Load() != t.epoch {
			for _, ie := range inserted {
				d.rc.Invalidate(ie)
			}
		}
	}()
	skip := make([]block.Extent, len(t.runs))
	for i, r := range t.runs {
		skip[i] = r.Extent
	}
	for _, ex := range d.bs.WindowExtras(t.win, skip, d.wc.Lookup) {
		if err := d.insertIfAbsentPrefetched(ex.Ext, ex.Data); err != nil {
			return
		}
		d.c.prefetchedSectors.Add(uint64(ex.Ext.Sectors))
		inserted = append(inserted, ex.Ext)
	}
}

// insertIfAbsentPrefetched inserts only the portions of ext the read
// cache does not already hold: prefetched (older) data must not
// overwrite newer read-cache content. (It can never shadow the write
// cache, which precedes the read cache on every lookup.)
func (d *Disk) insertIfAbsentPrefetched(ext block.Extent, data []byte) error {
	for _, run := range d.rc.Lookup(ext) {
		if run.Present {
			continue
		}
		sub := data[(run.LBA - ext.LBA).Bytes():][:run.Bytes()]
		if err := d.rc.InsertPrefetched(run.Extent, sub); err != nil {
			return err
		}
	}
	return nil
}
