package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lsvd/internal/objstore"
)

// Simulated backend timing: objstore.NewMetered's defaults, which are
// the paper's Table 6 measurements (12 ms PUT, ≈6 ms range GET, a
// 10 Gbit NIC). Metadata calls get a short fixed cost.
const (
	simPutLatency  = 12 * time.Millisecond
	simGetLatency  = 6 * time.Millisecond
	simMetaLatency = 2 * time.Millisecond
	simBandwidth   = 1.25e9 // bytes per second
)

// traffic is the backend traffic between two counter readings.
func traffic(from, to objstore.Stats) objstore.Stats {
	return objstore.Stats{
		Puts: to.Puts - from.Puts, Gets: to.Gets - from.Gets, GetRanges: to.GetRanges - from.GetRanges,
		Deletes: to.Deletes - from.Deletes, Lists: to.Lists - from.Lists,
		BytesPut: to.BytesPut - from.BytesPut, BytesGot: to.BytesGot - from.BytesGot,
	}
}

// simStore is the benchmark's backend: an in-memory object store
// behind S3-like latency. It is the objstore.Store seam, so it also
// counts traffic (always, through objstore.Metered) and records spans
// (traced runs only).
type simStore struct {
	mem   *objstore.Mem
	inner *objstore.Metered // counts, then stores in mem
	delay atomic.Bool       // sleeps on; off while the benchmark audits an image
	tr    *tracer           // nil in untraced runs

	// PUT/GET concurrency, for traced runs: in-flight now and at most,
	// and the wall time during which at least one PUT was in flight.
	mu                     sync.Mutex
	putInflight, putMax    int
	getInflight, getMax    int
	putBusySince           time.Time
	putBusy                time.Duration
	putNS, getNS           hist
	putBytesOn, getBytesOn atomic.Uint64 // bytes while tracing was on
}

func newSimStore(tr *tracer) *simStore {
	mem := objstore.NewMem()
	s := &simStore{mem: mem, inner: &objstore.Metered{Inner: mem}, tr: tr}
	s.delay.Store(true)
	return s
}

func (s *simStore) sleep(ctx context.Context, base time.Duration, bytes int64) error {
	if !s.delay.Load() {
		return ctx.Err()
	}
	t := time.NewTimer(base + time.Duration(float64(bytes)/simBandwidth*float64(time.Second)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter/leave track concurrency for one PUT (put=true) or GET.
func (s *simStore) enter(put bool) {
	s.mu.Lock()
	if put {
		if s.putInflight == 0 {
			s.putBusySince = time.Now()
		}
		s.putInflight++
		s.putMax = max(s.putMax, s.putInflight)
	} else {
		s.getInflight++
		s.getMax = max(s.getMax, s.getInflight)
	}
	s.mu.Unlock()
}

func (s *simStore) leave(put bool) {
	s.mu.Lock()
	if put {
		if s.putInflight--; s.putInflight == 0 {
			s.putBusy += time.Since(s.putBusySince)
		}
	} else {
		s.getInflight--
	}
	s.mu.Unlock()
}

// resetGauges starts a fresh observation interval for the maxima and
// the busy clock.
func (s *simStore) resetGauges() {
	s.mu.Lock()
	s.putMax, s.getMax, s.putBusy = s.putInflight, s.getInflight, 0
	if s.putInflight > 0 {
		s.putBusySince = time.Now()
	}
	s.mu.Unlock()
}

func (s *simStore) gauges() (putMax, getMax int, putBusy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	putBusy = s.putBusy
	if s.putInflight > 0 {
		putBusy += time.Since(s.putBusySince)
	}
	return s.putMax, s.getMax, putBusy
}

func (s *simStore) put(ctx context.Context, n int64, do func() error) error {
	sp := s.tr.beginLeaf("objstore.put", true)
	if sp.on {
		s.enter(true)
		s.putBytesOn.Add(uint64(n))
	}
	err := s.sleep(ctx, simPutLatency, n)
	if err == nil {
		err = do()
	}
	if sp.on {
		s.leave(true)
		s.putNS.add(sp.end())
	}
	return err
}

func (s *simStore) Put(ctx context.Context, name string, data []byte) error {
	return s.put(ctx, int64(len(data)), func() error { return s.inner.Put(ctx, name, data) })
}

func (s *simStore) PutV(ctx context.Context, name string, bufs [][]byte) error {
	return s.put(ctx, objstore.VecLen(bufs), func() error { return s.inner.PutV(ctx, name, bufs) })
}

func (s *simStore) get(ctx context.Context, do func() ([]byte, error)) ([]byte, error) {
	sp := s.tr.beginLeaf("objstore.get", true)
	if sp.on {
		s.enter(false)
	}
	data, err := do()
	if err == nil {
		err = s.sleep(ctx, simGetLatency, int64(len(data)))
	}
	if sp.on {
		s.leave(false)
		s.getBytesOn.Add(uint64(len(data)))
		s.getNS.add(sp.end())
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

func (s *simStore) Get(ctx context.Context, name string) ([]byte, error) {
	return s.get(ctx, func() ([]byte, error) { return s.inner.Get(ctx, name) })
}

func (s *simStore) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	return s.get(ctx, func() ([]byte, error) { return s.inner.GetRange(ctx, name, off, length) })
}

// meta charges one metadata round trip.
func (s *simStore) meta(ctx context.Context, name string) error {
	sp := s.tr.beginLeaf(name, true)
	defer sp.end()
	return s.sleep(ctx, simMetaLatency, 0)
}

func (s *simStore) Delete(ctx context.Context, name string) error {
	if err := s.meta(ctx, "objstore.delete"); err != nil {
		return err
	}
	return s.inner.Delete(ctx, name)
}

func (s *simStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.meta(ctx, "objstore.list"); err != nil {
		return nil, err
	}
	return s.inner.List(ctx, prefix)
}

func (s *simStore) Size(ctx context.Context, name string) (int64, error) {
	if err := s.meta(ctx, "objstore.size"); err != nil {
		return 0, err
	}
	return s.inner.Size(ctx, name)
}
