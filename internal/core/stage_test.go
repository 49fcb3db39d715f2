package core

import (
	"runtime"
	"testing"

	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// cycle pushes one write's worth of staging through the pool: take a
// buffer, hand it to the pipeline, and commit everything depth writes
// back — the pool's view of a pipeline that holds depth writes.
func (p *stagePool) cycle(ws uint64, n int, depth uint64) {
	p.track(ws, p.get(n))
	if ws > depth {
		p.destaged(ws - depth)
	}
}

// TestStagePoolMixedSizes: a volume alternating 4 KiB and 128 KiB
// writes must find both sizes in the pool once it is warm (get used to
// discard every buffer of the other size on its way to one that fit),
// and a volume that switches size for good must not be stuck behind
// the buffers its earlier phase left.
func TestStagePoolMixedSizes(t *testing.T) {
	const depth = 32
	sizes := [2]int{4 << 10, 128 << 10}
	p := &stagePool{limit: depth * (128 << 10)}
	ws := uint64(0)
	mixed := func() {
		ws++
		p.cycle(ws, sizes[ws%2], depth)
	}
	for i := 0; i < 4*depth; i++ {
		mixed()
	}
	if a := testing.AllocsPerRun(1000, mixed); a != 0 {
		t.Fatalf("warm pool allocates %.2f times per write on alternating 4 KiB / 128 KiB writes", a)
	}

	// Fill the pool to its limit with 4 KiB buffers, then switch.
	small := p.limit / int64(sizes[0])
	for i := int64(0); i < 2*small; i++ {
		ws++
		p.cycle(ws, sizes[0], uint64(small))
	}
	p.destaged(ws)
	if p.freeBytes > p.limit || p.freeBytes < p.limit-int64(sizes[1]) {
		t.Fatalf("pool holds %d bytes after the 4 KiB phase, limit %d", p.freeBytes, p.limit)
	}
	large := func() {
		ws++
		p.cycle(ws, sizes[1], depth)
	}
	for i := 0; i < 4*depth; i++ {
		large()
	}
	if a := testing.AllocsPerRun(1000, large); a != 0 {
		t.Fatalf("pool allocates %.2f times per 128 KiB write after a 4 KiB phase filled it", a)
	}
	if p.freeBytes > p.limit {
		t.Fatalf("pool holds %d bytes, limit %d", p.freeBytes, p.limit)
	}
}

// TestLargeWriteAckAllocatesNoPayload guards the 128 KiB ack path: on a
// warmed disk neither the cache device (a pre-image copy per page) nor
// the staging pool (a miss per write) may allocate payload-sized
// memory. What remains per write is framing, about 22 KiB of it: the
// two extent maps' chunk copies (14 KiB) and the 4 KiB record header
// lead. The bound is a quarter of the payload: one pre-image copy per
// write (64 KiB) or one pool miss in twelve would cross it.
func TestLargeWriteAckAllocatesNoPayload(t *testing.T) {
	const (
		wr       = 128 << 10
		volBytes = 64 << 20
		perFlush = 64
	)
	store := objstore.NewMetered(objstore.NewMem())
	h := newHarness(t, func(o *Options) {
		o.Store = store
		o.VolBytes = volBytes
		// A 12 MiB write log: the warm-up fills it many times over, so
		// the pipeline's high-water mark is reached before measuring.
		o.Cache = simdev.NewMem(volBytes)
	})
	defer h.disk.Close()
	data := payload(19, wr)
	n := 0
	write := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := h.disk.WriteAt(data, int64(n%(volBytes/wr))*wr); err != nil {
				t.Fatal(err)
			}
			if n++; n%perFlush == 0 {
				if err := h.disk.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	write(3 * volBytes / wr) // wraps the write log and the volume

	const measured = 1024
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	put := store.Stats().BytesPut
	write(measured)
	if err := h.disk.Drain(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The in-memory store copies every object it is handed.
	perWrite := (int64(after.TotalAlloc-before.TotalAlloc) - int64(store.Stats().BytesPut-put)) / measured
	t.Logf("%d B allocated per 128 KiB write, backend copy excluded", perWrite)
	if perWrite > wr/4 {
		t.Fatalf("%d B allocated per 128 KiB write (backend copy excluded), want under 32 KiB", perWrite)
	}
}
