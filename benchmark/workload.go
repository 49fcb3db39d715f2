package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"

	"lsvd"
	"lsvd/internal/nbd"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
	"lsvd/internal/workload"
)

type pattern int

const (
	patRandWrite pattern = iota
	patSeqWrite
	patMix // hot/cold reads, with writeShare writes
)

// spec is one workload. Every workload is a closed loop: a client
// issues its next op when the previous one completes, as a guest's
// block layer does at a fixed queue depth.
type spec struct {
	name       string
	pattern    pattern
	volBytes   int64
	cacheBytes int64
	volumes    int // each with its own client(s)
	clients    int // per volume
	opBytes    int
	writeShare float64
	hotReads   float64 // share of reads that go to the hot set; the rest are uniform
	flushEvery int     // a Flush after this many writes
	prefill    bool    // fill the volume sequentially and drain before measuring
	reopen     bool    // then close and reopen on a fresh, empty cache
	nbd        bool    // clients go through NBD over loopback TCP
	warmShare  float64 // warm-up length as a share of the measured phase
}

// README.md, "Workloads", says why each exists and why it has these
// sizes. The ratios decide behaviour: the write workloads overwrite
// their volume several times over in a run; readmix16k's hot twentieth
// fits the read arena and its cold part does not; nbdmix8k's reads are
// all cold.
var specs = []*spec{
	{name: "randwrite4k", pattern: patRandWrite, volBytes: 256 << 20, cacheBytes: 256 << 20,
		volumes: 1, clients: 1, opBytes: 4 << 10, writeShare: 1, flushEvery: 32, prefill: true, warmShare: 1.0 / 6},
	{name: "seqwrite128k", pattern: patSeqWrite, volBytes: 256 << 20, cacheBytes: 128 << 20,
		volumes: 1, clients: 1, opBytes: 128 << 10, writeShare: 1, flushEvery: 64, warmShare: 1.0 / 6},
	{name: "readmix16k", pattern: patMix, volBytes: 512 << 20, cacheBytes: 128 << 20,
		volumes: 1, clients: 2, opBytes: 16 << 10, hotReads: 0.8, flushEvery: 32, prefill: true, reopen: true, warmShare: 1.0 / 3},
	{name: "nbdmix8k", pattern: patMix, volBytes: 256 << 20, cacheBytes: 128 << 20,
		volumes: 2, clients: 1, opBytes: 8 << 10, writeShare: 0.3, flushEvery: 32, prefill: true, reopen: true, nbd: true, warmShare: 1.0 / 3},
}

// scale shrinks a run for the smoke test; the benchmark itself runs
// at fullScale.
type scale struct {
	volDiv, cacheDiv int64
	ladderOps        int
}

var fullScale = scale{volDiv: 1, cacheDiv: 1, ladderOps: 50_000}

func (w *spec) scaled(sc scale) *spec {
	c := *w
	c.volBytes /= sc.volDiv
	c.cacheBytes /= sc.cacheDiv
	return &c
}

// unflushedBytes is what each writing client writes, without a Flush,
// between the last checkpoint and the crash: the data the crash takes
// away. It is a sixth or so of the volume's write log (a fifth of its
// share of the cache) and under one 8 MiB backend batch, and it follows
// a Drain, so neither a full batch nor a full ring pushes any of it to
// the backend before the cache loses it; README.md, "What the crash
// leaves out", says why that matters.
func (w *spec) unflushedBytes() int {
	return int(min(4<<20, w.cacheBytes/int64(w.volumes)/32))
}

func specByName(name string) *spec {
	for _, w := range specs {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	windows      = 6         // the measured phase is cut into this many windows
	setupRepeats = 3         // set-ups per run; setup_s is their median
	prefillBytes = 128 << 10 // prefill write size
	auditChunk   = 1 << 20
	storedPeriod = 100 * time.Millisecond // between readings of the backend's size
)

func volName(i int) string { return fmt.Sprintf("vol%d", i) }

// rig is one set-up system: backend, cache device, volume(s), and the
// clients about to drive them.
type rig struct {
	w      *spec
	pay    *payload
	tr     *tracer
	store  *simStore
	mem    *simdev.MemDevice
	tdev   *traceDev // nil unless traced
	host   *lsvd.Host
	disks  []*lsvd.Disk
	vols   []*volState
	vtr    []*volTrace // nil unless traced
	srv    *nbd.Server
	served chan error
	conns  []*nbd.Client

	clients  []*client
	createMS float64
	openMS   float64
}

func (r *rig) cacheDev() simdev.Device {
	if r.tr == nil {
		return r.mem
	}
	r.tdev = newTraceDev(r.mem, r.tr)
	return r.tdev
}

// open creates (create=true) or opens the rig's volumes on r.mem.
func (r *rig) open(ctx context.Context, create bool) error {
	t := time.Now()
	defer func() {
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		if create {
			r.createMS = ms
		} else {
			r.openMS = ms
		}
	}()
	dev := r.cacheDev()
	r.disks = make([]*lsvd.Disk, r.w.volumes)
	if !r.w.nbd {
		o := lsvd.VolumeOptions{Name: volName(0), Store: r.store, Cache: dev, Size: r.w.volBytes}
		var err error
		if create {
			r.disks[0], err = lsvd.Create(ctx, o)
		} else {
			r.disks[0], err = lsvd.Open(ctx, o)
		}
		return err
	}
	h, err := lsvd.OpenHost(ctx, lsvd.HostOptions{Store: r.store, Cache: dev, MaxVolumes: r.w.volumes})
	if err != nil {
		return err
	}
	r.host = h
	if create {
		for i := range r.disks {
			if r.disks[i], err = h.Create(ctx, volName(i), lsvd.VolumeSpec{VolBytes: r.w.volBytes}); err != nil {
				return err
			}
		}
		return nil
	}
	want := make(map[string]lsvd.VolumeSpec)
	for i := range r.disks {
		want[volName(i)] = lsvd.VolumeSpec{}
	}
	got, errs := h.OpenAll(ctx, want)
	for _, err := range errs {
		return err
	}
	for i := range r.disks {
		r.disks[i] = got[volName(i)]
	}
	return nil
}

// closeAll shuts the volumes down cleanly.
func (r *rig) closeAll() error {
	if r.host != nil {
		return r.host.Close()
	}
	return r.disks[0].Close()
}

// prefillVolume writes the whole volume once, in order.
func (r *rig) prefillVolume(i int) error {
	d, v := r.disks[i], r.vols[i]
	buf := make([]byte, prefillBytes)
	for off := int64(0); off < r.w.volBytes; off += prefillBytes {
		block := off / blockBytes
		r.pay.fill(buf, block, v.nextWrite(block, prefillBytes/blockBytes))
		if err := d.WriteAt(buf, off); err != nil {
			return err
		}
	}
	if err := d.Flush(); err != nil {
		return err
	}
	v.committed = v.version
	return d.Drain()
}

// setUp builds the system a workload measures: everything before
// warm-up. Its wall time is setup_s.
func setUp(ctx context.Context, w *spec, seed int64, tr *tracer) (*rig, error) {
	r := &rig{w: w, pay: newPayload(seed), tr: tr, store: newSimStore(tr), mem: simdev.NewMem(w.cacheBytes)}
	for i := 0; i < w.volumes; i++ {
		r.vols = append(r.vols, newVolState(w.volBytes))
	}
	if err := r.open(ctx, true); err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	if w.prefill {
		errs := make(chan error, w.volumes)
		for i := range r.disks {
			go func(i int) { errs <- r.prefillVolume(i) }(i)
		}
		for range r.disks {
			if err := <-errs; err != nil {
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
	}
	if w.reopen {
		if err := r.closeAll(); err != nil {
			return nil, fmt.Errorf("close after prefill: %w", err)
		}
		r.mem = simdev.NewMem(w.cacheBytes)
		if err := r.open(ctx, false); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}
	if err := r.attachClients(seed); err != nil {
		return nil, err
	}
	return r, nil
}

// attachClients wires the clients to the volumes: directly, or
// through one NBD connection per volume.
func (r *rig) attachClients(seed int64) error {
	w := r.w
	front := make([]vdisk.Disk, w.volumes)
	if r.tr != nil {
		r.vtr = make([]*volTrace, w.volumes)
	}
	for i, d := range r.disks {
		front[i] = d
		if r.tr != nil {
			r.vtr[i] = &volTrace{tr: r.tr, disk: d}
		}
	}
	if w.nbd {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if r.tr == nil {
			r.srv = r.host.NBDServer()
		} else {
			// The traced server exports the same disks behind the
			// vdisk.Disk seam.
			r.srv = nbd.NewServer()
			for i := range r.disks {
				r.srv.AddExport(nbd.Export{Name: volName(i), Disk: diskHandle{v: r.vtr[i]}})
			}
		}
		r.served = make(chan error, 1)
		go func() { r.served <- r.srv.Serve(ln) }()
		for i := range r.disks {
			c, err := nbd.Dial(ln.Addr().String(), volName(i))
			if err != nil {
				return fmt.Errorf("nbd dial: %w", err)
			}
			r.conns = append(r.conns, c)
			front[i] = c
			if r.tr != nil {
				front[i] = nbdHandle{v: r.vtr[i], c: c}
			}
		}
	}
	for i := 0; i < w.volumes; i++ {
		for j := 0; j < w.clients; j++ {
			c := &client{r: r, vol: i, disk: front[i], buf: make([]byte, w.opBytes),
				ops: genOps(w, seed*1000+int64(i*w.clients+j)), recs: make([]rec, 0, streamLen)}
			r.clients = append(r.clients, c)
		}
	}
	return nil
}

// stopNBD disconnects the clients and stops the server.
func (r *rig) stopNBD() {
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	if r.srv != nil {
		r.srv.Close()
		<-r.served
		r.srv = nil
	}
}

// tearDown discards a rig that will not be measured.
func (r *rig) tearDown() {
	r.stopNBD()
	for _, d := range r.disks {
		d.Kill()
	}
}

// rec is one timed op of the measured phase.
type rec struct {
	start int64 // ns since the measured phase began
	dur   int32 // ns
	kind  workload.Kind
}

type client struct {
	r    *rig
	vol  int
	disk vdisk.Disk
	ops  []workload.Op
	pos  int
	buf  []byte

	recs      []rec
	attempted uint64
	failed    uint64
	firstErr  error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// next is the client's next op; with onlyWrites it passes over reads
// and flushes.
func (c *client) next(onlyWrites bool) workload.Op {
	for {
		op := c.ops[c.pos%len(c.ops)]
		c.pos++
		if !onlyWrites || op.Kind == workload.OpWrite {
			return op
		}
	}
}

// run issues the client's ops, one at a time, until done(n) is true
// after n ops. With t0 set, each op is recorded against it.
func (c *client) run(done func(n int) bool, onlyWrites bool, t0 time.Time) {
	disk, vol, pay := c.disk, c.r.vols[c.vol], c.r.pay
	if v := c.r.vtr; v != nil && !c.r.w.nbd {
		disk = diskHandle{v: v[c.vol], g: goid()}
	}
	for n := 0; !done(n); n++ {
		op := c.next(onlyWrites)
		block := op.Off / blockBytes
		if op.Kind == workload.OpWrite {
			pay.fill(c.buf, block, vol.nextWrite(block, len(c.buf)/blockBytes))
		}
		start := time.Now()
		var err error
		switch op.Kind {
		case workload.OpWrite:
			err = disk.WriteAt(c.buf, op.Off)
		case workload.OpRead:
			err = disk.ReadAt(c.buf, op.Off)
		case workload.OpFlush:
			err = disk.Flush()
		}
		dur := time.Since(start)
		c.attempted++
		switch {
		case err != nil:
			c.fail(fmt.Errorf("%s %v at %d: %w", c.r.w.name, op.Kind, op.Off, err))
		case op.Kind == workload.OpRead:
			if err := vol.verifyRead(pay, c.buf, block); err != nil {
				c.fail(err)
			}
		case op.Kind == workload.OpFlush:
			vol.committed = vol.version
		}
		if !t0.IsZero() {
			c.recs = append(c.recs, rec{start.Sub(t0).Nanoseconds(), int32(min(dur.Nanoseconds(), 1<<31-1)), op.Kind})
		}
	}
}

// until is a run condition: stop at t.
func until(t time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(t) }
}

// phase runs every client until done and waits for them, calling
// during meanwhile.
func (r *rig) phase(done func(n int) bool, onlyWrites bool, t0 time.Time, during func()) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(done, onlyWrites, t0)
		}(c)
	}
	if during != nil {
		during()
	}
	wg.Wait()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measured is what the measured phase and the epilogue produced.
type measured struct {
	w          *spec
	windowLen  time.Duration
	recs       []rec          // all clients, sorted by start
	cpuS       float64        // CPU seconds (user+sys) the process spent in the measured phase
	backend    objstore.Stats // traffic from the start of the measured phase through the Drain after it
	storedMean float64        // bytes held by the backend, averaged over the measured phase
	storedEnd  int64          // and after the final Drain
	liveBytes  int64
	drainMS    float64
	recoverS   float64
	setupS     []float64
	attempted  uint64
	failed     uint64
	errs       []error
	phases     []string    // wall time of each phase, for the human-readable output
	layers     *layerProbe // traced runs
	traced     *tracer
	written    int64 // bytes ever written to the volumes, prefill included
}

// lap records how long the phase that just ended took.
func (m *measured) lap(name string, since *time.Time) {
	now := time.Now()
	m.phases = append(m.phases, fmt.Sprintf("%s %.2fs", name, now.Sub(*since).Seconds()))
	*since = now
}

// runWorkload runs one workload start to finish.
func runWorkload(ctx context.Context, w *spec, seed int64, seconds float64, traced bool, sc scale) (*measured, error) {
	w = w.scaled(sc)
	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	m := &measured{w: w, windowLen: time.Duration(seconds / windows * float64(time.Second))}

	// Set-up, setupRepeats times over; the last one is measured.
	lap := time.Now()
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.tearDown()
		}
		t := time.Now()
		var err error
		if r, err = setUp(ctx, w, seed, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
	}

	m.lap("set-up x3", &lap)

	// Warm-up: same ops, nothing recorded.
	r.phase(until(time.Now().Add(time.Duration(seconds*w.warmShare*float64(time.Second)))), false, time.Time{}, nil)
	m.lap("warm-up", &lap)

	// Measured phase.
	if traced {
		m.layers = &layerProbe{r: r}
		m.layers.begin()
	}
	storeStart := r.store.inner.Stats()
	t0 := time.Now()
	r.phase(until(t0.Add(windows*m.windowLen)), false, t0, func() {
		var storedN float64
		cpu0 := cpuSeconds()
		for i := 0; i < windows; i++ {
			if traced {
				// Odd windows run with the wrappers idle, so the
				// same run yields the tracing overhead.
				tr.on.Store(i%2 == 0)
			}
			// Space moves in whole objects, deleted in bursts, so one
			// reading at the end says little: average many.
			for end := t0.Add(time.Duration(i+1) * m.windowLen); time.Now().Before(end); storedN++ {
				m.storedMean += float64(r.store.mem.TotalBytes())
				time.Sleep(min(storedPeriod, time.Until(end)))
			}
		}
		m.storedMean /= storedN
		m.cpuS = cpuSeconds() - cpu0
		if traced {
			tr.on.Store(false)
		}
	})
	if traced {
		m.layers.stop()
	}
	for _, c := range r.clients {
		m.recs = append(m.recs, c.recs...)
	}
	sort.Slice(m.recs, func(i, j int) bool { return m.recs[i].start < m.recs[j].start })
	m.lap("measured", &lap)

	// Drain: backend traffic is counted through here, so writes still
	// in the pipeline when the clock stopped are paid for.
	t := time.Now()
	for _, d := range r.disks {
		if err := d.Drain(); err != nil {
			m.errs = append(m.errs, fmt.Errorf("drain: %w", err))
		}
	}
	m.drainMS = float64(time.Since(t).Nanoseconds()) / 1e6
	m.backend = traffic(storeStart, r.store.inner.Stats())
	m.storedEnd = r.store.mem.TotalBytes()
	for _, v := range r.vols {
		for _, ver := range v.latest {
			if ver != 0 {
				m.liveBytes += blockBytes
			}
		}
		for _, h := range v.history {
			m.written += int64(h.n) * blockBytes
		}
	}

	m.lap("drain", &lap)

	m.crashAndRecover(ctx, r, seed, &lap)

	// A drain, recovery or audit failure is a failed op like any other.
	m.attempted, m.failed = uint64(len(r.disks)), uint64(len(m.errs))
	for _, c := range r.clients {
		m.attempted += c.attempted
		m.failed += c.failed
		if c.firstErr != nil {
			m.errs = append(m.errs, c.firstErr)
		}
	}
	m.traced = tr
	return m, nil
}

// crashAndRecover is the epilogue every workload ends with: a tail of
// unflushed writes, process death, loss of everything the cache
// device had not flushed, recovery (timed), and an audit of the whole
// image against the write history.
func (m *measured) crashAndRecover(ctx context.Context, r *rig, seed int64, lap *time.Time) {
	w := r.w
	for _, d := range r.disks {
		if err := d.Checkpoint(); err != nil {
			m.errs = append(m.errs, fmt.Errorf("checkpoint: %w", err))
		}
	}
	if w.writeShare > 0 {
		writes := w.unflushedBytes() / w.opBytes
		r.phase(func(n int) bool { return n == writes }, true, time.Time{}, nil)
	}
	r.stopNBD()
	for _, d := range r.disks {
		d.Kill()
	}
	r.mem.Crash(1.0, rand.New(rand.NewSource(seed)))

	t := time.Now()
	if err := r.open(ctx, false); err != nil {
		m.errs = append(m.errs, fmt.Errorf("recovery open: %w", err))
		return
	}
	buf := make([]byte, auditChunk)
	for i, d := range r.disks {
		if err := d.ReadAt(buf[:w.opBytes], 0); err != nil {
			m.errs = append(m.errs, fmt.Errorf("first read after recovery: %w", err))
		} else if _, err := r.pay.versionOf(buf[:blockBytes], 0); err != nil {
			m.errs = append(m.errs, fmt.Errorf("%s after recovery: %w", volName(i), err))
		}
	}
	m.recoverS = time.Since(t).Seconds()
	m.lap("crash and recovery", lap)
	if m.layers != nil {
		m.layers.afterRecovery()
	}

	// Audit at memory speed: the image is what is checked, not the
	// backend's latency.
	r.store.delay.Store(false)
	for i, d := range r.disks {
		found, err := r.readImage(d, buf)
		if err == nil {
			err = r.vols[i].checkPrefix(found)
		}
		if err != nil {
			m.errs = append(m.errs, fmt.Errorf("%s %s is not a consistent prefix: %w", w.name, volName(i), err))
		}
	}
	m.lap("audit", lap)
	if err := r.closeAll(); err != nil {
		m.errs = append(m.errs, fmt.Errorf("close: %w", err))
	}
	m.lap("close", lap)
}

// readImage reads a whole volume and returns the verified version of
// every block.
func (r *rig) readImage(d *lsvd.Disk, buf []byte) ([]uint32, error) {
	found := make([]uint32, r.w.volBytes/blockBytes)
	for off := int64(0); off < r.w.volBytes; off += int64(len(buf)) {
		if err := d.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("read at %d: %w", off, err)
		}
		for o := 0; o < len(buf); o += blockBytes {
			b := (off + int64(o)) / blockBytes
			ver, err := r.pay.versionOf(buf[o:o+blockBytes], b)
			if err != nil {
				return nil, err
			}
			found[b] = ver
		}
	}
	return found, nil
}
