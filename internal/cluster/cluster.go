// Package cluster simulates the scale-out storage pool behind both
// backends the paper compares (Table 1): a set of servers each holding
// IOPS-limited devices (HDDs or capacity SSDs). It translates logical
// operations — erasure-coded object PUTs for the LSVD/S3 path, triple
// replicated block writes with write-ahead-log entries for the RBD
// path — into per-device I/O, metered through the iomodel so that
// experiments can report backend operation counts, byte amplification,
// per-device write-size histograms, and device utilization (§4.5,
// Figs 12–14).
//
// The pool carries no data: durability is the object layer's concern.
// What matters for the paper's backend-load results is the *stream* of
// device I/Os each frontend design generates, and that is what the pool
// records, using the same calibration for both systems.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/iomodel"
)

// Config describes a storage pool.
type Config struct {
	Servers        int
	DisksPerServer int
	Disk           iomodel.Params

	// ECData / ECParity configure the erasure code used for object
	// PUTs (the paper's RGW pool uses a 4,2 code).
	ECData, ECParity int

	// Replicas is the replication factor for replicated block writes
	// (Ceph RBD default: 3).
	Replicas int

	// MetaWritesPer4MB is the number of small metadata/journal device
	// writes issued per 4 MiB of object data created. The paper
	// measures Ceph issuing 64 writes across the pool to create one
	// 4 MiB object: 6 are the EC chunks, the rest metadata.
	MetaWritesPer4MB int

	// MetaWriteBytes is the size of each metadata write.
	MetaWriteBytes int

	// WALOverheadBytes is the extra bytes a replicated small write's
	// write-ahead-log entry carries beyond the data (§4.5 observes
	// 16 KiB client writes producing 20–24 KiB WAL writes).
	WALOverheadBytes int
}

// HDDConfig2 is the paper's configuration #2: 9 servers, 62 10K RPM
// SAS HDDs total (7 per server, one short), 4+2 EC, 3x replication.
func HDDConfig2() Config {
	return Config{
		Servers: 9, DisksPerServer: 7, Disk: iomodel.HDD10K,
		ECData: 4, ECParity: 2, Replicas: 3,
		MetaWritesPer4MB: 58, MetaWriteBytes: 4096, WALOverheadBytes: 6144,
	}
}

// SSDConfig1 is the paper's configuration #1: 4 nodes, 32 consumer
// SATA SSDs.
func SSDConfig1() Config {
	return Config{
		Servers: 4, DisksPerServer: 8, Disk: iomodel.SATASSDConsumer,
		ECData: 4, ECParity: 2, Replicas: 3,
		MetaWritesPer4MB: 58, MetaWriteBytes: 4096, WALOverheadBytes: 6144,
	}
}

// Pool is a simulated storage pool. Its methods are safe for
// concurrent use: the asynchronous destage pipeline issues object PUTs
// from multiple goroutines, all of which meter through here.
type Pool struct {
	mu    sync.Mutex //lsvd:lock cluster.mu
	cfg   Config
	disks []*iomodel.Meter
	// heads tracks a crude per-disk log head so that object-chunk
	// writes land sequentially per device, as they do in a
	// well-behaved OSD, letting the meter's merge logic see them as
	// large writes.
	heads []int64
}

// New builds a pool from cfg.
func New(cfg Config) (*Pool, error) {
	n := cfg.Servers * cfg.DisksPerServer
	if n <= 0 {
		return nil, fmt.Errorf("cluster: no disks (servers=%d disks=%d)", cfg.Servers, cfg.DisksPerServer)
	}
	if cfg.ECData <= 0 {
		cfg.ECData, cfg.ECParity = 4, 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.ECData+cfg.ECParity > n {
		return nil, fmt.Errorf("cluster: EC width %d exceeds %d disks", cfg.ECData+cfg.ECParity, n)
	}
	if cfg.Replicas > n {
		return nil, fmt.Errorf("cluster: %d replicas exceed %d disks", cfg.Replicas, n)
	}
	p := &Pool{cfg: cfg, heads: make([]int64, n)}
	for i := 0; i < n; i++ {
		p.disks = append(p.disks, iomodel.NewMeter(cfg.Disk))
	}
	return p, nil
}

// Disks returns the number of devices in the pool.
func (p *Pool) Disks() int { return len(p.disks) }

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// pick returns n distinct disk indices for a placement key, spreading
// across servers first (a chunk never shares a server with another
// chunk of the same stripe while servers remain).
func (p *Pool) pick(key string, n int) []int {
	h := fnv.New64a()
	h.Write([]byte(key))
	start := int(h.Sum64() % uint64(len(p.disks)))
	out := make([]int, 0, n)
	// Step by DisksPerServer+1 to rotate server and slot together.
	step := p.cfg.DisksPerServer + 1
	if step >= len(p.disks) {
		step = 1
	}
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n; i++ {
		d := (start + i*step) % len(p.disks)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

func (p *Pool) diskWrite(d int, size int64, sequential bool) {
	var off int64
	if sequential {
		off = p.heads[d]
	} else {
		// Force a new run: jump the head.
		off = p.heads[d] + 128*block.MiB
	}
	p.disks[d].Record(iomodel.OpWrite, off, size)
	p.heads[d] = off + size
}

func (p *Pool) diskRead(d int, size int64) {
	p.disks[d].Record(iomodel.OpRead, -1, size) // reads modeled as random
}

// PutObject records the device I/O for storing one erasure-coded
// object of the given size under the placement key: k+m chunk writes
// of size/k (parity included) plus the configured metadata writes.
func (p *Pool) PutObject(key string, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k, m := p.cfg.ECData, p.cfg.ECParity
	chunk := (size + int64(k) - 1) / int64(k)
	targets := p.pick(key, k+m)
	for _, d := range targets {
		p.diskWrite(d, chunk, true)
	}
	meta := int(float64(p.cfg.MetaWritesPer4MB) * float64(size) / float64(4*block.MiB))
	if p.cfg.MetaWritesPer4MB > 0 && meta < 3 {
		meta = 3
	}
	// Metadata/journal writes are WAL appends (RocksDB in a Ceph OSD):
	// sequential at each device, so they merge rather than seek.
	for i := 0; i < meta; i++ {
		p.diskWrite(targets[i%len(targets)], int64(p.cfg.MetaWriteBytes), true)
	}
}

// DeleteObject records the (cheap) metadata I/O of removing an object.
func (p *Pool) DeleteObject(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.pick(key, 1) {
		p.diskWrite(d, int64(p.cfg.MetaWriteBytes), false)
	}
}

// ReadObjectRange records device reads for a range GET against an
// erasure-coded object: one read per data chunk the range touches.
func (p *Pool) ReadObjectRange(key string, objSize, off, length int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.cfg.ECData
	chunk := (objSize + int64(k) - 1) / int64(k)
	if chunk <= 0 {
		chunk = 1
	}
	first := off / chunk
	last := (off + length - 1) / chunk
	targets := p.pick(key, k+p.cfg.ECParity)
	for c := first; c <= last && c < int64(k); c++ {
		lo := max64(off, c*chunk)
		hi := min64(off+length, (c+1)*chunk)
		p.diskRead(targets[c%int64(len(targets))], hi-lo)
	}
}

// WriteReplicated records the device I/O of one replicated block-store
// write (the RBD path): at each of Replicas devices, a random data
// write plus a write-ahead-log entry. The WAL is a journal — appends
// are sequential at the device — while the data write seeks.
func (p *Pool) WriteReplicated(key string, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	targets := p.pick(key, p.cfg.Replicas)
	for _, d := range targets {
		p.diskWrite(d, size, false)
		p.diskWrite(d, size+int64(p.cfg.WALOverheadBytes), true)
	}
}

// ReadReplicated records the device I/O of a replicated read: one read
// at the primary.
func (p *Pool) ReadReplicated(key string, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.diskRead(p.pick(key, 1)[0], size)
}

// Totals sums the counters over all devices.
func (p *Pool) Totals() iomodel.Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c iomodel.Counters
	for _, d := range p.disks {
		c = c.Add(d.Snapshot())
	}
	return c
}

// Utilization returns the mean busy fraction across devices for a run
// that took elapsed: per-device busy time is the IOPS/bandwidth-bound
// model time (latency hidden by queueing).
func (p *Pool) Utilization(elapsed time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if elapsed <= 0 || len(p.disks) == 0 {
		return 0
	}
	var sum float64
	for _, d := range p.disks {
		busy := iomodel.Elapsed(d.Params(), d.Snapshot(), 1<<20)
		f := float64(busy) / float64(elapsed)
		if f > 1 {
			f = 1
		}
		sum += f
	}
	return sum / float64(len(p.disks))
}

// MaxBusy returns the largest modeled busy time over all devices — the
// pool-side bound on a run's elapsed time.
func (p *Pool) MaxBusy() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var m time.Duration
	for _, d := range p.disks {
		if b := iomodel.Elapsed(d.Params(), d.Snapshot(), 1<<20); b > m {
			m = b
		}
	}
	return m
}

// WriteSizes merges the per-device write-size histograms (Fig 14).
func (p *Pool) WriteSizes() *iomodel.SizeHistogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := iomodel.NewSizeHistogram()
	for _, d := range p.disks {
		h.Merge(d.WriteSizes())
	}
	return h
}

// Reset zeroes all device meters.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range p.disks {
		d.Reset()
		p.heads[i] = 0
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
