// Package experiments regenerates every table and figure of the
// paper's evaluation (§4). Each driver builds the real LSVD stack (and
// where applicable the bcache+RBD baseline) over simulated devices,
// runs a scaled version of the paper's workload through the actual
// code paths, and converts the metered I/O into time with the
// calibrated iomodel (DESIGN.md §16.1). Absolute numbers are model
// outputs; relative results come from the genuine I/O streams.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lsvd/internal/baseline/bcache"
	"lsvd/internal/baseline/rbd"
	"lsvd/internal/block"
	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/vdisk"
)

// Env sets the global scale of all experiments: volumes, cache sizes
// and write volumes are the paper's divided by Scale. Scale 32 gives
// quick, benchmark-friendly runs; Scale 8 runs closer to paper sizes.
type Env struct {
	Scale int64
	Seed  int64
}

// DefaultEnv is the scale used by the bench harness.
func DefaultEnv() Env { return Env{Scale: 32, Seed: 1} }

func (e Env) volBytes() int64   { return 80 * block.GiB / e.Scale }  // 80 GiB volumes (§4.1)
func (e Env) bigCache() int64   { return 160 * block.GiB / e.Scale } // "cache larger than the volume"
func (e Env) smallCache() int64 { return 5 * block.GiB / e.Scale }   // §4.3 5 GB cache

// Client-path software overhead per operation, calibrated from the
// paper's Table 6 breakdown: the LSVD prototype's kernel/user path
// serializes ~16 µs of CPU per I/O (which is what limits it to ~60 K
// IOPS at 4 KiB, §4.2.1); bcache's in-kernel B-tree path costs more
// per write; RBD's client path is lighter but every I/O pays the
// network round trip.
const (
	lsvdSoftSerial   = 16 * time.Microsecond
	bcacheSoftSerial = 22 * time.Microsecond
	rbdSoftSerial    = 6 * time.Microsecond
	rbdNetRTT        = 500 * time.Microsecond
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// lsvdStack is a fully metered LSVD deployment.
type lsvdStack struct {
	disk     *core.Disk
	cacheDev *simdev.Metered
	cacheMem *simdev.MemDevice
	store    *objstore.Metered
	pool     *cluster.Pool
}

// newLSVD builds an LSVD disk over a metered NVMe cache and an
// erasure-coded simulated pool fronted by an S3 endpoint model. Callers
// defer st.disk.Kill(): it stops the disk's goroutines so the stack can
// be collected, and the numbers are read by then, so nothing is
// checkpointed.
func newLSVD(ctx context.Context, e Env, cacheBytes int64, poolCfg cluster.Config, opts core.Options) (*lsvdStack, error) {
	st := &lsvdStack{cacheMem: simdev.NewMem(cacheBytes)}
	st.cacheDev = simdev.NewMetered(st.cacheMem, iomodel.NVMeP3700)
	var err error
	if st.pool, err = cluster.New(poolCfg); err != nil {
		return nil, err
	}
	st.store = objstore.NewMetered(cluster.NewStore(objstore.NewMemSlim(), st.pool))
	opts.Volume = "vol"
	opts.Store = st.store
	opts.Cache = st.cacheDev
	if opts.VolBytes == 0 {
		opts.VolBytes = e.volBytes()
	}
	if st.disk, err = core.Create(ctx, opts); err != nil {
		return nil, err
	}
	return st, nil
}

// elapsed models the wall-clock of a run: the binding constraint among
// client software serialization, per-op latency under the queue depth,
// the cache device, the backend pool, and the S3 endpoint.
func (st *lsvdStack) elapsed(ops uint64, qd int, extra time.Duration) time.Duration {
	soft := time.Duration(ops) * lsvdSoftSerial
	perOp := lsvdSoftSerial + iomodel.NVMeP3700.WriteLatency
	lat := time.Duration(ops) * perOp / time.Duration(max(qd, 1))
	dev := iomodel.ElapsedMeter(st.cacheDev.Meter, qd)
	pool := st.pool.MaxBusy()
	s3 := st.store.ModeledTime(8) // destage/read pipeline depth
	return maxDur(soft, lat, dev, pool, s3, extra)
}

// bcacheStack is the metered bcache+RBD baseline.
type bcacheStack struct {
	cache    *bcache.Cache
	cacheDev *simdev.Metered
	backing  *rbd.Disk
	pool     *cluster.Pool
}

func newBcacheRBD(e Env, cacheBytes int64, poolCfg cluster.Config) (*bcacheStack, error) {
	st := &bcacheStack{}
	st.cacheDev = simdev.NewMetered(simdev.NewMem(cacheBytes), iomodel.NVMeP3700)
	var err error
	if st.pool, err = cluster.New(poolCfg); err != nil {
		return nil, err
	}
	if st.backing, err = rbd.New(rbd.Options{Volume: "img", Pool: st.pool, VolBytes: e.volBytes()}); err != nil {
		return nil, err
	}
	if st.cache, err = bcache.New(bcache.Options{Dev: st.cacheDev, Backing: st.backing}); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *bcacheStack) elapsed(ops uint64, qd int, extra time.Duration) time.Duration {
	soft := time.Duration(ops) * bcacheSoftSerial
	perOp := bcacheSoftSerial + iomodel.NVMeP3700.WriteLatency
	lat := time.Duration(ops) * perOp / time.Duration(max(qd, 1))
	dev := iomodel.ElapsedMeter(st.cacheDev.Meter, qd)
	// Every backend (RBD) op pays the network round trip plus the
	// replicated two-phase commit at the storage devices.
	w, r := st.backing.Ops()
	commit := rbdNetRTT + 2*st.pool.Config().Disk.WriteLatency
	net := time.Duration(w+r) * commit / time.Duration(max(qd, 1))
	pool := st.pool.MaxBusy()
	return maxDur(soft, lat, dev, pool, net, extra)
}

// throughputMBs converts bytes over a modeled duration to MB/s.
func throughputMBs(bytes uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func maxDur(ds ...time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

var _ vdisk.Disk = (*core.Disk)(nil)
