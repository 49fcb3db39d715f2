package experiments

import (
	"context"
	"fmt"
	"time"

	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/iomodel"
	"lsvd/internal/workload"
)

var filebenchModels = []workload.FilebenchModel{workload.Fileserver, workload.OLTP, workload.Varmail}

// Fig8 reproduces Figure 8: Filebench throughput, LSVD normalized to
// bcache+RBD. Paper: fileserver 0.8x, oltp 1.25x, varmail 4x.
func Fig8(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 8: Filebench throughput (MB/s, LSVD vs bcache+RBD)",
		Header: []string{"workload", "LSVD", "bcache+RBD", "normalized"},
	}
	for _, m := range filebenchModels {
		l, err := filebenchLSVD(ctx, e, m)
		if err != nil {
			return nil, err
		}
		b, err := filebenchBcache(e, m)
		if err != nil {
			return nil, err
		}
		norm := 0.0
		if b > 0 {
			norm = l / b
		}
		t.Rows = append(t.Rows, []string{m.String(), f1(l), f1(b), f2(norm)})
	}
	return t, nil
}

// Table3 reproduces Table 3: Filebench block-level behaviour on ext4
// (writes and bytes between commit barriers, mean write size).
func Table3(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Table 3: Filebench block-level behavior",
		Header: []string{"workload", "writes/sync", "KiB/sync", "mean write KiB"},
	}
	for _, m := range filebenchModels {
		gen := &workload.Filebench{Model: m, VolBytes: e.volBytes(), TotalBytes: filebenchBudget(e), Seed: e.Seed}
		c, err := workload.Run(nullDisk{size: e.volBytes()}, gen, nil, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			m.String(), f1(c.WritesBetweenSyncs), f1(c.BytesBetweenSyncs / 1024), f1(c.MeanWriteBytes / 1024),
		})
	}
	return t, nil
}

func filebenchBudget(e Env) int64 {
	b := e.volBytes() / 8
	if b > 256<<20 {
		b = 256 << 20
	}
	return b
}

func filebenchLSVD(ctx context.Context, e Env, m workload.FilebenchModel) (float64, error) {
	st, err := newLSVD(ctx, e, e.bigCache(), cluster.SSDConfig1(), core.Options{})
	if err != nil {
		return 0, err
	}
	defer st.disk.Kill()
	if err := precondition(st.disk, e); err != nil {
		return 0, err
	}
	st.cacheDev.Meter.Reset()
	st.store.Reset()
	st.pool.Reset()
	gen := &workload.Filebench{Model: m, VolBytes: e.volBytes(), TotalBytes: filebenchBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.disk, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	ops := c.Writes + c.Reads + c.Flushes
	// Commit barriers serialize: each costs a device flush plus the
	// pipeline drain. For LSVD that is all (§3.2 — the log needs no
	// metadata writes at a barrier).
	barrier := time.Duration(c.Flushes) * (iomodel.NVMeP3700.FlushLatency + iomodel.NVMeP3700.WriteLatency)
	// Filebench models run ~50 threads; use QD 16 for the device.
	el := maxDur(
		time.Duration(ops)*lsvdSoftSerial+barrier,
		iomodel.ElapsedMeter(st.cacheDev.Meter, 16),
		st.pool.MaxBusy(),
		st.store.ModeledTime(8),
	)
	return throughputMBs(c.BytesWritten+c.BytesRead, el), nil
}

func filebenchBcache(e Env, m workload.FilebenchModel) (float64, error) {
	st, err := newBcacheRBD(e, e.bigCache(), cluster.SSDConfig1())
	if err != nil {
		return 0, err
	}
	if err := precondition(st.cache, e); err != nil {
		return 0, err
	}
	st.cacheDev.Meter.Reset()
	st.pool.Reset()
	gen := &workload.Filebench{Model: m, VolBytes: e.volBytes(), TotalBytes: filebenchBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.cache, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	ops := c.Writes + c.Reads + c.Flushes
	// bcache must persist every dirtied B-tree node at each barrier,
	// serially, before acknowledging the flush (§4.2.2) — the extra
	// metadata I/O behind LSVD's 4x varmail win.
	stc := st.cache.Stats()
	steady := stc.Writes / 16 // steady-state journal writes (non-barrier)
	barrierMeta := stc.MetadataWrites - steady
	barrier := time.Duration(c.Flushes)*(iomodel.NVMeP3700.FlushLatency+iomodel.NVMeP3700.WriteLatency) +
		time.Duration(barrierMeta)*iomodel.NVMeP3700.WriteLatency
	w, r := st.backing.Ops()
	el := maxDur(
		time.Duration(ops)*bcacheSoftSerial+barrier,
		iomodel.ElapsedMeter(st.cacheDev.Meter, 16),
		st.pool.MaxBusy(),
		time.Duration(w+r)*rbdNetRTT/16,
	)
	return throughputMBs(c.BytesWritten+c.BytesRead, el), nil
}

// nullDisk absorbs a workload for pure stream-statistics measurements
// (Table 3 characterizes the generator, not a store).
type nullDisk struct{ size int64 }

func (d nullDisk) ReadAt(p []byte, off int64) error  { return check(d.size, p, off) }
func (d nullDisk) WriteAt(p []byte, off int64) error { return check(d.size, p, off) }
func (d nullDisk) Flush() error                      { return nil }
func (d nullDisk) Trim(off, n int64) error           { return nil }
func (d nullDisk) Size() int64                       { return d.size }

func check(size int64, p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > size {
		return fmt.Errorf("experiments: I/O outside null disk")
	}
	return nil
}
