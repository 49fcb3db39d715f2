package experiments

import (
	"context"
	"fmt"
	"time"

	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/iomodel"
	"lsvd/internal/vdisk"
	"lsvd/internal/workload"
)

// In-cache microbenchmark matrix (§4.2.1): block sizes 4/16/64 KiB at
// queue depths 4/16/32, 80 GiB volume, cache larger than the volume.
var (
	microBlockSizes = []int{4 << 10, 16 << 10, 64 << 10}
	microQueueDepth = []int{4, 16, 32}
)

// readSerial overheads: the paper's unoptimized LSVD read cache falls
// up to 30% behind bcache at high queue depth (§4.2.1 Fig 7).
const (
	lsvdReadSerial   = 16 * time.Microsecond
	bcacheReadSerial = 12 * time.Microsecond
)

// Fig6 reproduces Figure 6: random write throughput, large cache.
func Fig6(ctx context.Context, e Env) (*Table, error) {
	return microMatrix(ctx, e, workload.RandWrite, "Fig 6: random write, 80GiB volume, large cache (MB/s)")
}

// Fig7 reproduces Figure 7: random read throughput, 100% cache hits.
func Fig7(ctx context.Context, e Env) (*Table, error) {
	return microMatrix(ctx, e, workload.RandRead, "Fig 7: random read, large cache, 100%% hits (MB/s)")
}

// SeqRead reproduces the §4.2.1 text result: sequential read parity.
func SeqRead(ctx context.Context, e Env) (*Table, error) {
	return microMatrix(ctx, e, workload.SeqRead, "Sec 4.2.1: sequential read (MB/s)")
}

func microMatrix(ctx context.Context, e Env, pattern workload.Pattern, title string) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf(title),
		Header: []string{"bs", "qd", "LSVD", "bcache+RBD", "ratio"},
	}
	for _, bs := range microBlockSizes {
		for _, qd := range microQueueDepth {
			lsvdMBs, err := microCellLSVD(ctx, e, pattern, bs, qd)
			if err != nil {
				return nil, err
			}
			bcacheMBs, err := microCellBcache(e, pattern, bs, qd)
			if err != nil {
				return nil, err
			}
			ratio := 0.0
			if bcacheMBs > 0 {
				ratio = lsvdMBs / bcacheMBs
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dK", bs/1024), fmt.Sprintf("%d", qd),
				f1(lsvdMBs), f1(bcacheMBs), f2(ratio),
			})
		}
	}
	return t, nil
}

func cellBudget(e Env) int64 {
	b := e.volBytes() / 16
	if b > 128<<20 {
		b = 128 << 20
	}
	return b
}

func microCellLSVD(ctx context.Context, e Env, pattern workload.Pattern, bs, qd int) (float64, error) {
	st, err := newLSVD(ctx, e, e.bigCache(), cluster.SSDConfig1(), core.Options{})
	if err != nil {
		return 0, err
	}
	defer st.disk.Kill()
	if pattern == workload.RandRead || pattern == workload.SeqRead {
		if err := precondition(st.disk, e); err != nil {
			return 0, err
		}
	}
	st.cacheDev.Meter.Reset()
	st.store.Reset()
	st.pool.Reset()

	gen := &workload.Fio{Pattern: pattern, BlockSize: bs, VolBytes: e.volBytes(), TotalBytes: cellBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.disk, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	ops := c.Writes + c.Reads
	serial, perOp := lsvdSoftSerial, lsvdSoftSerial+iomodel.NVMeP3700.WriteLatency
	if pattern == workload.RandRead || pattern == workload.SeqRead {
		serial, perOp = lsvdReadSerial, lsvdReadSerial+iomodel.NVMeP3700.ReadLatency
	}
	el := maxDur(
		time.Duration(ops)*serial,
		time.Duration(ops)*perOp/time.Duration(qd),
		iomodel.ElapsedMeter(st.cacheDev.Meter, qd),
		st.pool.MaxBusy(),
		st.store.ModeledTime(8),
	)
	return throughputMBs(c.BytesWritten+c.BytesRead, el), nil
}

func microCellBcache(e Env, pattern workload.Pattern, bs, qd int) (float64, error) {
	st, err := newBcacheRBD(e, e.bigCache(), cluster.SSDConfig1())
	if err != nil {
		return 0, err
	}
	if pattern == workload.RandRead || pattern == workload.SeqRead {
		if err := precondition(st.cache, e); err != nil {
			return 0, err
		}
	}
	st.cacheDev.Meter.Reset()
	st.pool.Reset()

	gen := &workload.Fio{Pattern: pattern, BlockSize: bs, VolBytes: e.volBytes(), TotalBytes: cellBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.cache, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	ops := c.Writes + c.Reads
	serial, perOp := bcacheSoftSerial, bcacheSoftSerial+iomodel.NVMeP3700.WriteLatency
	if pattern == workload.RandRead || pattern == workload.SeqRead {
		serial, perOp = bcacheReadSerial, bcacheReadSerial+iomodel.NVMeP3700.ReadLatency
	}
	w, r := st.backing.Ops()
	el := maxDur(
		time.Duration(ops)*serial,
		time.Duration(ops)*perOp/time.Duration(qd),
		iomodel.ElapsedMeter(st.cacheDev.Meter, qd),
		st.pool.MaxBusy(),
		time.Duration(w+r)*rbdNetRTT/time.Duration(qd),
	)
	return throughputMBs(c.BytesWritten+c.BytesRead, el), nil
}

// precondition fills the volume once ("preconditioned to fill them
// with data", §4.1) and then reads it back once, pre-loading the
// caches ("pre-loading the cache before each test", §4.2).
func precondition(d vdisk.Disk, e Env) error {
	gen := &workload.Fio{Pattern: workload.SeqWrite, BlockSize: 1 << 20, VolBytes: e.volBytes(), TotalBytes: e.volBytes(), Seed: e.Seed + 7}
	if _, err := workload.Run(d, gen, nil, 0); err != nil {
		return err
	}
	warm := &workload.Fio{Pattern: workload.SeqRead, BlockSize: 1 << 20, VolBytes: e.volBytes(), TotalBytes: e.volBytes(), Seed: e.Seed + 8}
	_, err := workload.Run(d, warm, nil, 0)
	return err
}
