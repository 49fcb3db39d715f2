package experiments

import (
	"context"
	"fmt"
	"time"

	"lsvd/internal/baseline/rbd"
	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
	"lsvd/internal/workload"
)

// backendLoadResult carries everything Figs 12-14 report for one
// system at one virtual-disk count.
type backendLoadResult struct {
	vdisks      int
	clientIOPS  float64
	utilization float64
	clientOps   uint64
	backendOps  uint64
	clientBytes uint64
	backendByte uint64
	sizes       *iomodel.SizeHistogram
}

// Fig12 reproduces Figure 12: total client IOPS vs mean backend disk
// utilization for 1..32 parallel virtual disks doing 16 KiB random
// writes at QD 32 on the 62-HDD pool (§4.5).
func Fig12(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 12: write efficiency, 16KiB randwrite QD32, HDD pool",
		Header: []string{"system", "vdisks", "kIOPS", "backend util %"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		r, err := backendLoadLSVD(ctx, e, n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"LSVD", fmt.Sprint(n), f1(r.clientIOPS / 1000), f1(r.utilization * 100)})
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		r, err := backendLoadRBD(e, n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"RBD", fmt.Sprint(n), f1(r.clientIOPS / 1000), f1(r.utilization * 100)})
	}
	return t, nil
}

// Fig13 reproduces Figure 13: client vs backend I/O and byte counts
// for the 16 KiB random-write load test. Paper: RBD amplifies 6x in
// ops and bytes; LSVD generates 0.25 backend ops per client write.
func Fig13(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 13: I/O and byte amplification, 16KiB randwrite",
		Header: []string{"system", "client ops", "backend ops", "op ampl", "client GiB", "backend GiB", "byte ampl"},
	}
	l, err := backendLoadLSVD(ctx, e, 8)
	if err != nil {
		return nil, err
	}
	r, err := backendLoadRBD(e, 8)
	if err != nil {
		return nil, err
	}
	for _, x := range []struct {
		name string
		r    *backendLoadResult
	}{{"LSVD", l}, {"RBD", r}} {
		t.Rows = append(t.Rows, []string{
			x.name,
			fmt.Sprint(x.r.clientOps), fmt.Sprint(x.r.backendOps),
			f2(float64(x.r.backendOps) / float64(x.r.clientOps)),
			f2(float64(x.r.clientBytes) / float64(1<<30)),
			f2(float64(x.r.backendByte) / float64(1<<30)),
			f2(float64(x.r.backendByte) / float64(x.r.clientBytes)),
		})
	}
	return t, nil
}

// Fig14 reproduces Figure 14: histogram of backend write sizes (bytes
// written per I/O-size bucket). Paper: RBD writes cluster at 16-24 KiB,
// LSVD writes cluster around 1 MiB (EC chunks) plus small metadata.
func Fig14(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 14: backend bytes written vs I/O size, 16KiB randwrite",
		Header: []string{"system", "bucket", "ops", "MiB"},
	}
	l, err := backendLoadLSVD(ctx, e, 8)
	if err != nil {
		return nil, err
	}
	r, err := backendLoadRBD(e, 8)
	if err != nil {
		return nil, err
	}
	for _, x := range []struct {
		name string
		r    *backendLoadResult
	}{{"RBD", r}, {"LSVD", l}} {
		for _, row := range x.r.sizes.Buckets() {
			t.Rows = append(t.Rows, []string{
				x.name, humanSize(row.Low), fmt.Sprint(row.Count), f1(float64(row.Bytes) / (1 << 20)),
			})
		}
	}
	return t, nil
}

func humanSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}

func backendLoadBudget(e Env) int64 {
	b := 16 * int64(1<<30) / e.Scale
	if b < 256<<20 {
		b = 256 << 20
	}
	return b
}

func backendLoadLSVD(ctx context.Context, e Env, vdisks int) (*backendLoadResult, error) {
	pool, err := cluster.New(cluster.HDDConfig2())
	if err != nil {
		return nil, err
	}
	res := &backendLoadResult{vdisks: vdisks, sizes: iomodel.NewSizeHistogram()}
	perDisk := backendLoadBudget(e) / int64(vdisks)

	// All volumes share one client machine and one cache SSD (§4.5:
	// "throughput is limited by the single client machine and its
	// single SSD"): one metered device split into per-volume sections.
	perVolCache := e.smallCache()
	if perVolCache < 48<<20 {
		perVolCache = 48 << 20
	}
	shared := simdev.NewMetered(simdev.NewMem(perVolCache*int64(vdisks)), iomodel.NVMeP3700)
	store := objstore.NewMetered(cluster.NewStore(objstore.NewMemSlim(), pool))

	var disks []*core.Disk
	for i := 0; i < vdisks; i++ {
		section, err := simdev.NewSection(shared, int64(i)*perVolCache, perVolCache)
		if err != nil {
			return nil, err
		}
		d, err := core.Create(ctx, core.Options{
			HostOptions: core.HostOptions{Store: store, Cache: section, WriteCacheFrac: 0.6},
			VolumeOptions: core.VolumeOptions{
				Volume: fmt.Sprintf("vol%d", i), VolBytes: e.volBytes(), BatchBytes: 4 << 20,
			},
		})
		if err != nil {
			return nil, err
		}
		defer d.Kill()
		disks = append(disks, d)
	}
	for i, d := range disks {
		gen := &workload.Fio{Pattern: workload.RandWrite, BlockSize: 16 << 10, VolBytes: e.volBytes(), TotalBytes: perDisk, Seed: e.Seed + int64(i)}
		c, err := workload.Run(d, gen, nil, 0)
		if err != nil {
			return nil, err
		}
		res.clientOps += c.Writes
		res.clientBytes += c.BytesWritten
		if err := d.Drain(); err != nil {
			return nil, err
		}
	}
	tot := pool.Totals()
	res.backendOps = tot.WriteOps
	res.backendByte = tot.WriteBytes
	res.sizes.Merge(pool.WriteSizes())
	// Client software serializes across all volumes on the one
	// machine; additionally each volume's kernel/user path pipelines
	// only ~2 requests deep over its ~340µs round trip (Table 6), so
	// few volumes cannot saturate the client (the paper's Fig 12 curve
	// grows from ~6K IOPS at 1 vdisk to ~50K at 16).
	perVolume := time.Duration(res.clientOps/uint64(vdisks)) * 337 * time.Microsecond / 2
	clientElapsed := maxDur(
		time.Duration(res.clientOps)*lsvdSoftSerial,
		iomodel.ElapsedMeter(shared.Meter, 32),
		perVolume,
	)
	elapsed := maxDur(clientElapsed, store.ModeledTime(8*min(vdisks, 4)), pool.MaxBusy())
	res.clientIOPS = float64(res.clientOps) / elapsed.Seconds()
	res.utilization = pool.Utilization(elapsed)
	return res, nil
}

func backendLoadRBD(e Env, vdisks int) (*backendLoadResult, error) {
	pool, err := cluster.New(cluster.HDDConfig2())
	if err != nil {
		return nil, err
	}
	res := &backendLoadResult{vdisks: vdisks, sizes: iomodel.NewSizeHistogram()}
	perDisk := backendLoadBudget(e) / int64(vdisks)
	var clientElapsed time.Duration
	var netOps uint64
	for i := 0; i < vdisks; i++ {
		d, err := rbd.New(rbd.Options{Volume: fmt.Sprintf("img%d", i), Pool: pool, VolBytes: e.volBytes()})
		if err != nil {
			return nil, err
		}
		gen := &workload.Fio{Pattern: workload.RandWrite, BlockSize: 16 << 10, VolBytes: e.volBytes(), TotalBytes: perDisk, Seed: e.Seed + int64(i)}
		c, err := workload.Run(d, gen, nil, 0)
		if err != nil {
			return nil, err
		}
		res.clientOps += c.Writes
		res.clientBytes += c.BytesWritten
		el := time.Duration(c.Writes) * rbdSoftSerial
		if el > clientElapsed {
			clientElapsed = el
		}
		w, r := d.Ops()
		netOps += w + r
	}
	tot := pool.Totals()
	res.backendOps = tot.WriteOps // RBD ops are random; no merging
	res.backendByte = tot.WriteBytes
	res.sizes.Merge(pool.WriteSizes())
	// RBD is pool-limited: each write waits on replicated HDD commits.
	elapsed := maxDur(clientElapsed, pool.MaxBusy(), time.Duration(netOps)*rbdNetRTT/32/time.Duration(vdisks))
	res.clientIOPS = float64(res.clientOps) / elapsed.Seconds()
	res.utilization = pool.Utilization(elapsed)
	return res, nil
}
