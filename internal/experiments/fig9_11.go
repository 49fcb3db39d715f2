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

// Fig9 reproduces Figure 9: random writes with a small (5 GB) cache —
// sustained performance limited by write-back (§4.3).
func Fig9(ctx context.Context, e Env) (*Table, error) {
	return smallCacheMatrix(ctx, e, workload.RandWrite, "Fig 9: random writes, small (5GB) cache (MB/s)")
}

// Fig10 reproduces Figure 10: sequential writes, small cache.
func Fig10(ctx context.Context, e Env) (*Table, error) {
	return smallCacheMatrix(ctx, e, workload.SeqWrite, "Fig 10: sequential writes, small (5GB) cache (MB/s)")
}

func smallCacheMatrix(ctx context.Context, e Env, pattern workload.Pattern, title string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"bs", "qd", "LSVD", "bcache+RBD", "ratio"},
	}
	for _, bs := range microBlockSizes {
		for _, qd := range microQueueDepth {
			l, err := smallCacheLSVD(ctx, e, pattern, bs, qd)
			if err != nil {
				return nil, err
			}
			b, err := smallCacheBcache(e, pattern, bs, qd)
			if err != nil {
				return nil, err
			}
			ratio := 0.0
			if b > 0 {
				ratio = l / b
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dK", bs/1024), fmt.Sprintf("%d", qd), f1(l), f1(b), f2(ratio),
			})
		}
	}
	return t, nil
}

// smallCacheBudget writes several times the cache size so the run is
// dominated by sustained write-back, as in the paper's 120 s tests.
func smallCacheBudget(e Env) int64 {
	b := 4 * e.smallCache()
	if b > 1<<30 {
		b = 1 << 30
	}
	return b
}

func smallCacheLSVD(ctx context.Context, e Env, pattern workload.Pattern, bs, qd int) (float64, error) {
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), core.Options{HostOptions: core.HostOptions{WriteCacheFrac: 0.6}})
	if err != nil {
		return 0, err
	}
	defer st.disk.Kill()
	gen := &workload.Fio{Pattern: pattern, BlockSize: bs, VolBytes: e.volBytes(), TotalBytes: smallCacheBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.disk, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	el := st.elapsed(c.Writes, qd, 0)
	return throughputMBs(c.BytesWritten, el), nil
}

func smallCacheBcache(e Env, pattern workload.Pattern, bs, qd int) (float64, error) {
	st, err := newBcacheRBD(e, e.smallCache(), cluster.SSDConfig1())
	if err != nil {
		return 0, err
	}
	gen := &workload.Fio{Pattern: pattern, BlockSize: bs, VolBytes: e.volBytes(), TotalBytes: smallCacheBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.cache, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	el := st.elapsed(c.Writes, qd, 0)
	return throughputMBs(c.BytesWritten, el), nil
}

// Fig11 reproduces Figure 11: write-back behaviour over time. The
// client performs 20 GB of 4 KiB random writes to an 80 GB volume on
// the HDD backend; LSVD destages concurrently while bcache defers
// write-back until the load stops (§4.4).
func Fig11(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 11: write-back behavior (client done / backend synced, seconds)",
		Header: []string{"system", "client done (s)", "synced (s)", "avg writeback MB/s"},
	}
	totalWrites := 20 * int64(1<<30) / e.Scale

	row, err := fig11LSVD(ctx, e, totalWrites)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, row)

	// bcache+RBD: no write-back during load; after the client stops,
	// the dirty cache drains to the replicated backend at HDD speed.
	{
		st, err := newBcacheRBD(e, e.smallCache(), cluster.HDDConfig2())
		if err != nil {
			return nil, err
		}
		gen := &workload.Fio{Pattern: workload.RandWrite, BlockSize: 4096, VolBytes: e.volBytes(), TotalBytes: totalWrites, Seed: e.Seed}
		c, err := workload.Run(st.cache, gen, nil, 0)
		if err != nil {
			return nil, err
		}
		clientDone := st.elapsed(c.Writes, 32, 0)
		preWB := st.cache.Stats().WriteBackBytes
		preBusy := st.pool.MaxBusy()
		preW, preR := st.backing.Ops()
		if err := st.cache.WriteBack(1 << 62); err != nil {
			return nil, err
		}
		wbBytes := st.cache.Stats().WriteBackBytes - preWB
		// Write-back time: only the post-load activity counts, and
		// bcache's write-back thread keeps just a couple of requests
		// in flight.
		w, r := st.backing.Ops()
		wbTime := maxDur(st.pool.MaxBusy()-preBusy, time.Duration(w+r-preW-preR)*rbdNetRTT/2)
		synced := clientDone + wbTime
		_ = iomodel.Counters{}
		t.Rows = append(t.Rows, []string{
			"bcache+RBD", f1(clientDone.Seconds()), f1(synced.Seconds()),
			f1(throughputMBs(wbBytes, wbTime)),
		})
	}
	return t, nil
}

// fig11LSVD is Fig 11's LSVD row: write-back proceeds during the load,
// so the volume is synced (cache fully destaged) almost immediately
// after the last write.
func fig11LSVD(ctx context.Context, e Env, totalWrites int64) ([]string, error) {
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.HDDConfig2(), core.Options{HostOptions: core.HostOptions{WriteCacheFrac: 0.6}})
	if err != nil {
		return nil, err
	}
	defer st.disk.Kill()
	gen := &workload.Fio{Pattern: workload.RandWrite, BlockSize: 4096, VolBytes: e.volBytes(), TotalBytes: totalWrites, Seed: e.Seed}
	c, err := workload.Run(st.disk, gen, nil, 0)
	if err != nil {
		return nil, err
	}
	clientDone := st.elapsed(c.Writes, 32, 0)
	if err := st.disk.Drain(); err != nil {
		return nil, err
	}
	synced := st.elapsed(c.Writes, 32, 0) // destage already accounted
	wb := st.store.Stats().BytesPut
	return []string{
		"LSVD", f1(clientDone.Seconds()), f1(synced.Seconds()),
		f1(throughputMBs(wb, synced)),
	}, nil
}
