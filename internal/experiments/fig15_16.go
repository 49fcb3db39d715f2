package experiments

import (
	"context"
	"fmt"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/vdisk"
	"lsvd/internal/workload"
)

// Fig15 reproduces Figure 15: live vs stale backend data over the
// course of a varmail run, with the garbage collector on and off. With
// GC off, garbage grows without bound; with GC on, stale data is held
// to ~30% of the total (the 70% threshold) at a small throughput cost
// (§4.6).
func Fig15(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 15: GC effectiveness, varmail (data sizes in MiB over run fraction)",
		Header: []string{"gc", "t%", "live MiB", "garbage MiB", "util"},
	}
	for _, gcOn := range []bool{false, true} {
		rows, err := fig15Run(ctx, e, gcOn)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig15Run is one varmail run of Fig 15, its backend composition
// sampled at 10 points.
func fig15Run(ctx context.Context, e Env, gcOn bool) ([][]string, error) {
	// Frequent checkpoints release cleaned objects promptly so the
	// on-store garbage tracks the GC's 70/75% thresholds.
	opts := core.Options{
		HostOptions:   core.HostOptions{WriteCacheFrac: 0.6},
		VolumeOptions: core.VolumeOptions{BatchBytes: 2 * block.MiB, CheckpointEvery: 8},
	}
	if !gcOn {
		opts.GCLowWater = -1 // disabled
	}
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), opts)
	if err != nil {
		return nil, err
	}
	defer st.disk.Kill()
	gen := &workload.Filebench{Model: workload.Varmail, VolBytes: e.volBytes(), TotalBytes: 1 << 62, Seed: e.Seed}
	client := &pacedClient{Disk: st.disk, every: fig15OpInterval}
	// Sample backend composition at 10 points through the run.
	const samples = 10
	opsPerSample := uint64(1500)
	var rows [][]string
	for i := 1; i <= samples; i++ {
		if _, err := workload.Run(client, gen, nil, opsPerSample); err != nil {
			return nil, err
		}
		bst := st.disk.Backend().Stats()
		liveMiB := float64(bst.LiveSectors) * block.SectorSize / (1 << 20)
		garbageMiB := float64(bst.DataSectors-bst.LiveSectors) * block.SectorSize / (1 << 20)
		util := 1.0
		if bst.DataSectors > 0 {
			util = float64(bst.LiveSectors) / float64(bst.DataSectors)
		}
		rows = append(rows, []string{
			onOff(gcOn), fmt.Sprint(i * 100 / samples), f1(liveMiB), f1(garbageMiB), f2(util),
		})
	}
	return rows, nil
}

// fig15OpInterval paces Fig 15's client to at most 10 000 reads and
// writes per second of wall time. The collector is a real background
// goroutine, but the client is simulated and would otherwise run at
// whatever speed this host's CPUs allow, so the share of garbage the
// collector keeps up with would measure the host, not the GC policy.
// The pace is still three to eight times what the run's own device
// model (lsvdStack.elapsed) allows at scales 32 to 128, so the
// collector gets less time than on the paper's hardware, not more.
const fig15OpInterval = 100 * time.Microsecond

// pacedClient holds a client to one read or write per interval on
// average. It never banks time: time a slow op overran is not made up
// by later ops running faster than the pace; a client ahead of the
// pace sleeps once it is a millisecond ahead.
type pacedClient struct {
	vdisk.Disk
	every time.Duration
	due   time.Time
}

func (p *pacedClient) pace() {
	now := time.Now()
	if p.due.Before(now) {
		p.due = now
	}
	p.due = p.due.Add(p.every)
	if ahead := p.due.Sub(now); ahead >= time.Millisecond {
		time.Sleep(ahead)
	}
}

func (p *pacedClient) ReadAt(b []byte, off int64) error {
	p.pace()
	return p.Disk.ReadAt(b, off)
}

func (p *pacedClient) WriteAt(b []byte, off int64) error {
	p.pace()
	return p.Disk.WriteAt(b, off)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// GCSlowdown reproduces §4.6's throughput-impact numbers: varmail-like
// churn with GC on vs off (paper: ~2-10% slowdown).
func GCSlowdown(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Sec 4.6: GC throughput impact",
		Header: []string{"workload", "MB/s gc off", "MB/s gc on", "slowdown %"},
	}
	for _, m := range filebenchModels {
		var mbps [2]float64
		for i, gcOn := range []bool{false, true} {
			var err error
			if mbps[i], err = gcSlowdownRun(ctx, e, m, gcOn); err != nil {
				return nil, err
			}
		}
		slow := 0.0
		if mbps[0] > 0 {
			slow = (1 - mbps[1]/mbps[0]) * 100
		}
		t.Rows = append(t.Rows, []string{m.String(), f1(mbps[0]), f1(mbps[1]), f1(slow)})
	}
	return t, nil
}

// gcSlowdownRun is one filebench run of the §4.6 table, in MB/s.
func gcSlowdownRun(ctx context.Context, e Env, m workload.FilebenchModel, gcOn bool) (float64, error) {
	opts := core.Options{
		HostOptions:   core.HostOptions{WriteCacheFrac: 0.6},
		VolumeOptions: core.VolumeOptions{BatchBytes: 2 * block.MiB},
	}
	if !gcOn {
		opts.GCLowWater = -1
	}
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), opts)
	if err != nil {
		return 0, err
	}
	defer st.disk.Kill()
	gen := &workload.Filebench{Model: m, VolBytes: e.volBytes(), TotalBytes: filebenchBudget(e), Seed: e.Seed}
	c, err := workload.Run(st.disk, gen, nil, 0)
	if err != nil {
		return 0, err
	}
	el := st.elapsed(c.Writes+c.Reads, 16, 0)
	return throughputMBs(c.BytesWritten+c.BytesRead, el), nil
}

// Fig16 reproduces Figure 16: asynchronous replication. Three
// fileserver-like workloads (hot/medium/cold) write to the primary
// while the per-volume shipper drains the commit feed into a second
// store under a bounded lag (§4.8); a clean close drains the shipper,
// so the replica ends at zero lag and mounts consistently.
func Fig16(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Fig 16: asynchronous replication",
		Header: []string{"metric", "value"},
	}
	secondary := objstore.NewMem()
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), core.Options{
		HostOptions: core.HostOptions{WriteCacheFrac: 0.6},
		VolumeOptions: core.VolumeOptions{
			BatchBytes:   2 * block.MiB,
			ReplicaStore: secondary, ReplicaMaxLagObjects: 8,
		},
	})
	if err != nil {
		return nil, err
	}
	defer st.disk.Kill()

	// Hot, medium and cold regions via three interleaved generators.
	gens := []*workload.Filebench{
		{Model: workload.Varmail, VolBytes: e.volBytes() / 4, TotalBytes: filebenchBudget(e), Seed: e.Seed},
		{Model: workload.Fileserver, VolBytes: e.volBytes() / 2, TotalBytes: filebenchBudget(e) / 2, Seed: e.Seed + 1},
		{Model: workload.Fileserver, VolBytes: e.volBytes(), TotalBytes: filebenchBudget(e) / 4, Seed: e.Seed + 2},
	}
	for round := 0; round < 12; round++ {
		for _, g := range gens {
			if _, err := workload.Run(st.disk, g, nil, 2000); err != nil {
				return nil, err
			}
		}
	}
	if err := st.disk.Close(); err != nil {
		return nil, err
	}

	// All counters are in-memory reads; safe on a closed disk.
	cst := st.disk.Stats()
	t.Rows = append(t.Rows, []string{"primary object bytes written (MiB)", f1(float64(cst.Backend.BytesPut) / (1 << 20))})
	t.Rows = append(t.Rows, []string{"replicated bytes (MiB)", f1(float64(cst.Replica.CopiedBytes) / (1 << 20))})
	t.Rows = append(t.Rows, []string{"objects copied", fmt.Sprint(cst.Replica.CopiedObjects)})
	t.Rows = append(t.Rows, []string{"write stalls on lag bound", fmt.Sprint(cst.ReplicaStalls)})
	t.Rows = append(t.Rows, []string{"final lag objects", fmt.Sprint(cst.Replica.LagObjects)})

	// The replica must mount consistently (the paper's key check).
	if _, err := replicaMountCheck(ctx, secondary); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"replica mounts consistently", "yes"})
	return t, nil
}

func replicaMountCheck(ctx context.Context, secondary objstore.Store) (bool, error) {
	_, err := coreOpenBackendOnly(ctx, secondary)
	if err != nil {
		return false, fmt.Errorf("replica mount failed: %w", err)
	}
	return true, nil
}
