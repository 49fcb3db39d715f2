package experiments

import (
	"context"
	"fmt"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/costmodel"
	"lsvd/internal/extmap"
	"lsvd/internal/gcsim"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
)

// Table5 reproduces Table 5: simulated LSVD batching and garbage
// collection on the CloudPhysics-like traces, in the paper's three
// configurations, at eight times Env.Scale: the traces are week-long
// (DESIGN.md: ratios are scale-free).
func Table5(ctx context.Context, e Env) (*Table, error) {
	scale := float64(e.Scale) * 8 // traces are week-long; scale harder
	rows, err := gcsim.Table5(ctx, gcsim.Defaults(scale))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table 5: GC simulation (1/%d scale)", int(scale)),
		Header: []string{"trace", "writes GB", "ext nm", "ext m", "ext d", "WAF nm", "WAF m", "WAF d", "merge"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Trace, f2(r.WriteGB),
			fmt.Sprint(r.ExtNoMerge), fmt.Sprint(r.ExtMerge), fmt.Sprint(r.ExtDefrag),
			f2(r.WAFNoMerge), f2(r.WAFMerge), f2(r.WAFDefrag), f2(r.MergeRatio),
		})
	}
	return t, nil
}

// Table6 reproduces Table 6: the fine-grained single-operation
// breakdown for a read miss and a write. Map operations are measured
// live against the real extent map; device and endpoint terms come
// from the calibrated model; context-switch and runtime overheads are
// the paper's measured constants for the kernel/user prototype.
func Table6(ctx context.Context, e Env) (*Table, error) {
	mapNS, err := measureMapNS()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 6: single-op breakdown (µs)",
		Header: []string{"path", "step", "µs", "source"},
	}
	us := func(d time.Duration) string { return f1(float64(d.Nanoseconds()) / 1000) }
	ctxSwitch := 50 * time.Microsecond
	retUser := 22 * time.Microsecond
	retKernel := 27 * time.Microsecond
	goOverheadR := 34 * time.Microsecond
	goOverheadW := 63 * time.Microsecond

	s3 := objstore.NewMetered(objstore.NewMem())
	rd := []struct {
		step string
		d    time.Duration
		src  string
	}{
		{"map lookup", mapNS, "measured (extmap)"},
		{"context switch", ctxSwitch, "paper constant"},
		{"return to user space", retUser, "paper constant"},
		{"golang overhead", goOverheadR, "paper constant"},
		{"S3 range request", s3.GetLatency, "endpoint model"},
		{"write to NVMe", time.Duration(float64(64<<10)/iomodel.NVMeP3700.WriteBW*1e9) + iomodel.NVMeP3700.WriteLatency, "device model"},
		{"return to kernel", retKernel, "paper constant"},
	}
	var totalR time.Duration
	for _, r := range rd {
		t.Rows = append(t.Rows, []string{"read miss", r.step, us(r.d), r.src})
		totalR += r.d
	}
	t.Rows = append(t.Rows, []string{"read miss", "TOTAL", us(totalR), ""})

	wr := []struct {
		step string
		d    time.Duration
		src  string
	}{
		{"write to NVMe", iomodel.NVMeP3700.WriteLatency, "device model"},
		{"map update", mapNS, "measured (extmap)"},
		{"context switch", ctxSwitch, "paper constant"},
		{"return to userspace", 20 * time.Microsecond, "paper constant"},
		{"golang overhead", goOverheadW, "paper constant"},
		{"read from NVMe", iomodel.NVMeP3700.ReadLatency + time.Duration(float64(16<<10)/iomodel.NVMeP3700.ReadBW*1e9), "device model"},
		{"return to kernel", retKernel, "paper constant"},
	}
	var totalW time.Duration
	for _, r := range wr {
		t.Rows = append(t.Rows, []string{"write", r.step, us(r.d), r.src})
		totalW += r.d
	}
	t.Rows = append(t.Rows, []string{"write", "TOTAL", us(totalW), ""})
	return t, nil
}

// measureMapNS times real extent-map updates+lookups on a map sized
// like an active volume's.
func measureMapNS() (time.Duration, error) {
	m := extmap.New()
	for i := 0; i < 100000; i++ {
		m.Update(block.Extent{LBA: block.LBA(i*64) % (1 << 24), Sectors: 32}, extmap.Target{Obj: uint32(i%512 + 1), Off: block.LBA(i * 32)})
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Lookup(block.Extent{LBA: block.LBA(i*97) % (1 << 24), Sectors: 32})
	}
	return time.Since(start) / n, nil
}

// Sec49 reproduces §4.9: EBS vs LSVD-on-AWS monthly cost.
func Sec49(ctx context.Context, e Env) (*Table, error) {
	r := costmodel.Compare(costmodel.AWS2022, costmodel.PaperScenario())
	t := &Table{
		Title:  "Sec 4.9: deployability — monthly cost at ~50K IOPS",
		Header: []string{"option", "$/month"},
	}
	t.Rows = append(t.Rows, []string{"EBS provisioned IOPS (io2)", f0(r.EBSMonthly)})
	t.Rows = append(t.Rows, []string{"LSVD: S3 + instance NVMe", f2(r.LSVDMonthly)})
	t.Rows = append(t.Rows, []string{"ratio", f0(r.Ratio)})
	return t, nil
}

// coreOpenBackendOnly opens a replicated volume's block store directly
// (no cache device) to validate replica consistency.
func coreOpenBackendOnly(ctx context.Context, store objstore.Store) (*blockstore.Store, error) {
	return blockstore.Open(ctx, blockstore.Config{Volume: "vol", Store: store})
}
