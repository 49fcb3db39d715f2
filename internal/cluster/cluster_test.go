package cluster

import (
	"context"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
)

func TestPoolGeometry(t *testing.T) {
	p, err := New(HDDConfig2())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.disks) != 63 {
		t.Fatalf("disks=%d", len(p.disks))
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Servers: 1, DisksPerServer: 2, ECData: 4, ECParity: 2}); err == nil {
		t.Fatal("EC wider than pool accepted")
	}
	if _, err := New(Config{Servers: 1, DisksPerServer: 1, ECData: 1, ECParity: 0, Replicas: 3}); err == nil {
		t.Fatal("replicas wider than pool accepted")
	}
}

func TestPickDistinct(t *testing.T) {
	p, _ := New(HDDConfig2())
	for _, key := range []string{"a", "b", "vol.00000042"} {
		ds := p.pick(key, 6)
		seen := map[int]bool{}
		for _, d := range ds {
			if seen[d] {
				t.Fatalf("key %q placed twice on disk %d", key, d)
			}
			seen[d] = true
		}
	}
}

// TestRBDWriteAmplification: one replicated 16 KiB write must produce
// 6 device writes (data + WAL at each of 3 replicas) and ~6x the bytes,
// matching §4.5 / Fig 13.
func TestRBDWriteAmplification(t *testing.T) {
	p, _ := New(HDDConfig2())
	const clientWrites = 1000
	const bs = 16 * 1024
	for i := 0; i < clientWrites; i++ {
		p.WriteReplicated(string(rune(i)), bs)
	}
	c := p.Totals()
	if c.WriteOps != 6*clientWrites {
		t.Fatalf("backend ops=%d want %d", c.WriteOps, 6*clientWrites)
	}
	ampl := float64(c.WriteBytes) / float64(clientWrites*bs)
	if ampl < 6.0 || ampl > 8.0 {
		t.Fatalf("byte amplification %.2f, want ~6-7x", ampl)
	}
}

// TestLSVDObjectEfficiency: batching 256 16 KiB writes into one 4 MiB
// EC object costs ~64 device writes — i.e. 0.25 backend I/Os per client
// write (§4.5), with chunk writes around 1 MiB (Fig 14).
func TestLSVDObjectEfficiency(t *testing.T) {
	p, _ := New(HDDConfig2())
	p.PutObject("vol.00000001", 4*block.MiB)
	c := p.Totals()
	if c.WriteOps < 60 || c.WriteOps > 68 {
		t.Fatalf("writes per 4MiB object = %d, want ~64", c.WriteOps)
	}
	// 6 chunks of 1 MiB + metadata: byte amplification ~1.55x
	// (1.5x EC expansion plus metadata).
	ampl := float64(c.WriteBytes) / float64(4*block.MiB)
	if ampl < 1.45 || ampl > 1.75 {
		t.Fatalf("EC byte amplification %.2f", ampl)
	}
	// Histogram: chunk writes land in the 1 MiB bucket.
	var mib uint64
	for _, row := range p.WriteSizes().Buckets() {
		if row.Low == 1<<20 {
			mib = row.Count
		}
	}
	if mib != 6 {
		t.Fatalf("1MiB-bucket writes = %d, want 6", mib)
	}
}

func TestReadPaths(t *testing.T) {
	p, _ := New(HDDConfig2())
	// Range read within one EC chunk: a single device read.
	p.ReadObjectRange("o", 4*block.MiB, 0, 64*1024)
	if c := p.Totals(); c.ReadOps != 1 {
		t.Fatalf("single-chunk range read cost %d ops", c.ReadOps)
	}
	p.Reset()
	// Full-object read touches all 4 data chunks.
	p.ReadObjectRange("o", 4*block.MiB, 0, 4*block.MiB)
	if c := p.Totals(); c.ReadOps != 4 {
		t.Fatalf("full read cost %d ops", c.ReadOps)
	}
	p.Reset()
	p.ReadReplicated("o", 16*1024)
	if c := p.Totals(); c.ReadOps != 1 {
		t.Fatalf("replicated read cost %d ops", c.ReadOps)
	}
}

func TestUtilization(t *testing.T) {
	p, _ := New(HDDConfig2())
	// Saturate: 370 random writes/disk/sec for 10s worth of work.
	for i := 0; i < 63*3700; i++ {
		p.WriteReplicated(string(rune(i)), 16*1024)
	}
	elapsed := p.MaxBusy()
	if elapsed <= 0 {
		t.Fatal("no busy time")
	}
	u := p.Utilization(elapsed)
	if u < 0.5 || u > 1.0 {
		t.Fatalf("utilization %.2f at saturation", u)
	}
	// Ten times the wall-clock: utilization should drop ~10x.
	u2 := p.Utilization(elapsed * 10)
	if u2 > u/5 {
		t.Fatalf("utilization did not scale with elapsed: %.3f vs %.3f", u2, u)
	}
	p.Reset()
	if p.Totals() != (iomodel.Counters{}) {
		t.Fatal("reset failed")
	}
	if p.Utilization(time.Second) != 0 {
		t.Fatal("idle pool not idle")
	}
}

func TestClusterStore(t *testing.T) {
	ctx := context.Background()
	p, _ := New(SSDConfig1())
	s := NewStore(objstore.NewMem(), p)
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.Put(ctx, "vol.00000001", data); err != nil {
		t.Fatal(err)
	}
	if c := p.Totals(); c.WriteOps == 0 {
		t.Fatal("put not accounted")
	}
	got, err := s.GetRange(ctx, "vol.00000001", 100, 50)
	if err != nil || len(got) != 50 || got[0] != byte(100) {
		t.Fatalf("range: %v", err)
	}
	if c := p.Totals(); c.ReadOps == 0 {
		t.Fatal("read not accounted")
	}
	if err := s.Delete(ctx, "vol.00000001"); err != nil {
		t.Fatal(err)
	}
	names, err := s.List(ctx, "vol.")
	if err != nil || len(names) != 0 {
		t.Fatalf("list after delete: %v %v", names, err)
	}
}
