package lsvd

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §3 maps each to its driver), plus
// raw data-path micro-benchmarks of the library itself.
//
// The experiment benchmarks execute the full scaled experiment once
// per iteration and report the run time; the tables themselves are
// printed in verbose mode and saved by `go run ./cmd/lsvd-bench`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lsvd/internal/experiments"
)

var benchEnv = experiments.Env{Scale: 64, Seed: 1}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(ctx, benchEnv, name)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tab.String())
		}
	}
}

// ---- one benchmark per paper table/figure ----

func BenchmarkFig06RandWrite(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig07RandRead(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkSec421SeqRead(b *testing.B)       { benchExperiment(b, "seqread") }
func BenchmarkFig08Filebench(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkTable03Signatures(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFig09SmallCacheRand(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10SmallCacheSeq(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Writeback(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkTable04Crash(b *testing.B)        { benchExperiment(b, "table4") }
func BenchmarkFig12BackendLoad(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13Amplification(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14WriteSizes(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15GC(b *testing.B)             { benchExperiment(b, "fig15") }
func BenchmarkSec46GCSlowdown(b *testing.B)     { benchExperiment(b, "gcslowdown") }
func BenchmarkTable06Breakdown(b *testing.B)    { benchExperiment(b, "table6") }
func BenchmarkFig16Replication(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkSec49Cost(b *testing.B)           { benchExperiment(b, "sec49") }

// Table 5 runs the 9-trace GC simulation matrix; it is the heaviest
// experiment, so it runs at a harder scale through the same driver.
func BenchmarkTable05GCSim(b *testing.B) { benchExperiment(b, "table5") }

// ---- library data-path micro-benchmarks ----

func newBenchDisk(b *testing.B, cacheBytes, volBytes int64) *Disk {
	b.Helper()
	d, err := Create(context.Background(), VolumeOptions{
		Name: fmt.Sprintf("bench-%d", rand.Int63()), Store: MemStore(),
		Cache: MemCacheDevice(cacheBytes), Size: volBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDiskWrite4K(b *testing.B) {
	d := newBenchDisk(b, 1*GiB, 1*GiB)
	buf := make([]byte, 4096)
	blocks := d.Size() / 4096
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, rng.Int63n(blocks)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskWrite64K(b *testing.B) {
	d := newBenchDisk(b, 1*GiB, 1*GiB)
	buf := make([]byte, 64*1024)
	blocks := d.Size() / (64 * 1024)
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, rng.Int63n(blocks)*64*1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskReadHit4K(b *testing.B) {
	d := newBenchDisk(b, 1*GiB, 256*MiB)
	buf := make([]byte, 4096)
	// Populate so reads hit the write cache.
	for off := int64(0); off < d.Size(); off += 4096 {
		if err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	blocks := d.Size() / 4096
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ReadAt(buf, rng.Int63n(blocks)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskFlush(b *testing.B) {
	d := newBenchDisk(b, 256*MiB, 256*MiB)
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, int64(i%1000)*4096); err != nil {
			b.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out
// (prefetch, GC-from-cache, coalescing).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// slowPutStore adds a fixed latency to every backend PUT, modeling an
// S3 endpoint, so the ack-latency benchmarks show what the write path
// waits on.
type slowPutStore struct {
	ObjectStore
	delay time.Duration
}

func (s *slowPutStore) Put(ctx context.Context, name string, data []byte) error {
	time.Sleep(s.delay)
	return s.ObjectStore.Put(ctx, name, data)
}

// Write-acknowledgement latency over a backend whose PUTs take 1 ms:
// PUTs overlap with new writes and the ack waits only for the local
// log append.
func BenchmarkDiskWriteAckAsync4K(b *testing.B) {
	d, err := Create(context.Background(), VolumeOptions{
		Name:  fmt.Sprintf("bench-%d", rand.Int63()),
		Store: &slowPutStore{ObjectStore: MemStore(), delay: time.Millisecond},
		Cache: MemCacheDevice(1 * GiB), Size: 1 * GiB,
		BatchBytes: 256 * KiB, // seal often so destage latency matters
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, 4096)
	blocks := d.Size() / 4096
	b.SetBytes(4096)
	b.ResetTimer()
	// Sequential stream: extents coalesce so the maps stay small and
	// the measured cost is the destage path, not map maintenance.
	for i := 0; i < b.N; i++ {
		if err := d.WriteAt(buf, int64(i)%blocks*4096); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkDiskConcurrentReads measures read throughput with many
// readers on one volume — the lock-free read path lets them proceed
// in parallel.
func BenchmarkDiskConcurrentReads(b *testing.B) {
	d := newBenchDisk(b, 1*GiB, 256*MiB)
	defer d.Close()
	buf := make([]byte, 4096)
	for off := int64(0); off < d.Size(); off += 4096 {
		if err := d.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	blocks := d.Size() / 4096
	b.SetBytes(4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd := make([]byte, 4096)
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			if err := d.ReadAt(rd, rng.Int63n(blocks)*4096); err != nil {
				b.Fatal(err)
			}
		}
	})
}
