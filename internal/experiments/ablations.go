package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/cluster"
	"lsvd/internal/core"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// Ablations quantifies the design decisions the paper calls out in
// §3/§6 by toggling each one on the same workload:
//
//   - temporal read prefetch (§3.2, §6.3 "Cache Placement and
//     Pre-fetching"): backend GETs and bytes saved on re-reads of
//     temporally-clustered data;
//   - GC reads from the local cache (§3.5, §6.3 "Garbage Collection"):
//     backend GETs eliminated during cleaning;
//   - intra-batch coalescing (§3.1): backend bytes eliminated on a
//     hot workload.
func Ablations(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Ablations: design-choice deltas (paper Secs 3, 6)",
		Header: []string{"ablation", "metric", "off", "on"},
	}

	// 1. Temporal prefetch.
	{
		var re [2]rereadCost
		for i, prefetch := range []uint32{1, 256} { // PrefetchSectors 0 means default; use 1 as "off"
			var err error
			if re[i], err = prefetchReread(ctx, e, prefetch); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows,
			[]string{"temporal prefetch", "backend data GETs", fmt.Sprint(re[0].gets), fmt.Sprint(re[1].gets)},
			[]string{"temporal prefetch", "backend bytes read", fmt.Sprint(re[0].bytes), fmt.Sprint(re[1].bytes)},
			[]string{"temporal prefetch", "demand sectors from backend", fmt.Sprint(re[0].sectors), fmt.Sprint(re[1].sectors)})
	}

	// 2. GC fetch from local cache.
	{
		var gets [2]uint64
		for i, disable := range []bool{true, false} {
			var err error
			if gets[i], err = gcCleaningGETs(ctx, e, int64(i), disable); err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{"GC reads from cache", "backend GETs",
			fmt.Sprint(gets[0]), fmt.Sprint(gets[1])})
	}

	// 3. Intra-batch coalescing (measured at the block store level).
	{
		var put [2]uint64
		for i, noCoalesce := range []bool{true, false} {
			bs, err := blockstore.Create(ctx, blockstore.Config{
				Volume: "abl", Store: objstore.NewMemSlim(), VolSectors: 1 << 20,
				BatchBytes: 4 * block.MiB, NoCoalesce: noCoalesce, CheckpointEvery: 1 << 30,
			})
			if err != nil {
				return nil, err
			}
			// Journal-like rewrites of the same 64 KiB.
			ws := uint64(0)
			for k := 0; k < 2000; k++ {
				ws++
				ext := block.Extent{LBA: block.LBA((k % 16) * 32), Sectors: 32}
				if err := bs.Append(ws, ext, make([]byte, ext.Bytes())); err != nil {
					return nil, err
				}
			}
			if err := bs.Seal(); err != nil {
				return nil, err
			}
			put[i] = bs.Stats().BytesPut
		}
		t.Rows = append(t.Rows, []string{"intra-batch coalescing", "backend bytes",
			fmt.Sprint(put[0]), fmt.Sprint(put[1])})
	}

	return t, nil
}

// rereadCost is what a re-read cost the backend: the data GETs it
// issued, the bytes the store returned for all its GETs (object headers
// included), and the demand sectors those GETs served.
type rereadCost struct{ gets, bytes, sectors uint64 }

// prefetchReread writes 64 clusters of temporally adjacent data, loses
// the cache, re-reads each cluster in order and returns what the
// re-read cost the backend: with temporal prefetch the first miss pulls
// the rest of its window.
func prefetchReread(ctx context.Context, e Env, prefetch uint32) (rereadCost, error) {
	opts := core.Options{
		HostOptions:   core.HostOptions{WriteCacheFrac: 0.6},
		VolumeOptions: core.VolumeOptions{PrefetchSectors: prefetch, BatchBytes: 2 * block.MiB},
	}
	st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), opts)
	if err != nil {
		return rereadCost{}, err
	}
	defer st.disk.Kill()
	buf := make([]byte, 16<<10)
	clusters := func(io func([]byte, int64) error) error {
		for c := 0; c < 64; c++ {
			for k := 0; k < 16; k++ {
				off := (int64(c)*997*16<<10 + int64(k)*16<<10) % (e.volBytes() - int64(len(buf)))
				if err := io(buf, off&^(block.BlockSize-1)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := clusters(st.disk.WriteAt); err != nil {
		return rereadCost{}, err
	}
	if err := st.disk.Drain(); err != nil {
		return rereadCost{}, err
	}
	// The old stack's pipeline is killed so it cannot race the reopened
	// volume.
	st.disk.Kill()
	opts.Volume, opts.Store, opts.Cache = "vol", st.store, newBlankCache(e)
	disk2, err := core.Open(ctx, opts)
	if err != nil {
		return rereadCost{}, err
	}
	defer disk2.Kill()
	before, gets := st.store.Stats().BytesGot, disk2.Stats().Backend.FetchGETs
	// Drain after every read lands its prefetch extras before the next
	// read looks for them: the count is what the window saves, not how
	// far the read outran the admitter.
	err = clusters(func(p []byte, off int64) error {
		if err := disk2.ReadAt(p, off); err != nil {
			return err
		}
		return disk2.Drain()
	})
	if err != nil {
		return rereadCost{}, err
	}
	return rereadCost{
		gets:    disk2.Stats().Backend.FetchGETs - gets,
		bytes:   st.store.Stats().BytesGot - before,
		sectors: disk2.Stats().BackendReadSectors,
	}, nil
}

// gcCleaningGETs churns a volume with random 64 KiB writes, which leave
// victims partially live, runs one GC pass and returns the backend GETs
// it took to copy their live data: from the backend, or from the
// (large) local cache when the optimization is on. GCLowWater -1
// disables the background service so the explicit RunGC does all the
// cleaning: how many passes the paced service fits in before Drain
// returns is scheduling-dependent, and this ablation compares absolute
// GET counts between the two runs.
func gcCleaningGETs(ctx context.Context, e Env, seed int64, disableCacheFetch bool) (uint64, error) {
	st, err := newLSVD(ctx, e, e.bigCache(), cluster.SSDConfig1(), core.Options{
		HostOptions: core.HostOptions{WriteCacheFrac: 0.6},
		VolumeOptions: core.VolumeOptions{
			DisableGCCacheFetch: disableCacheFetch, BatchBytes: 1 * block.MiB, GCLowWater: -1,
		},
	})
	if err != nil {
		return 0, err
	}
	defer st.disk.Kill()
	buf := make([]byte, 64<<10)
	rng := rand.New(rand.NewSource(e.Seed + seed))
	for k := 0; k < 600; k++ {
		off := int64(rng.Intn(256)) * (64 << 10)
		if err := st.disk.WriteAt(buf, off); err != nil {
			return 0, err
		}
	}
	if err := st.disk.Drain(); err != nil {
		return 0, err
	}
	if err := st.disk.RunGC(); err != nil {
		return 0, err
	}
	s := st.store.Stats()
	return s.GetRanges + s.Gets, nil
}

func newBlankCache(e Env) simdev.Device { return simdev.NewMem(e.smallCache()) }
