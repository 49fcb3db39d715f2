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
//     Pre-fetching"): backend reads saved on re-reads of
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
		var backendReads [2]uint64
		for i, prefetch := range []uint32{1, 256} { // PrefetchSectors 0 means default; use 1 as "off"
			opts := core.Options{
				HostOptions:   core.HostOptions{WriteCacheFrac: 0.6},
				VolumeOptions: core.VolumeOptions{PrefetchSectors: prefetch, BatchBytes: 2 * block.MiB},
			}
			st, err := newLSVD(ctx, e, e.smallCache(), cluster.SSDConfig1(), opts)
			if err != nil {
				return nil, err
			}
			// Write clusters of temporally-adjacent data...
			buf := make([]byte, 16<<10)
			for c := 0; c < 64; c++ {
				for k := 0; k < 16; k++ {
					off := (int64(c)*997*16<<10 + int64(k)*16<<10) % (e.volBytes() - int64(len(buf)))
					off &^= block.BlockSize - 1
					if err := st.disk.WriteAt(buf, off); err != nil {
						return nil, err
					}
				}
			}
			if err := st.disk.Drain(); err != nil {
				return nil, err
			}
			// ...lose the cache, then re-read each cluster in order:
			// with temporal prefetch the first miss pulls the rest. The
			// old stack's pipeline is killed so it cannot race the
			// reopened volume.
			st.disk.Kill()
			opts.Volume, opts.Store, opts.CacheDev = "vol", st.store, newBlankCache(e)
			disk2, err := core.Open(ctx, opts)
			if err != nil {
				return nil, err
			}
			for c := 0; c < 64; c++ {
				for k := 0; k < 16; k++ {
					off := (int64(c)*997*16<<10 + int64(k)*16<<10) % (e.volBytes() - int64(len(buf)))
					off &^= block.BlockSize - 1
					if err := disk2.ReadAt(buf, off); err != nil {
						return nil, err
					}
				}
			}
			backendReads[i] = disk2.Stats().BackendReadSectors
		}
		t.Rows = append(t.Rows, []string{"temporal prefetch", "backend sectors read",
			fmt.Sprint(backendReads[0]), fmt.Sprint(backendReads[1])})
	}

	// 2. GC fetch from local cache.
	{
		var gets [2]uint64
		for i, disable := range []bool{true, false} {
			// GCLowWater -1 disables the background service so the
			// explicit RunGC below does all the cleaning: how many GC
			// passes the paced service fits in before Drain returns is
			// scheduling-dependent, and this ablation compares absolute
			// GET counts between the two runs.
			st, err := newLSVD(ctx, e, e.bigCache(), cluster.SSDConfig1(), core.Options{
				HostOptions: core.HostOptions{WriteCacheFrac: 0.6},
				VolumeOptions: core.VolumeOptions{
					DisableGCCacheFetch: disable, BatchBytes: 1 * block.MiB, GCLowWater: -1,
				},
			})
			if err != nil {
				return nil, err
			}
			// Random churn leaves victims partially live, so the GC
			// must copy data — from the backend, or from the (large)
			// local cache when the optimization is on.
			buf := make([]byte, 64<<10)
			rng := rand.New(rand.NewSource(e.Seed + int64(i)))
			for k := 0; k < 600; k++ {
				off := int64(rng.Intn(256)) * (64 << 10)
				if err := st.disk.WriteAt(buf, off); err != nil {
					return nil, err
				}
			}
			if err := st.disk.Drain(); err != nil {
				return nil, err
			}
			if err := st.disk.RunGC(); err != nil {
				return nil, err
			}
			s := st.store.Stats()
			gets[i] = s.GetRanges + s.Gets
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

func newBlankCache(e Env) simdev.Device { return simdev.NewMem(e.smallCache()) }
