package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lsvd"
	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/extmap"
	"lsvd/internal/iosched"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/readcache"
	"lsvd/internal/simdev"
	"lsvd/internal/workload"
	"lsvd/internal/writecache"
)

// The ladder replays a fixed sample of the workload's own op stream
// against one layer at a time, through that layer's public functions,
// on an undelayed in-memory device or store. Each rung is the cost of
// that layer alone, which the end-to-end numbers cannot separate.
// Every op's extent is used, whether the workload reads or writes it:
// a rung exercises one function, and the stream supplies its
// addresses and sizes. A rung replays the first maxOps ops (50 000 in
// a real run).
// ladderBytes caps a rung's data volume where ops are large.
const ladderBytes = 512 << 20

// perOp times fn over the extents and returns ns per call.
func perOp(exts []block.Extent, fn func(i int, e block.Extent) error) (float64, error) {
	t := time.Now()
	for i, e := range exts {
		if err := fn(i, e); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(len(exts)), nil
}

// runLadder returns the ladder's metrics.
func runLadder(ctx context.Context, w *spec, ops []workload.Op, maxOps int) (metricList, error) {
	var exts []block.Extent
	var total int64
	for _, op := range ops {
		if op.Kind == workload.OpFlush {
			continue
		}
		if len(exts) == maxOps || total+int64(op.Len) > ladderBytes {
			break
		}
		exts = append(exts, block.Extent{LBA: block.LBAFromBytes(op.Off), Sectors: uint32(op.Len / block.SectorSize)})
		total += int64(op.Len)
	}
	data := make([]byte, w.opBytes)
	buf := make([]byte, w.opBytes)
	var out metricList
	// rung times one function over the sample; after a failure the
	// remaining rungs are skipped and the first error is returned.
	var failed error
	rung := func(name, unit string, fn func(i int, e block.Extent) error) {
		if failed != nil {
			return
		}
		ns, err := perOp(exts, fn)
		if err != nil {
			failed = fmt.Errorf("ladder %s: %w", name, err)
		}
		if unit == "us" {
			ns /= 1e3
		}
		out.add(name, unit, ns)
	}

	// journal: frame and parse one cache-log record per op.
	var rec []byte
	hdr := func(i int, e block.Extent) *journal.Header {
		return &journal.Header{Type: journal.TypeData, Seq: uint64(i + 1), WriteSeq: uint64(i + 1),
			Extents: []journal.ExtentEntry{{LBA: e.LBA, Sectors: e.Sectors}}, DataLen: uint64(len(data))}
	}
	rung("journal.ladder_encode_ns", "ns", func(i int, e block.Extent) (err error) {
		rec, err = journal.Encode(hdr(i, e), data, true)
		return err
	})
	rung("journal.ladder_decode_ns", "ns", func(int, block.Extent) error {
		_, _, _, err := journal.Decode(rec, true)
		return err
	})

	// extmap: the map every layer keeps, updated then looked up.
	m := extmap.New()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rung("extmap.ladder_update_ns", "ns", func(i int, e block.Extent) error {
		m.Update(e, extmap.Target{Obj: uint32(i/2048 + 1), Off: block.LBA(i%2048) * block.LBA(e.Sectors)})
		return nil
	})
	rung("extmap.ladder_lookup_ns", "ns", func(_ int, e block.Extent) error {
		m.Lookup(e)
		return nil
	})
	runtime.ReadMemStats(&ms1)
	out.add("extmap.ladder_allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(2*len(exts)))

	// writecache: append to the log (destaged at once, so the ring
	// never fills), then map lookups.
	wcDev := simdev.NewMem(max(w.cacheBytes/5, 16<<20))
	wc, err := writecache.Format(wcDev, writecache.Config{CheckpointBytes: 2 << 20})
	if err != nil {
		return nil, fmt.Errorf("ladder writecache: %w", err)
	}
	rung("writecache.ladder_append_us", "us", func(i int, e block.Extent) error {
		seq := uint64(i + 1)
		err := wc.Append(seq, e, data)
		wc.SetDestaged(seq)
		return err
	})
	rung("writecache.ladder_lookup_us", "us", func(_ int, e block.Extent) error {
		wc.Lookup(e)
		return nil
	})
	if err := wc.Close(); err != nil {
		return nil, err
	}

	// readcache: admit each extent, then read each back.
	rcBytes := (w.cacheBytes * 4 / 5) &^ (1<<20 - 1)
	rc, err := readcache.New(simdev.NewMem(rcBytes), readcache.SizedConfig(rcBytes, readcache.FIFO))
	if err != nil {
		return nil, fmt.Errorf("ladder readcache: %w", err)
	}
	rung("readcache.ladder_insert_us", "us", func(_ int, e block.Extent) error {
		return rc.Insert(e, data)
	})
	rung("readcache.ladder_read_us", "us", func(_ int, e block.Extent) error {
		_, err := rc.ReadExtent(e, buf)
		return err
	})

	// blockstore: batch, seal and upload to a store with no latency.
	bs, err := blockstore.Create(ctx, blockstore.Config{Volume: "ladder", Store: objstore.NewMem(),
		VolSectors: block.LBAFromBytes(w.volBytes), UploadDepth: 4})
	if err != nil {
		return nil, fmt.Errorf("ladder blockstore: %w", err)
	}
	rung("blockstore.ladder_append_us", "us", func(i int, e block.Extent) error {
		return bs.Append(uint64(i+1), e, data)
	})
	if err := bs.Seal(); err != nil {
		return nil, err
	}
	bs.Abort()

	// iosched: one uncontended upload-slot round trip.
	gate := iosched.NewGate(4)
	gate.Register("ladder")
	rung("iosched.ladder_acquire_ns", "ns", func(int, block.Extent) error {
		gate.Acquire("ladder")
		gate.Release("ladder")
		return nil
	})

	// core: the whole volume over a backend with no latency.
	d, err := lsvd.Create(ctx, lsvd.VolumeOptions{Name: "ladder", Store: objstore.NewMem(),
		Cache: simdev.NewMem(w.cacheBytes), Size: w.volBytes})
	if err != nil {
		return nil, fmt.Errorf("ladder core: %w", err)
	}
	rung("core.ladder_write_us", "us", func(_ int, e block.Extent) error {
		return d.WriteAt(data, e.LBA.Bytes())
	})
	if err := d.Close(); err != nil {
		return nil, err
	}
	return out, failed
}
