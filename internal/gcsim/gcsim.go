// Package gcsim runs the trace-driven garbage-collection simulations
// of the paper's Table 5 (§4.6): LSVD's write batching and greedy GC
// driven by synthetic CloudPhysics-like traces, reporting write
// amplification, final extent-map size, and the intra-batch merge
// ratio, in the paper's three configurations — no merge, merge, and
// merge + defragmentation (hole plugging).
//
// The simulator is not a separate model: it drives the real
// blockstore implementation — the upload pipeline, the GC pass engine,
// the marker checkpoints — over a zero-elided in-memory object store.
// What it replaces is the clock. Production collects from a paced
// background service whose progress depends on wall time; a simulation
// must be repeatable, so Simulate starts no service (GCLowWater 0 to
// the store) and owns the trigger itself: it fences every batch with
// Seal and, when utilization is below the low-water mark, runs the
// forced pass (RunGC) before the next write.
package gcsim

import (
	"context"
	"fmt"

	"lsvd/internal/block"
	"lsvd/internal/blockstore"
	"lsvd/internal/objstore"
	"lsvd/internal/workload"
)

// Mode selects the Table 5 column group.
type Mode int

const (
	// NoMerge disables intra-batch coalescing.
	NoMerge Mode = iota
	// Merge coalesces within batches (the default LSVD behaviour).
	Merge
	// Defrag additionally plugs <=8 KiB map holes during GC.
	Defrag
)

func (m Mode) String() string {
	switch m {
	case NoMerge:
		return "no merge"
	case Merge:
		return "merge"
	default:
		return "defrag"
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// BatchBytes is the write batch size (paper: 32 MiB for Table 5).
	BatchBytes int64
	// GCLowWater / GCHighWater are the collection thresholds
	// (paper: 0.70 start, 0.75 stop).
	GCLowWater, GCHighWater float64
	// ScaleDown divides the trace volume (and footprint) so runs
	// finish quickly; ratios are scale-free.
	ScaleDown float64
	// DefragHoleSectors for Defrag mode (paper: 8 KiB = 16 sectors).
	DefragHoleSectors uint32
}

// Defaults returns the paper's Table 5 configuration at the given
// scale-down factor. The batch size scales with the trace so that the
// dimensionless ratio that drives coalescing and GC behaviour — batch
// bytes per footprint byte — matches the paper's 32 MiB at full scale.
func Defaults(scaleDown float64) Config {
	batch := int64(float64(32*block.MiB) / scaleDown)
	if batch < 128<<10 {
		batch = 128 << 10
	}
	if batch > 32*block.MiB {
		batch = 32 * block.MiB
	}
	return Config{
		BatchBytes: batch, GCLowWater: 0.70, GCHighWater: 0.75,
		ScaleDown: scaleDown, DefragHoleSectors: 16,
	}
}

// Result is one (trace, mode) cell of Table 5.
type Result struct {
	Trace    string
	Mode     Mode
	WriteGB  float64 // client volume actually simulated (scaled)
	Extents  int     // final extent-map size
	WAF      float64 // backend bytes / client bytes
	MergeRat float64 // fraction of client bytes eliminated by batching
	Objects  int
	GCRuns   uint64
}

// Simulate runs one trace in one mode.
func Simulate(ctx context.Context, spec workload.TraceSpec, mode Mode, cfg Config) (Result, error) {
	tr := &workload.Trace{Spec: spec, ScaleDown: cfg.ScaleDown}
	volBytes := tr.VolBytes()

	bs, err := blockstore.Create(ctx, blockstore.Config{
		Volume:          "sim-" + spec.ID,
		Store:           objstore.NewRetrier(objstore.NewMemSlim(), objstore.RetryPolicy{}),
		VolSectors:      block.LBAFromBytes(volBytes),
		BatchBytes:      cfg.BatchBytes,
		GCHighWater:     cfg.GCHighWater, // RunGC's stop mark; the trigger is below
		CheckpointEvery: 64,              // releases deferred deletes; ckpt bytes don't count in WAF
		NoCoalesce:      mode == NoMerge,
		DefragHoleSectors: func() uint32 {
			if mode == Defrag {
				return cfg.DefragHoleSectors
			}
			return 0
		}(),
	})
	if err != nil {
		return Result{}, err
	}

	var ws uint64
	var fill int64
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		ws++
		ext := block.Extent{LBA: block.LBAFromBytes(op.Off), Sectors: uint32(op.Len / block.SectorSize)}
		if err := bs.Append(ws, ext, make([]byte, op.Len)); err != nil {
			return Result{}, fmt.Errorf("trace %s: %w", spec.ID, err)
		}
		if fill += int64(op.Len); fill < cfg.BatchBytes {
			continue
		}
		// The store just sealed this batch; commit it and collect.
		fill = 0
		if err := bs.Seal(); err != nil {
			return Result{}, err
		}
		if bs.Utilization() < cfg.GCLowWater {
			if err := bs.RunGC(); err != nil {
				return Result{}, err
			}
		}
	}
	if err := bs.Seal(); err != nil {
		return Result{}, err
	}
	// A final checkpoint releases pending deletes so object counts are
	// honest.
	if err := bs.Checkpoint(); err != nil {
		return Result{}, err
	}

	st := bs.Stats()
	r := Result{
		Trace:   spec.ID,
		Mode:    mode,
		WriteGB: float64(st.BytesAppended) / float64(block.GiB),
		Extents: st.MapExtents,
		Objects: st.Objects,
		GCRuns:  st.GCRuns,
	}
	if st.BytesAppended > 0 {
		r.WAF = float64(st.BytesPut) / float64(st.BytesAppended)
		r.MergeRat = float64(st.BytesCoalesced) / float64(st.BytesAppended)
	}
	return r, nil
}

// Row aggregates the three modes for one trace — one row of Table 5.
type Row struct {
	Trace                           string
	WriteGB                         float64
	ExtNoMerge, ExtMerge, ExtDefrag int
	WAFNoMerge, WAFMerge, WAFDefrag float64
	MergeRatio                      float64
}

// Table5 simulates all paper traces in all three modes.
func Table5(ctx context.Context, cfg Config) ([]Row, error) {
	var rows []Row
	for _, spec := range workload.PaperTraces {
		row := Row{Trace: spec.ID}
		for _, mode := range []Mode{NoMerge, Merge, Defrag} {
			res, err := Simulate(ctx, spec, mode, cfg)
			if err != nil {
				return nil, err
			}
			row.WriteGB = res.WriteGB
			switch mode {
			case NoMerge:
				row.ExtNoMerge, row.WAFNoMerge = res.Extents, res.WAF
			case Merge:
				row.ExtMerge, row.WAFMerge = res.Extents, res.WAF
				row.MergeRatio = res.MergeRat
			case Defrag:
				row.ExtDefrag, row.WAFDefrag = res.Extents, res.WAF
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
