package blockstore

import (
	"context"
	"fmt"
	"slices"

	"lsvd/internal/journal"
)

// SnapshotInfo describes one snapshot.
type SnapshotInfo struct {
	Name string
	Seq  uint32
}

// snapshotIndexLocked returns the index of the named snapshot, or -1.
//
//lsvd:requires bs.mu
func (s *Store) snapshotIndexLocked(name string) int {
	return slices.IndexFunc(s.snapshots, func(sn snapshot) bool { return sn.Name == name })
}

// CreateSnapshot designates the end of what has been appended as a
// snapshot (§3.6: "any object in the object stream can be designated as
// a snapshot") and waits until it is durable: Mark, then Wait.
func (s *Store) CreateSnapshot(name string) (SnapshotInfo, error) {
	if name == "" {
		return SnapshotInfo{}, fmt.Errorf("blockstore: empty snapshot name")
	}
	m, err := s.Mark(name)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return m.Wait()
}

// Marker is a consistency point in the object stream (Mark): a
// checkpoint marker in the upload pipeline right behind the object that
// sealed everything appended before it, and, when named, a snapshot at
// that object.
type Marker struct {
	s    *Store
	ckpt uint32       // the checkpoint marker's sequence number
	snap SnapshotInfo // Name is "" for a plain checkpoint
}

// Mark makes the end of what has been appended a consistency point
// without waiting for it to be durable. It seals the open batch, names
// the sealed position snapshot name (unless name is "") — pinned from
// now on, so nothing the snapshot reads is deleted, and published by
// this marker's superblock — and queues a checkpoint marker right behind
// it, so the checkpoint covers exactly what was appended before the
// call. Appends after Mark returns queue behind the marker and never
// wait for its PUTs. Mark itself waits only for a seal's pipeline slot
// and for a checkpoint marker already queued to land its superblock:
// the pipeline holds one at a time.
func (s *Store) Mark(name string) (*Marker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return nil, ErrReadOnly
	}
	s.rearmFailedLocked()
	for {
		for s.ckptQueued {
			if err := s.fenceStepLocked(); err != nil {
				return nil, err
			}
		}
		s.sinceCkpt = 0 // the marker queued below is this interval's checkpoint
		if err := s.sealAsyncLocked(); err != nil {
			return nil, err
		}
		if !s.ckptQueued {
			break // else the GC service queued one while the seal waited for a slot
		}
	}
	m := &Marker{s: s, ckpt: s.nextSeq, snap: SnapshotInfo{Name: name, Seq: s.nextSeq - 1}}
	if name != "" {
		if s.snapshotIndexLocked(name) >= 0 {
			return nil, fmt.Errorf("blockstore: snapshot %q already exists", name)
		}
		s.snapshots = append(s.snapshots, snapshot(m.snap))
	}
	s.queueCheckpointLocked()
	return m, nil
}

// Wait returns once the marker's checkpoint is durable — a superblock
// naming it has landed — resubmitting failures within the fence budget.
// On failure the marker stays queued for a later fence to retry (the
// checkpoint failure contract) and its snapshot is taken back: a
// superblock is encoded per attempt, so the retry does not publish a
// snapshot this call reported as failed.
func (m *Marker) Wait() (SnapshotInfo, error) {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.durable.lastCkpt < m.ckpt {
		if err := s.fenceStepLocked(); err != nil {
			if i := slices.Index(s.snapshots, snapshot(m.snap)); i >= 0 {
				s.snapshots = slices.Delete(s.snapshots, i, i+1)
			}
			return SnapshotInfo{}, err
		}
	}
	return m.snap, nil
}

// DeleteSnapshot removes a snapshot and releases the deferred object
// deletions that it alone was pinning (§3.6). It is a checkpoint with
// the snapshot gone: the marker's super drops the name, and only once
// it has landed does the reaper re-drive the deferred list and delete
// what nothing pins any more (its claim step re-parks the rest). Until
// then the snapshot still pins through the durable super's list, so a
// death committed meanwhile waits too. A delete that fails waits on the
// deferred list for the next checkpoint.
func (s *Store) DeleteSnapshot(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	i := s.snapshotIndexLocked(name)
	if i < 0 {
		return fmt.Errorf("blockstore: snapshot %q not found", name)
	}
	s.snapshots = slices.Delete(s.snapshots, i, i+1)
	return s.checkpointFenceLocked()
}

// Snapshots lists the volume's snapshots.
func (s *Store) Snapshots() []SnapshotInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SnapshotInfo, len(s.snapshots))
	for i, sn := range s.snapshots {
		out[i] = SnapshotInfo{Name: sn.Name, Seq: sn.Seq}
	}
	return out
}

// Clone creates a new volume whose object stream shares, as an
// immutable prefix, the base volume's objects up to the named snapshot
// (§3.6, Fig 5). The base image is never modified, so no reference
// counting is needed; the clone's own objects are numbered after the
// snapshot point and only they are garbage collected.
func Clone(ctx context.Context, base Config, snapName, newVolume string) error {
	base.setDefaults()
	src, err := OpenSnapshot(ctx, base, snapName)
	if err != nil {
		return err
	}
	if src.baseVol != "" {
		return fmt.Errorf("blockstore: cloning a clone (%q) is not supported", base.Volume)
	}
	if err := requireAbsent(ctx, base, newVolume); err != nil {
		return err
	}
	var snapSeq uint32
	for _, sn := range src.snapshots {
		if sn.Name == snapName {
			snapSeq = sn.Seq
		}
	}

	clone := newStore(ctx, base)
	clone.cfg.Volume = newVolume
	clone.volSectors = src.volSectors
	clone.baseVol = base.Volume
	clone.baseSeq = snapSeq
	clone.m = src.m.Clone()
	clone.objects = make(map[uint32]*objInfo, len(src.objects))
	for seq, o := range src.objects {
		if seq > snapSeq {
			continue
		}
		cp := *o
		clone.objects[seq] = &cp
	}
	clone.durableWriteSeq = src.durableWriteSeq
	clone.nextSeq = snapSeq + 1
	clone.indexCkpts()
	clone.mu.Lock()
	defer clone.mu.Unlock()
	return clone.checkpointFenceLocked()
}

// BaseImage returns the clone base (volume, snapshot seq) or "" for a
// standalone volume.
func (s *Store) BaseImage() (string, uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseVol, s.baseSeq
}

// ObjectNames returns the names of all sequence objects currently in
// the volume (own objects only, not the clone base), ascending; used by
// the asynchronous replicator (§4.8).
func (s *Store) ObjectNames() ([]string, error) {
	names, err := s.cfg.Store.List(s.ctx, s.cfg.Volume+".")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if _, ok := parseSeq(s.cfg.Volume, n); ok {
			out = append(out, n)
		}
	}
	return out, nil
}

// Types of a given object seq, for tooling.
func (s *Store) ObjectType(seq uint32) (journal.Type, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[seq]
	if !ok {
		return 0, false
	}
	return o.typ, true
}
