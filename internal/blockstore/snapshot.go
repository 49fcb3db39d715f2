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

// CreateSnapshot seals the pending batch and designates the resulting
// log position as a snapshot (§3.6: "any object in the object stream
// can be designated as a snapshot"). The snapshot is durable once the
// accompanying checkpoint and superblock update complete.
func (s *Store) CreateSnapshot(name string) (SnapshotInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return SnapshotInfo{}, ErrReadOnly
	}
	if s.snapshotIndexLocked(name) >= 0 {
		return SnapshotInfo{}, fmt.Errorf("blockstore: snapshot %q already exists", name)
	}
	if err := s.sealAndWaitLocked(); err != nil {
		return SnapshotInfo{}, err
	}
	seq := s.nextSeq - 1
	s.snapshots = append(s.snapshots, snapshot{Name: name, Seq: seq})
	if err := s.checkpointFenceLocked(); err != nil {
		// The marker stays queued and a later fence retries it; its super
		// is encoded per attempt, so taking the entry back here keeps the
		// retry from publishing a snapshot this call reported as failed.
		if i := s.snapshotIndexLocked(name); i >= 0 {
			s.snapshots = slices.Delete(s.snapshots, i, i+1)
		}
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Name: name, Seq: seq}, nil
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
	if s.snapshotIndexLocked(name) < 0 {
		return fmt.Errorf("blockstore: snapshot %q not found", name)
	}
	s.rearmFailedLocked()
	if err := s.waitInflightLocked(); err != nil {
		return err
	}
	// The fence released s.mu: look the name up again.
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
