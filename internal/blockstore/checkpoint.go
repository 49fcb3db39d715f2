package blockstore

import (
	"encoding/binary"
	"slices"
	"time"

	"lsvd/internal/invariant"
	"lsvd/internal/journal"
)

// A checkpoint (§3.3) is a numbered object in the stream and then a
// superblock that points at it, and there is one way to write one: a
// MARKER in the upload pipeline (queueCheckpointLocked). The marker
// reserves its sequence number when it is queued; its state snapshot is
// taken under a short hold of s.mu (fillCkptShotLocked) only when the
// marker reaches the front of the in-flight list — once every earlier
// object has committed — so the checkpoint covers exactly the committed
// prefix without draining the pipeline. The two PUTs — checkpoint
// object, then superblock — run on the marker's goroutine with s.mu
// released. The marker holds the in-order commit walk for the
// checkpoint object PUT and never for the super: once the object has
// landed no later object can commit above a hole at the checkpoint's
// sequence, which is all the gap rule needs, so the marker leaves the
// walk (checkpointObjectDurableLocked) and the objects waiting behind
// it commit while its super is PUT. Recovery replays a durable
// checkpoint the super does not name yet like any suffix object.
// ckptQueued stays set until the super lands, so at most one super is
// ever in flight and no second marker is queued meanwhile.
//
// The write path queues a marker every CheckpointEvery objects and the
// GC service queues one when it has idled past the interval. Mark (hence
// CreateSnapshot, and core's Checkpoint and Snapshot) queues one right
// behind the batch it seals and waits for that marker's super alone,
// while appends go on behind it. The full fences — Checkpoint (hence
// core's Close), DeleteSnapshot, Create and Clone — queue the same marker
// on a drained pipeline and wait for the pipeline to drain again, super
// and victims' deletes included (checkpointFenceLocked).
//
// Failure contract. A marker whose checkpoint object PUT fails stays at
// the front of the in-flight list with its sequence number: the number
// is never handed back, so the log stays dense, and nothing behind the
// marker commits. A fence resubmits it up to uploadAttempts() times,
// then returns the error and leaves it queued; the next fence (Seal,
// Checkpoint, a snapshot call) re-arms it with a fresh budget. A marker
// whose object landed and whose super PUT fails is OWED a super
// (s.superOwed): objects behind it keep committing, but the release rule
// still reads the last landed super (s.durable), so nothing above the
// checkpoint that super names is released, and no new marker is queued. Every fence re-arms the super
// with a fresh budget, re-encodes it (armSuperLocked) — so it publishes
// the snapshot list of the moment it runs, not of the moment the marker
// was queued — re-PUTs it up to uploadAttempts() times and returns the
// error while it still fails. The fences and Abort wait for a super PUT
// in flight like any other.
//
// Open. A checkpoint recovery loaded from the suffix is owed its super
// too, and its deferred list names victims newer than the checkpoint
// the super still names. Open therefore PUTs a super naming it before
// it reaps anything; if that PUT fails, s.durable still names the older
// checkpoint and the release rule holds back what lies above it
// (recover.go).
//
// A checkpoint whose super landed RELEASES what was waiting for it; it
// does not delete it. Most garbage never waits for a checkpoint: an
// object that dies below the named checkpoint goes to the reaper from
// the commit that killed it (releaseLocked). What does wait is an
// object that died in the replay suffix, and every checkpoint the new
// one supersedes; and what s.deferred holds, pinned or failed, is
// re-driven. finalizeCheckpointLocked hands these to the reaper
// (reap.go), which parks the pinned ones on s.deferred and claims the
// rest in s.reaping. The backend deletes then run off s.mu, fanned out,
// on the goroutine that PUT the super, with the commit walk long past
// the marker.
//
// Ordering rules the crash-consistency tests depend on. putSuper and
// open are the only writers of a superblock, so rules 1 and 2 hold for
// every super write, a snapshot's creation and deletion included:
//
//   1. The superblock PUT starts only after the checkpoint object PUT
//      completed — the super never names a checkpoint that isn't
//      durable.
//   2. Nothing a recovery can read is deleted. Recovery loads the
//      checkpoint the durable super names (s.durable) and replays the
//      objects after it, so a dead data or GC object is deleted only
//      once it lies below that checkpoint (releaseLocked) — an object in
//      the suffix would hole the replay; the objects that killed it
//      committed in sequence order, so every recovery replays them. A
//      checkpoint object is deleted only once a super names a newer one
//      and no snapshot's chain walk reads it (supersededLocked). What a
//      snapshot pins is deleted only after the super that drops the
//      snapshot has landed: the pins count the snapshots s.durable
//      lists as well as s.snapshots (snapPinsLocked), so a snapshot the
//      durable super lists stays mountable.
//   3. Every checkpoint payload lists s.deferred, s.pending and
//      s.reaping together as its deferred list, and keeps all of them
//      in its object table. A crash in the middle of a reap therefore
//      loses nothing: open puts the whole list back under the release
//      rule (a delete that already landed finds the object missing,
//      which counts as done), whichever checkpoint it recovers from.
//   4. Abort claims no new reap, arms no super, and returns only once
//      s.reaping is empty and every issued PUT — a super included — has
//      finished: the backend stops changing. The fences
//      (waitInflightLocked, hence Seal, Checkpoint, the snapshot calls
//      and core's Close) wait for the owed super and for s.reaping to
//      empty as well, so "the pipeline is drained" still means no
//      backend operation of this store is in flight, and a checkpoint
//      fence returns with its victims gone.

// checkpointPayload: the serialized object map, the object table,
// deferred deletes, the durable write watermark and a pointer to the
// previous checkpoint (for snapshot mounts that need an older one).
type checkpointPayload struct {
	prevCkpt        uint32
	durableWriteSeq uint64
	nextSeq         uint32
	objects         []objInfo
	deferred        []deferredDelete
	mapBytes        []byte
}

// ckptShot is one checkpoint's state snapshot, taken under s.mu in
// fillCkptShotLocked and consumed off-lock by putCheckpointObject.
// payload aliases s.ckptBuf (reused across checkpoints; ckptQueued keeps
// at most one shot alive until its super lands). rec, the encoded
// object, is kept for a resubmitted object PUT; super is what the
// latest attempt of its superblock PUT carries.
type ckptShot struct {
	seq      uint32
	writeSeq uint64
	payload  []byte
	rec      []byte
	super    *superblock
}

// fillCkptShotLocked snapshots the volume state for a checkpoint at
// shot.seq (already reserved by the caller) into the reused encode
// buffer. It is the only part of a checkpoint that runs under s.mu;
// its duration is the foreground stall and is recorded for the
// tooling.
//
//lsvd:requires bs.mu
func (s *Store) fillCkptShotLocked(shot *ckptShot) error {
	start := time.Now()
	if err := s.sweepOrphansLocked(); err != nil {
		return err
	}
	var w journal.Codec
	w.Buf = s.ckptBuf[:0]
	w.PutU32(s.lastCkpt)
	w.PutU64(s.durableWriteSeq)
	w.PutU32(s.nextSeq)
	w.PutU32(uint32(len(s.objects)))
	for _, o := range s.objects {
		w.PutU32(o.seq)
		w.PutU32(uint32(o.typ))
		w.PutU64(uint64(o.totalBytes))
		w.PutU32(o.hdrSectors)
		w.PutU32(o.dataSectors)
		w.PutU32(o.liveSectors)
		w.PutU64(o.writeSeq)
	}
	// Rule 3: a victim mid-reap is still listed, so open re-drives it.
	w.PutU32(uint32(len(s.deferred) + len(s.pending) + len(s.reaping)))
	for _, ds := range [][]deferredDelete{s.deferred, s.pending} {
		for _, d := range ds {
			w.PutU32(d.Obj)
			w.PutU32(d.GCSeq)
		}
	}
	for _, d := range s.reaping {
		w.PutU32(d.Obj)
		w.PutU32(d.GCSeq)
	}
	// The map marshals straight into the payload buffer behind its
	// length prefix — no intermediate allocation.
	lenOff := len(w.Buf)
	w.PutU32(0)
	w.Buf = s.m.AppendBinary(w.Buf)
	binary.LittleEndian.PutUint32(w.Buf[lenOff:], uint32(len(w.Buf)-lenOff-4))
	s.ckptBuf = w.Buf

	shot.payload = w.Buf
	shot.writeSeq = s.durableWriteSeq
	s.sinceCkpt = 0
	s.stats.lastCkptStallNanos = time.Since(start).Nanoseconds()
	return nil
}

// putCheckpointObject PUTs a checkpoint's object, encoding it on the
// first attempt. Called WITHOUT s.mu held. Neither it nor putSuper
// takes an upload-gate slot: checkpoints are rare control-plane I/O.
func (s *Store) putCheckpointObject(shot *ckptShot) error {
	if shot.rec == nil {
		h := &journal.Header{
			Type: journal.TypeCheckpoint, Seq: uint64(shot.seq),
			WriteSeq: shot.writeSeq, DataLen: uint64(len(shot.payload)),
		}
		rec, err := journal.EncodeSectorHeader(h, shot.payload)
		if err != nil {
			return err
		}
		shot.rec = rec
	}
	return s.cfg.Store.Put(s.ctx, objName(s.cfg.Volume, shot.seq), shot.rec)
}

// checkpointObjectDurableLocked takes a marker whose checkpoint object
// has landed off the commit walk: the object joins the table and the
// replication feed, and the marker becomes the checkpoint owed a
// superblock, holding ckptQueued until putSuper clears it.
//
//lsvd:requires bs.mu
func (s *Store) checkpointObjectDurableLocked(inf *inflightObj) {
	invariant.Assertf(len(s.inflight) > 0 && s.inflight[0] == inf && s.superOwed == nil,
		"blockstore: checkpoint %d landed off the front of the commit walk", inf.seq)
	s.inflight = s.inflight[1:]
	shot := inf.ckpt
	s.objects[shot.seq] = &objInfo{seq: shot.seq, typ: journal.TypeCheckpoint, totalBytes: int64(len(shot.rec))}
	s.ckpts = append(s.ckpts, shot.seq) // the highest sequence number in the table
	s.shipPublishLocked(shot.seq, journal.TypeCheckpoint, int64(len(shot.rec)))
	inf.attempts = 0
	s.superOwed = inf
}

// armSuperLocked encodes the owed checkpoint's superblock, for every
// attempt, with the snapshot list of this moment — a retry must not
// publish a snapshot a failed CreateSnapshot has since taken back — and
// marks its PUT in flight. It returns nil, leaving the attempt failed,
// when the encode fails or Abort has landed: the backend stops
// changing.
//
//lsvd:requires bs.mu
func (s *Store) armSuperLocked(inf *inflightObj) []byte {
	inf.done, inf.err = false, nil
	inf.attempts++
	sb := s.superNaming(inf.seq)
	super, err := encodeSuper(sb)
	if err == nil && s.aborting {
		err = ErrReadOnly
	}
	if err != nil {
		inf.done, inf.err = true, err
		return nil
	}
	inf.ckpt.super = sb
	return super
}

// superNaming is the volume's superblock naming checkpoint ckpt,
// with a copy of the snapshot list of this moment. Callers hold s.mu,
// or are recovery before the store is published.
func (s *Store) superNaming(ckpt uint32) *superblock {
	return &superblock{
		volSectors: s.volSectors, lastCkpt: ckpt,
		baseVol: s.baseVol, baseSeq: s.baseSeq, snapshots: slices.Clone(s.snapshots),
	}
}

// putSuper PUTs the owed checkpoint's superblock as armSuperLocked
// encoded it. Called WITHOUT s.mu held. On success the checkpoint
// is finalized, its released victims are reaped here, off s.mu, and
// ckptQueued clears; on failure the checkpoint stays owed and the next
// fence retries it.
func (s *Store) putSuper(inf *inflightObj, super []byte) {
	err := s.cfg.Store.Put(s.ctx, superName(s.cfg.Volume), super)
	s.mu.Lock()
	var victims []deferredDelete
	if err == nil {
		victims = s.finalizeCheckpointLocked(inf.ckpt)
		s.superOwed = nil
		s.ckptQueued = false
	}
	inf.done, inf.err = true, err
	s.commitCond.Broadcast()
	s.mu.Unlock()
	_ = s.reap(victims) // failures wait on s.deferred for the next checkpoint
}

// finalizeCheckpointLocked applies a checkpoint whose superblock has
// landed to the in-memory state — the super it carried becomes
// s.durable — and claims, for the caller to reap, what was waiting for
// it (rule 2 above): the checkpoints below it no chain walk reads, what
// the release rule now releases, and s.deferred, re-driven because a
// snapshot the super dropped pins nothing any more and a failed delete
// is owed a retry.
//
//lsvd:requires bs.mu
func (s *Store) finalizeCheckpointLocked(shot *ckptShot) []deferredDelete {
	s.lastCkpt = shot.seq
	s.durable = shot.super
	s.stats.checkpoints++
	// The shipper re-copies the superblock once the checkpoint it names
	// (published when it landed) is on the replica.
	s.shipPublishLocked(0, journal.TypeSuper, 0)
	s.supersededLocked()
	return s.reapClaimLocked(append(s.redriveLocked(), s.releaseLocked()...))
}

// Checkpoint writes the volume's map and metadata as a numbered object
// in the stream (§3.3), updates the superblock pointer, and releases
// object deletions that were waiting for a checkpoint. It returns once
// those deletions have been attempted.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	return s.checkpointFenceLocked()
}

// checkpointFenceLocked is the full checkpoint fence: drain the
// pipeline, queue a marker on it (so the marker starts at once and
// covers everything sealed so far) and wait for the pipeline to drain
// again — marker durable, released victims reaped. s.mu is down while it
// waits, so objects sealed meanwhile queue behind the marker and are
// waited for too. On failure the marker stays queued (see the failure
// contract above); callers undo only their own in-memory change.
//
//lsvd:requires bs.mu
func (s *Store) checkpointFenceLocked() error {
	s.rearmFailedLocked()
	if err := s.waitInflightLocked(); err != nil {
		return err
	}
	if s.aborting {
		// Abort landed while the opening fence had s.mu down and has
		// promised that the backend stops changing.
		return ErrReadOnly
	}
	s.queueCheckpointLocked()
	return s.waitInflightLocked()
}

func decodeCheckpoint(data []byte) (*checkpointPayload, error) {
	r := journal.Codec{Buf: data}
	p := &checkpointPayload{}
	p.prevCkpt = r.U32()
	p.durableWriteSeq = r.U64()
	p.nextSeq = r.U32()
	nObj := int(r.U32())
	for i := 0; i < nObj && r.Err == nil; i++ {
		o := objInfo{}
		o.seq = r.U32()
		o.typ = journal.Type(r.U32())
		o.totalBytes = int64(r.U64())
		o.hdrSectors = r.U32()
		o.dataSectors = r.U32()
		o.liveSectors = r.U32()
		o.writeSeq = r.U64()
		p.objects = append(p.objects, o)
	}
	nDef := int(r.U32())
	for i := 0; i < nDef && r.Err == nil; i++ {
		d := deferredDelete{Obj: r.U32(), GCSeq: r.U32()}
		p.deferred = append(p.deferred, d)
	}
	p.mapBytes = r.Bytes()
	if r.Err != nil {
		return nil, r.Err
	}
	return p, nil
}
