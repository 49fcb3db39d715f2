package blockstore

import (
	"fmt"

	"lsvd/internal/block"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// Upload pipeline: the one path by which a batch becomes an object, a
// client batch or a GC pass's copies (writeGCObjectLocked) alike.
// Sealing a batch only snapshots it and reserves its sequence number
// under s.mu; the object image is marshalled inside the upload
// goroutine — off the batch lock, so the next batch fills (and other
// volumes' writers run) while the previous object is still being built
// and PUT, up to Config.UploadDepth at a time. Map and watermark commit
// is strictly in sequence order — an object's extents are installed and
// durableWriteSeq advanced only once every earlier object has
// committed — which is what DurableWriteSeq and the §3.4
// prefix-consistency rule rest on. A crash can strand out-of-order
// uploads on the backend; recovery's gap rule (stop at the first
// missing sequence number, delete anything beyond it) handles that.

// uploadAttempts bounds automatic resubmission of a failed upload
// within one fence; each explicit Seal/Checkpoint grants a fresh
// budget. It is the attempt budget of the Retrier the store is given,
// so "how hard do we try" is one setting: each PUT already retries
// transient errors inside the Retrier, and the fence resubmits a
// persistently failed object this many times on top. A store given no
// Retrier tries once.
func (s *Store) uploadAttempts() int {
	if r, ok := s.cfg.Store.(*objstore.Retrier); ok {
		return r.Policy().Attempts()
	}
	return 1
}

// inflightObj is a sealed object whose PUT has been issued (or failed
// and awaits resubmission) but whose map commit has not yet happened.
// A GC entry (typ TypeGC) carries no client write: its fill is zero.
type inflightObj struct {
	seq       uint32
	typ       journal.Type
	trims     []block.Extent
	coalesced uint64
	maxWrite  uint64
	fill      int64 // client bytes the batch held (for PendingBatch)

	// Build inputs, snapshotted at seal time. The first upload attempt
	// marshals the object vector off s.mu and publishes obj/info/mapped
	// under it (dropping src/exts/offs); resubmissions reuse the vector,
	// whose payload views keep the staging buffers alive. Only the
	// single active upload goroutine touches these fields between
	// done=false and done=true, so the handoff is race-free.
	src  *segments
	exts []journal.ExtentEntry
	offs []int64

	obj    [][]byte // header + zero-copy payload views
	info   *objInfo
	mapped []mappedExtent

	// ckpt marks this entry as a checkpoint marker rather than a data
	// object (see checkpoint.go). The shot is filled when the marker
	// reaches the front of the list; seq is reserved at queue time so
	// the log stays dense. Once its checkpoint object lands the marker
	// leaves the list for s.superOwed, and from then on done, err and
	// attempts describe its superblock PUT.
	ckpt *ckptShot

	done     bool
	err      error
	attempts int
}

// sealAsyncLocked seals the pending batch into an in-flight object and
// starts its upload. It blocks (releasing no state; the condition
// variable drops s.mu) while the pipeline is at capacity. The periodic
// checkpoint is queued as a pipeline marker, never taken inline: the
// seal does not wait for it.
//
//lsvd:requires bs.mu
func (s *Store) sealAsyncLocked() error {
	if s.batch.empty() {
		return nil
	}
	if err := s.reserveUploadSlotLocked(); err != nil {
		return err
	}
	if s.sinceCkpt >= s.cfg.CheckpointEvery && !s.ckptQueued {
		s.queueCheckpointLocked()
	}

	b := s.batch
	seq := s.nextSeq
	exts, offs := batchExtents(b, seq)
	inf := &inflightObj{
		seq: seq, typ: journal.TypeData, trims: b.trims, coalesced: b.coalesced,
		maxWrite: b.maxWrite, fill: b.fill,
		src: &b.segments, exts: exts, offs: offs,
	}
	s.inflight = append(s.inflight, inf)
	s.inflightBytes += b.fill
	s.batch = newBatch(s.cfg.NoCoalesce)
	s.nextSeq++
	s.startUploadLocked(inf, false)
	return nil
}

// queueCheckpointLocked reserves the next sequence number for a
// checkpoint and enqueues it as a marker in the upload pipeline. The
// state snapshot is NOT taken here: it happens when the marker reaches
// the front of the in-flight list — once every earlier object has
// committed — so the checkpoint covers exactly the committed prefix
// without draining the pipeline. sinceCkpt resets now so following
// seals don't queue a second marker, and resets again at snapshot time
// so objects that commit behind the marker (and are therefore inside
// its snapshot) don't count toward the next interval.
//
//lsvd:requires bs.mu
func (s *Store) queueCheckpointLocked() {
	if s.ckptQueued {
		invariant.Failf("blockstore: second checkpoint marker queued at seq %d", s.nextSeq)
	}
	inf := &inflightObj{seq: s.nextSeq, typ: journal.TypeCheckpoint, ckpt: &ckptShot{seq: s.nextSeq}}
	s.nextSeq++
	s.sinceCkpt = 0
	s.ckptQueued = true
	s.inflight = append(s.inflight, inf)
	if len(s.inflight) == 1 {
		s.startCheckpointLocked(inf)
	}
}

// startCheckpointLocked snapshots state for a front-of-pipeline
// checkpoint marker (first attempt only) and PUTs its checkpoint object
// on a fresh goroutine. When the object lands, that goroutine — in one
// hold of s.mu — takes the marker off the commit walk
// (checkpointObjectDurableLocked), commits the objects waiting behind
// it and arms the superblock PUT, which it then runs itself with s.mu
// released (putSuper): the walk waits for the checkpoint object and
// never for the super or the victims' deletes.
//
//lsvd:requires bs.mu
func (s *Store) startCheckpointLocked(inf *inflightObj) {
	inf.done, inf.err = false, nil
	inf.attempts++
	if inf.attempts > 1 {
		s.stats.uploadRetries++
	}
	shot := inf.ckpt
	if shot.payload == nil {
		s.fillCkptShotLocked(shot)
	}
	invariant.Go("blockstore-checkpoint", func() {
		err := s.putCheckpointObject(shot)
		s.mu.Lock()
		if err != nil {
			inf.done, inf.err = true, err
			s.commitCond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.checkpointObjectDurableLocked(inf)
		post := s.commitReadyLocked()
		super := s.armSuperLocked(inf)
		s.commitCond.Broadcast()
		s.mu.Unlock()
		if post != nil {
			post()
		}
		if super != nil {
			s.putSuper(inf, super)
		}
	})
}

// startSuperLocked re-arms a failed superblock PUT of the owed
// checkpoint and issues it on a fresh goroutine (the fences' retry).
//
//lsvd:requires bs.mu
func (s *Store) startSuperLocked(inf *inflightObj) {
	if inf.attempts > 0 {
		s.stats.uploadRetries++
	}
	if super := s.armSuperLocked(inf); super != nil {
		invariant.Go("blockstore-super", func() { s.putSuper(inf, super) })
	}
}

// reserveUploadSlotLocked waits until the in-flight list has room for
// another object (2x UploadDepth, so uploads stay saturated while
// commits lag), resubmitting failed uploads so a stuck front cannot
// wedge the pipeline. Seals that block here are counted: a rising
// SealStalls means the backend (or the upload share) is the wall.
//
//lsvd:requires bs.mu
func (s *Store) reserveUploadSlotLocked() error {
	maxInflight := 2 * s.cfg.UploadDepth
	stalled := false
	for len(s.inflight) >= maxInflight {
		if err := s.retryFrontLocked(); err != nil {
			return err
		}
		if !stalled {
			stalled = true
			s.stats.sealStalls++
		}
		s.commitCond.Wait()
	}
	return nil
}

// startUploadLocked issues (or reissues) the build+PUT for inf on a
// fresh goroutine, bounded by the upload gate. The gate is acquired
// inside the goroutine so the caller never blocks holding s.mu, and
// the object marshal happens under the gate slot too — it is part of
// the upload's cost, and keeping it off s.mu is the point. bg: the
// caller hands over the background slot it holds, for a GC entry's
// first attempt. A resubmission takes a foreground slot: it is at or
// near the front of the commit walk.
//
//lsvd:requires bs.mu
func (s *Store) startUploadLocked(inf *inflightObj, bg bool) {
	if inf.ckpt != nil {
		s.startCheckpointLocked(inf)
		return
	}
	inf.done, inf.err = false, nil
	inf.attempts++
	if inf.attempts > 1 {
		s.stats.uploadRetries++
	}
	name := objName(s.cfg.Volume, inf.seq)
	obj := inf.obj // non-nil on resubmission: the image is built once
	invariant.Go("blockstore-upload", func() {
		if !bg {
			s.gate.Acquire(s.gateID)
		}
		if obj == nil {
			var info *objInfo
			var mapped []mappedExtent
			obj, info, mapped = buildObject(inf.seq, s.epoch, inf.typ,
				inf.maxWrite, inf.exts, inf.offs, inf.src)
			s.mu.Lock()
			inf.obj, inf.info, inf.mapped = obj, info, mapped
			inf.src, inf.exts, inf.offs = nil, nil, nil
			s.mu.Unlock()
		}
		err := objstore.PutVec(s.ctx, s.cfg.Store, name, obj)
		if bg {
			s.gcGateRelease()
		} else {
			s.gate.Release(s.gateID)
		}
		s.mu.Lock()
		inf.done, inf.err = true, err
		var post func()
		if err == nil {
			post = s.commitReadyLocked()
		}
		s.commitCond.Broadcast()
		s.mu.Unlock()
		if post != nil {
			post()
		}
	})
}

// commitReadyLocked applies, strictly in sequence order, every
// successfully uploaded object at the front of the in-flight list:
// map installation, accounting, durable watermark. It returns a
// closure (nil when there is nothing to do) the caller must run AFTER
// releasing s.mu: the OnDestage callback executes off the lock, so a
// slow callback cannot stall every later commit, and a callback that
// reaches back into the store cannot deadlock; then the deletes of what
// these commits killed and the release rule let go run, like every
// reap, off the lock. Called with s.mu held from the upload completion path.
//
//lsvd:requires bs.mu
func (s *Store) commitReadyLocked() func() {
	var watermark uint64
	var committed int64
	for len(s.inflight) > 0 {
		inf := s.inflight[0]
		if inf.ckpt != nil {
			// A marker leaves the list the moment its checkpoint object
			// lands (checkpointObjectDurableLocked); until then nothing
			// behind it commits.
			if inf.attempts == 0 && !s.aborting {
				// The marker just reached the front: every earlier
				// object has committed, snapshot and start the PUTs.
				s.startCheckpointLocked(inf)
			}
			break
		}
		if !inf.done || inf.err != nil {
			break
		}
		s.inflight = s.inflight[1:]
		s.inflightBytes -= inf.fill
		if s.inflightBytes < 0 || inf.info.seq >= s.nextSeq {
			invariant.Failf("blockstore: committed object %d (next seq %d) left inflight bytes at %d",
				inf.info.seq, s.nextSeq, s.inflightBytes)
		}
		s.stats.bytesPut += uint64(objstore.VecLen(inf.obj))
		s.stats.bytesCoalesced += inf.coalesced
		s.installObject(inf.info, inf.mapped, inf.trims)
		if n := int64(inf.info.dataSectors) * block.SectorSize; inf.typ == journal.TypeGC {
			s.stats.gcBytesCopied += uint64(n)
		} else {
			committed += n
		}
		if inf.maxWrite > s.durableWriteSeq {
			s.durableWriteSeq = inf.maxWrite
			watermark = s.durableWriteSeq
		}
		s.sinceCkpt++
	}
	if committed > 0 {
		// Foreground payload committed: credit the paced service's WAF
		// bucket and wake it (the commit may have dropped utilization
		// below the low-water mark).
		s.gcRefillLocked(committed)
	}
	victims := s.takeReapLocked()
	cb := s.cfg.OnDestage
	if watermark == 0 {
		cb = nil
	}
	if cb == nil && len(victims) == 0 {
		return nil
	}
	return func() {
		if cb != nil {
			cb(watermark)
		}
		_ = s.reap(victims) // a failed delete stays held for the next checkpoint
	}
}

// retryFrontLocked handles a failed upload at the front of the
// pipeline, which nothing behind can commit past: it reissues every
// failed upload, or returns the front's error once its attempt budget
// is spent.
//
//lsvd:requires bs.mu
func (s *Store) retryFrontLocked() error {
	if len(s.inflight) == 0 {
		return nil
	}
	front := s.inflight[0]
	if !front.done || front.err == nil {
		return nil
	}
	if front.attempts >= s.uploadAttempts() {
		return fmt.Errorf("blockstore: object %d upload failed after %d attempts: %w", front.seq, front.attempts, front.err)
	}
	s.resubmitFailedLocked(false)
	return nil
}

// resubmitFailedLocked reissues every failed upload; fresh grants each
// a new attempt budget first (the explicit fences and RunGC).
//
//lsvd:requires bs.mu
func (s *Store) resubmitFailedLocked(fresh bool) {
	for _, inf := range s.inflight {
		if inf.done && inf.err != nil {
			if fresh {
				inf.attempts = 0
			}
			s.startUploadLocked(inf, false)
		}
	}
}

// rearmFailedLocked grants every failed upload, and a failed owed
// superblock, a fresh attempt budget and reissues it: the first step of
// each explicit fence (Seal, Checkpoint, Mark, DeleteSnapshot).
//
//lsvd:requires bs.mu
func (s *Store) rearmFailedLocked() {
	s.resubmitFailedLocked(true)
	if o := s.superOwed; o != nil && o.done && o.err != nil {
		o.attempts = 0
		s.startSuperLocked(o)
	}
}

// waitInflightLocked blocks until the in-flight list drains (every
// object committed), the owed superblock (if any) has landed, any GC
// pass finishes and the reaper has no delete in flight, resubmitting
// failures up to the fence attempt budget. On persistent failure the
// object stays in the list, or the checkpoint stays owed its super, so
// a later fence can retry it; the error is returned to the caller.
//
//lsvd:requires bs.mu
func (s *Store) waitInflightLocked() error {
	// Announce the fence so a paced background pass holding gcBusy
	// yields instead of sitting in a budget wait.
	s.fenceEnterLocked()
	defer s.fenceExitLocked()
	for len(s.inflight) > 0 || s.superOwed != nil || s.gcBusy || s.count.rows[stateReaping] > 0 {
		if err := s.fenceStepLocked(); err != nil {
			return err
		}
	}
	if err := s.asyncErr; err != nil {
		s.asyncErr = nil
		return err
	}
	return nil
}

// fenceStepLocked is one round of every fence's wait (waitInflightLocked,
// Mark, Marker.Wait): a failed upload at the front of the pipeline is
// resubmitted and a failed owed superblock re-PUT, each up to the fence
// attempt budget, after which the error is returned; otherwise it sleeps
// until the next completion.
//
//lsvd:requires bs.mu
func (s *Store) fenceStepLocked() error {
	if s.aborting {
		return ErrReadOnly
	}
	if err := s.retryFrontLocked(); err != nil {
		return err
	}
	if o := s.superOwed; o != nil && o.done && o.err != nil {
		if o.attempts >= s.uploadAttempts() {
			return fmt.Errorf("blockstore: superblock naming checkpoint %d failed after %d attempts: %w", o.seq, o.attempts, o.err)
		}
		s.startSuperLocked(o)
		return nil // an attempt that failed to start wakes no one
	}
	s.commitCond.Wait()
	return nil
}

// Abort quiesces the pipeline without committing: no new uploads or
// reaps start (the store becomes read-only) and Abort returns only once
// every issued PUT and delete has finished, so the backend stops
// changing. It models process death for crash testing — queued batches
// are dropped, and objects that did land out of order are exactly the
// stranded uploads recovery's gap rule cleans up.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborting = true
	s.readOnly = true
	// Wake the background GC service (and any budget wait inside a
	// paced pass) so it observes aborting and exits; the gcBusy check
	// below then covers its in-progress pass like any other. Fence
	// waiters wake too, and give up.
	s.gcCond.Broadcast()
	s.commitCond.Broadcast()
	for {
		busy := s.gcBusy || s.count.rows[stateReaping] > 0 || (s.superOwed != nil && !s.superOwed.done)
		for _, inf := range s.inflight {
			if inf.ckpt != nil && inf.attempts == 0 {
				// A queued checkpoint marker that never reached the
				// front has no I/O in flight, and the commit walk will
				// not start one while aborting — don't wait for it.
				continue
			}
			if !inf.done {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		s.commitCond.Wait()
	}
}
