package blockstore

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// TestVictimCostModel: candidates are ordered by garbage ratio × age,
// not by pure live ratio — among equally garbage-heavy objects the
// older one wins (its survivors are colder), and among equally old
// objects the emptier one wins.
func TestVictimCostModel(t *testing.T) {
	s := &Store{
		objects: make(map[uint32]*objInfo),
		cleaned: make(map[uint32]bool),
		nextSeq: 100,
	}
	add := func(seq uint32, live, data uint32) {
		s.objects[seq] = &objInfo{seq: seq, typ: journal.TypeData, dataSectors: data, liveSectors: live}
	}
	add(10, 50, 100)  // 50% garbage, age 90 → score 45
	add(80, 50, 100)  // 50% garbage, age 20 → score 10
	add(90, 10, 100)  // 90% garbage, age 10 → score 9
	add(20, 99, 100)  // 1% garbage, age 80  → score 0.8
	add(30, 100, 100) // fully live: not a candidate
	got := s.victimCandidatesLocked()
	want := []uint32{10, 80, 90, 20}
	if len(got) != len(want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates %v, want %v", got, want)
		}
	}
}

// TestGCAbortMidVictimNoUtilDrift: a pass aborted after it started
// collecting a victim (but before the victim is fully relocated) must
// leave the utilization accounting consistent — the victim stays in
// the pool, is not marked cleaned, and a later pass collects it
// normally. Locks the regression for the old subtract-at-clean-time
// scheme, where an abort could strand the counters permanently.
func TestGCAbortMidVictimNoUtilDrift(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{BatchBytes: 64 * 1024, GCLowWater: 0})
	// A Kill lands the first time the GC's source read hits the backend.
	// The GC dropped s.mu around that read, so taking it here is
	// deadlock-free — exactly the window a concurrent Abort can hit.
	rs.Do(testrec.GetRanges.Once(), func(testrec.Op) error {
		s.mu.Lock()
		s.aborting = true
		s.mu.Unlock()
		return nil
	})

	ext := block.Extent{LBA: 0, Sectors: 128}
	orig := payload(1, int(ext.Bytes()))
	if err := s.Append(1, ext, orig); err != nil {
		t.Fatal(err)
	}
	_ = s.Seal()
	half := block.Extent{LBA: 0, Sectors: 64}
	newer := payload(2, int(half.Bytes()))
	if err := s.Append(2, half, newer); err != nil {
		t.Fatal(err)
	}
	_ = s.Seal()
	utilBefore := s.Utilization()

	// The pass aborts mid-victim (the injected abort lands during the
	// source read); RunGC swallows the abort.
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	if len(s.cleaned) != 0 || len(s.pending) != 0 {
		s.mu.Unlock()
		t.Fatalf("aborted pass marked victims cleaned: cleaned=%v pending=%v", s.cleaned, s.pending)
	}
	aborting := s.aborting
	s.mu.Unlock()
	if !aborting {
		t.Fatal("injected abort never fired")
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatalf("utilization drift after aborted pass: %v", err)
	}
	if u := s.Utilization(); u != utilBefore {
		t.Fatalf("aborted pass moved utilization %.3f -> %.3f", utilBefore, u)
	}

	// Clear the abort (the test's stand-in for reopening) and collect
	// for real.
	s.mu.Lock()
	s.aborting = false
	s.readOnly = false
	s.mu.Unlock()
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatalf("utilization drift after completed pass: %v", err)
	}
	want := append([]byte{}, orig...)
	copy(want, newer)
	if got := readAll(t, s, ext); !bytes.Equal(got, want) {
		t.Fatal("data wrong after abort + re-collect")
	}
}

// cleanedVictim returns the one object the GC pass cleaned.
func cleanedVictim(t *testing.T, s *Store) uint32 {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.cleaned) != 1 {
		t.Fatalf("GC cleaned %v, want one victim", s.cleaned)
	}
	for seq := range s.cleaned {
		return seq
	}
	return 0
}

// TestDeferredDeleteResweptOnOpen: a crash after the checkpoint that
// records a GC victim's deferred delete but before the delete itself
// runs must not leak the victim — Open re-sweeps the deferred list.
func TestDeferredDeleteResweptOnOpen(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	// MaxAttempts < 0 disables the Retrier so armed faults fire
	// deterministically.
	s := newVolume(t, faulty, Config{
		GCLowWater: 0, CheckpointEvery: 1 << 30,
		Retry: objstore.RetryPolicy{MaxAttempts: -1},
	})
	ext := block.Extent{LBA: 0, Sectors: 128}
	orig := payload(1, int(ext.Bytes()))
	_ = s.Append(1, ext, orig)
	_ = s.Seal()
	half := block.Extent{LBA: 0, Sectors: 64}
	newer := payload(2, int(half.Bytes()))
	_ = s.Append(2, half, newer)
	_ = s.Seal()
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	victim := cleanedVictim(t, s)

	// The checkpoint persists the deferred delete, then the delete
	// itself fails — the state a crash-between-commit-and-delete
	// leaves behind.
	faulty.FailDeletes(objName("vol", victim), -1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Get(ctx, objName("vol", victim)); err != nil {
		t.Fatalf("victim %d missing before the crash: %v", victim, err)
	}
	// Crash: the handle is simply abandoned.

	faulty.Disarm()
	s2, err := Open(ctx, Config{Volume: "vol", Store: faulty,
		Retry: objstore.RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Get(ctx, objName("vol", victim)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("victim %d still leaked after reopen: %v", victim, err)
	}
	s2.mu.Lock()
	ndef, ncleaned := len(s2.deferred), len(s2.cleaned)
	s2.mu.Unlock()
	if ndef != 0 || ncleaned != 0 {
		t.Fatalf("resweep left deferred=%d cleaned=%d", ndef, ncleaned)
	}
	if err := s2.AuditUtilization(); err != nil {
		t.Fatalf("utilization drift after resweep: %v", err)
	}
	want := append([]byte{}, orig...)
	copy(want, newer)
	if got := readAll(t, s2, ext); !bytes.Equal(got, want) {
		t.Fatal("data wrong after crash + resweep")
	}
}

// TestDeferredDeleteResweepKeepsSnapshotPin: the open-time resweep
// must not delete a victim a snapshot still pins — it goes back on the
// deferred list, exactly as the live path would defer it.
func TestDeferredDeleteResweepKeepsSnapshotPin(t *testing.T) {
	faulty := objstore.NewFaulty(objstore.NewMem())
	s := newVolume(t, faulty, Config{
		GCLowWater: 0, CheckpointEvery: 1 << 30,
		Retry: objstore.RetryPolicy{MaxAttempts: -1},
	})
	ext := block.Extent{LBA: 0, Sectors: 128}
	_ = s.Append(1, ext, payload(1, int(ext.Bytes())))
	_ = s.Seal()
	if _, err := s.CreateSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	half := block.Extent{LBA: 0, Sectors: 64}
	_ = s.Append(2, half, payload(2, int(half.Bytes())))
	_ = s.Seal()
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	victim := cleanedVictim(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The pin already deferred the delete; crash and reopen.
	s2, err := Open(ctx, Config{Volume: "vol", Store: faulty,
		Retry: objstore.RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Get(ctx, objName("vol", victim)); err != nil {
		t.Fatalf("pinned victim %d deleted by resweep: %v", victim, err)
	}
	s2.mu.Lock()
	pinned := false
	for _, d := range s2.deferred {
		if d.Obj == victim {
			pinned = true
		}
	}
	s2.mu.Unlock()
	if !pinned {
		t.Fatal("resweep dropped the snapshot-pinned deferred delete")
	}
	// Deleting the snapshot releases it for good.
	if err := s2.DeleteSnapshot("pin"); err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Get(ctx, objName("vol", victim)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("victim %d survived snapshot deletion: %v", victim, err)
	}
}

// TestGCStaleSourceNotResurrected: a GC pass samples the map, reads
// its sources with s.mu dropped, and its object commits behind every
// upload sealed before it. An overwrite of a sampled range that commits
// in between — here one during the source read, one after the GC
// object has landed, both sealed before the pass — must win: the GC
// copy installs only where the map still points at the exact object
// it was copied from, when the entry commits and again on crash
// replay, which applies the objects in the same order.
//
//	obj a            A: 64 sectors, of which B (obj a+1) overwrote 32..63
//	obj n   (D_a, PUT held): overwrites A's sectors 0..15
//	obj n+1 (D_b, PUT held): overwrites A's sectors 16..23
//	pass:    samples 0..31 -> A; D_a commits during the source read
//	obj n+2 (G, queued behind D_b): lands, then D_b commits, then G:
//	         only A's sectors 24..31 install
func TestGCStaleSourceNotResurrected(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{
		BatchBytes:  64 * block.SectorSize, // exactly the A extent: appends auto-seal
		UploadDepth: 3,
		GCLowWater:  0, // manual RunGC only
		// Above A's 0.67 and below the 0.88 collecting it leaves, so the
		// pass stops before G becomes a victim of its own.
		GCHighWater:     0.8,
		CheckpointEvery: 1 << 30,
	})

	extA := block.Extent{LBA: 0, Sectors: 64}
	v1 := payload(1, int(extA.Bytes()))
	if err := s.Append(1, extA, v1); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	a := s.Stats().NextSeq - 1
	extB := block.Extent{LBA: 32, Sectors: 32}
	v2 := payload(2, int(extB.Bytes()))
	if err := s.Append(2, extB, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// A now holds 32 live sectors (0..31); utilization 64/96 = 0.667.

	n := s.Stats().NextSeq
	parkA := rs.Park(testrec.Puts.Named(objName("vol", n)))
	parkB := rs.Park(testrec.Puts.Named(objName("vol", n+1)))
	// D_a = obj n: 48 fresh sectors + an overwrite of A's sectors 0..15.
	// The second append fills the batch, so it auto-seals; its PUT is
	// held with the extents not yet installed.
	fillA := block.Extent{LBA: 64, Sectors: 48}
	if err := s.Append(3, fillA, payload(3, int(fillA.Bytes()))); err != nil {
		t.Fatal(err)
	}
	overA := block.Extent{LBA: 0, Sectors: 16}
	v3 := payload(4, int(overA.Bytes()))
	if err := s.Append(4, overA, v3); err != nil {
		t.Fatal(err)
	}
	// D_b = obj n+1: 56 fresh sectors + an overwrite of A's sectors 16..23.
	fillB := block.Extent{LBA: 112, Sectors: 56}
	if err := s.Append(5, fillB, payload(5, int(fillB.Bytes()))); err != nil {
		t.Fatal(err)
	}
	overB := block.Extent{LBA: 16, Sectors: 8}
	v4 := payload(6, int(overB.Bytes()))
	if err := s.Append(6, overB, v4); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InflightObjects != 2 {
		t.Fatalf("expected 2 held uploads, have %d", st.InflightObjects)
	}

	// The pass has sampled sectors 0..31 -> A when it reads A's data;
	// D_a commits inside that read.
	readA := testrec.DataRead.Named(objName("vol", a))
	from := rs.Now()
	rs.Do(readA.Once(), func(testrec.Op) error {
		parkA.Release(nil)
		for deadline := time.Now().Add(10 * time.Second); s.DurableWriteSeq() < 4; {
			if time.Now().After(deadline) {
				return errors.New("D_a did not commit")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	gc := make(chan error, 1)
	go func() { gc <- s.RunGC() }()
	if !rs.Await(from, testrec.GCObject.Named(objName("vol", n+2)), 10*time.Second) {
		parkB.Release(nil)
		t.Fatalf("GC object %d did not land behind the held upload: %v", n+2, <-gc)
	}
	if _, ok := s.ObjectType(n + 2); ok {
		t.Fatalf("GC object %d installed above the upload in flight", n+2)
	}
	parkB.Release(nil)
	if err := <-gc; err != nil {
		t.Fatal(err)
	}
	if !rs.Await(from, readA, 0) {
		t.Fatal("the pass never read A from the backend: interleaving not reproduced")
	}
	s.mu.Lock()
	g := s.objects[n+2]
	s.mu.Unlock()
	if g == nil || g.typ != journal.TypeGC || g.dataSectors != 32 {
		t.Fatalf("the pass did not relocate A's sampled range into %d: %+v", n+2, g)
	}
	if g.liveSectors != 8 {
		t.Fatalf("G installed %d sectors, want the 8 no newer write covers", g.liveSectors)
	}

	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		ext  block.Extent
		want []byte
	}{
		{"D_a overwrite", overA, v3},
		{"D_b overwrite", overB, v4},
		{"A's survivors", block.Extent{LBA: 24, Sectors: 8}, v1[24*block.SectorSize : 32*block.SectorSize]},
		{"B", extB, v2},
	}
	for _, c := range reads {
		if got := readAll(t, s, c.ext); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: GC resurrected stale data", c.name)
		}
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}

	// Crash replay applies D_a, D_b and then G, whose header says
	// "copied from A": the predicate must reject the stale pieces there
	// too.
	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range reads {
		if got := readAll(t, s2, c.ext); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: crash replay resurrected stale data", c.name)
		}
	}
	if err := s2.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// TestGCObjectRidesThePipeline: a GC object is an ordinary entry of
// the upload pipeline, built and PUT off s.mu and committed in sequence
// order. A data upload D is held and a checkpoint marker M queued
// behind it; the GC pass's object G takes the next sequence number and
// its PUT is parked. Meanwhile lookups and appends return and a data
// object E sealed behind G uploads. G then lands while D is still held:
// it is not installed, its victim is not dead, and nothing commits past
// D. Once D is released, M's snapshot excludes G's install, E commits
// only after G has landed — DurableWriteSeq and OnDestage, over the op
// log — and the victim dies, and is deleted, only after G commits.
func TestGCObjectRidesThePipeline(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	rs.Keep = true
	s := newVolume(t, rs, Config{
		BatchBytes: 64 * block.SectorSize, UploadDepth: 4,
		GCHighWater: 0.99, CheckpointEvery: 1 << 30,
		OnDestage: func(w uint64) { rs.Note("destage", int64(w)) },
	})
	slot := func(i int) block.Extent { return block.Extent{LBA: block.LBA(i) * 64, Sectors: 64} }
	data := map[block.LBA][]byte{}
	var w uint64
	write := func(ext block.Extent) {
		w++
		data[ext.LBA] = payload(int64(w), int(ext.Bytes()))
		if err := s.Append(w, ext, data[ext.LBA]); err != nil {
			t.Error(err)
		}
	}
	// within runs fn and fails the test when it has not returned in time:
	// it would block behind a PUT that holds s.mu.
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked while the GC object's PUT is parked", what)
		}
	}

	// The victim: slot 0's object, half overwritten by slot 0's second
	// write (a half-slot batch sealed on its own).
	write(slot(0))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	victim := s.Stats().NextSeq - 1
	write(block.Extent{LBA: 0, Sectors: 32})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	durable := s.DurableWriteSeq()

	// Each park is released once, by the test or, when it fails, by the
	// cleanup that lets the store drain.
	releaser := func(p *testrec.Parked) func() {
		var once sync.Once
		rel := func() { once.Do(func() { p.Release(nil) }) }
		t.Cleanup(rel)
		return rel
	}
	held := rs.Park(testrec.DataObject.Once())
	releaseHeld := releaser(held)
	parked := rs.Park(testrec.GCObject)
	releaseParked := releaser(parked)
	d := s.Stats().NextSeq
	write(slot(1))
	<-held.Arrived()
	mk, err := s.Mark("")
	if err != nil {
		t.Fatal(err)
	}
	m, g, e := d+1, d+2, d+3

	gc := make(chan error, 1)
	go func() { gc <- s.RunGC() }()
	select {
	case op := <-parked.Arrived():
		if op.Name != objName("vol", g) {
			t.Fatalf("GC object PUT %s, want sequence number %d", op.Name, g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the GC object's PUT did not start behind the held upload and the queued marker")
	}
	within("Lookup", func() { s.Lookup(slot(0)) })
	from := rs.Now()
	within("Append", func() { write(slot(2)) })
	if !rs.Await(from, testrec.DataObject.Named(objName("vol", e)), 5*time.Second) {
		t.Fatalf("data object %d, sealed behind the parked GC object, did not upload", e)
	}

	// G lands with D still held.
	releaseParked()
	if !rs.Await(from, testrec.GCObject.Named(objName("vol", g)), 5*time.Second) {
		t.Fatal("the GC object did not land")
	}
	s.mu.RLock()
	installed, dead := s.objects[g] != nil, s.cleaned[victim]
	s.mu.RUnlock()
	if installed || dead || s.DurableWriteSeq() != durable {
		t.Fatalf("with upload %d held, GC object %d installed %v, victim dead %v, durable %d (want %d)",
			d, g, installed, dead, s.DurableWriteSeq(), durable)
	}
	releaseHeld()
	if err := <-gc; err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	log := rs.Log()
	at := func(m testrec.Match) int {
		return slices.IndexFunc(log, func(op testrec.Op) bool { return op.Done && op.Err == nil && m(op) })
	}
	gLanded := at(testrec.GCObject.Named(objName("vol", g)))
	eDestaged := slices.IndexFunc(log, func(op testrec.Op) bool { return op.Kind == testrec.Note && uint64(op.Off) >= w })
	if eDestaged < gLanded {
		t.Fatalf("write %d destaged at %d, before GC object %d landed at %d", w, eDestaged, g, gLanded)
	}
	if del := at(testrec.Deletes.Named(objName("vol", victim))); del < gLanded {
		t.Fatalf("victim %d deleted at %d; its copy landed at %d", victim, del, gLanded)
	}
	ck := log[at(testrec.CheckpointObject.Named(objName("vol", m)))]
	_, raw, _, err := journal.Decode(ck.Data, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range p.objects {
		if o.seq >= m {
			t.Fatalf("checkpoint %d's snapshot holds object %d", m, o.seq)
		}
		if o.seq == victim && o.liveSectors != 32 {
			t.Fatalf("checkpoint %d's snapshot has the victim %d live sectors, want 32", m, o.liveSectors)
		}
	}

	for lba, want := range data {
		if got := readAll(t, s, block.Extent{LBA: lba, Sectors: uint32(len(want) / block.SectorSize)}); !bytes.Equal(got, want) {
			t.Fatalf("sector %d reads stale data", lba)
		}
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
	backendMatchesTable(t, s, rs)
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGCServicePacedConvergence: with the background service enabled,
// sustained overwrites followed by idle time converge utilization to
// the high-water mark without any explicit RunGC, the accounting stays
// exact throughout, and the copying stays inside the write-amplification
// budget. Every object is sealed half hot, half cold: the hot half dies
// in the next round and the cold half is never overwritten, so each
// victim has survivors the collector must copy.
func TestGCServicePacedConvergence(t *testing.T) {
	const wafTarget = 2.0
	store := objstore.NewMem()
	s := newVolume(t, store, Config{
		BatchBytes: 64 * 1024, UploadDepth: 2,
		GCLowWater: 0.70, GCHighWater: 0.75,
		GCWAFTarget: wafTarget, CheckpointEvery: 8,
	})
	defer s.StopGC()
	const (
		ws      = 16
		rounds  = 20
		coldLBA = block.LBA(1 << 16) // past the hot set
	)
	latest := map[block.LBA]int64{}
	seq := uint64(0)
	write := func(lba block.LBA) {
		t.Helper()
		seq++
		ext := block.Extent{LBA: lba, Sectors: 64}
		latest[lba] = int64(seq)
		if err := s.Append(seq, ext, payload(int64(seq), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < ws; i++ {
			write(block.LBA(i * 128))
			write(coldLBA + block.LBA((round*ws+i)*64))
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// No more foreground traffic: the idle trickle must finish the job.
	deadline := time.Now().Add(30 * time.Second)
	for s.Utilization() < 0.70 {
		if time.Now().After(deadline) {
			t.Fatalf("service never converged: util %.3f, stats %+v", s.Utilization(), s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StopGC()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatalf("utilization drift under the service: %v", err)
	}
	st := s.Stats()
	if st.GCRuns == 0 || st.GCVictims == 0 {
		t.Fatalf("service never collected: %+v", st)
	}
	if st.GCBytesCopied == 0 {
		t.Fatalf("every victim was fully dead, the budget was never exercised: %+v", st)
	}
	// The bound has headroom for the idle trickle's self-grants: a
	// writer stall longer than the trickle interval banks one batch of
	// copy budget beyond the foreground-driven refill.
	waf := float64(st.BytesAppended+st.GCBytesCopied) / float64(st.BytesAppended)
	t.Logf("measured WAF %.3f (%d KiB copied for %d KiB appended), bound %.2f, headroom %.3f",
		waf, st.GCBytesCopied>>10, st.BytesAppended>>10, 1.25*wafTarget, 1.25*wafTarget-waf)
	if waf > 1.25*wafTarget {
		t.Fatalf("measured WAF %.3f exceeds 1.25x the target %.1f", waf, wafTarget)
	}
	for lba, wseq := range latest {
		ext := block.Extent{LBA: lba, Sectors: 64}
		if got := readAll(t, s, ext); !bytes.Equal(got, payload(wseq, int(ext.Bytes()))) {
			t.Fatalf("extent at %d corrupted by paced GC", lba)
		}
	}
}

// TestGCReadAcrossAReap: a GC pass reads its victim's header, then its
// live data, each with s.mu dropped. If the victim dies meanwhile — its
// last live sectors overwritten below the named checkpoint — the reaper
// deletes it at once, and the read finds it missing. That is the victim
// being reaped, not a pass error: RunGC succeeds, copies nothing stale,
// and nothing is left owed.
func TestGCReadAcrossAReap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		read  testrec.Match
		fetch bool // drop the cached header, so the pass fetches it
	}{
		{"header", testrec.GetRanges, true},
		{"source", testrec.DataRead, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := testrec.NewStore(objstore.NewMem())
			s := newVolume(t, rs, Config{GCLowWater: 0, Retry: objstore.RetryPolicy{MaxAttempts: -1}})
			ext := block.Extent{LBA: 0, Sectors: 128}
			lo, hi := block.Extent{LBA: 0, Sectors: 64}, block.Extent{LBA: 64, Sectors: 64}
			mustWrite := func(w uint64, e block.Extent) {
				t.Helper()
				if err := s.Append(w, e, payload(int64(w), int(e.Bytes()))); err != nil {
					t.Fatal(err)
				}
			}
			mustWrite(1, ext)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			victim := s.Lookup(ext)[0].Target.Obj
			if err := s.Checkpoint(); err != nil { // the victim lies below the named checkpoint
				t.Fatal(err)
			}
			mustWrite(2, lo)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if tc.fetch {
				s.mu.Lock()
				delete(s.hdrCache, victim)
				s.mu.Unlock()
			}
			held := rs.Park(tc.read.Named(objName("vol", victim)))
			gc := make(chan error, 1)
			go func() { gc <- s.RunGC() }()
			<-held.Arrived()

			// RunGC holds the GC slot, so no fence may run: seal without one.
			from := rs.Now()
			mustWrite(3, hi)
			if err := s.SealAsync(); err != nil {
				t.Fatal(err)
			}
			waitDurable(t, s, 3)
			if !rs.Await(from, testrec.Deletes.Named(objName("vol", victim)), 10*time.Second) {
				t.Fatal("the victim was not reaped when it died")
			}
			held.Release(nil)
			if err := <-gc; err != nil {
				t.Fatalf("RunGC across the reap: %v", err)
			}
			want := append(payload(2, int(lo.Bytes())), payload(3, int(hi.Bytes()))...)
			if got := readAll(t, s, ext); !bytes.Equal(got, want) {
				t.Fatal("data wrong after GC across a reap")
			}
			if st := s.Stats(); st.GCBytesCopied != 0 || st.DeferredDeletes != 0 {
				t.Fatalf("copied %d bytes, %d deletes owed", st.GCBytesCopied, st.DeferredDeletes)
			}
			if err := s.AuditUtilization(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
