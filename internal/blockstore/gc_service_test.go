package blockstore

import (
	"bytes"
	"errors"
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

// TestGCStaleSourceNotResurrected is the deterministic reproduction of
// the conditional-install ordering bug: once GC objects exist,
// container sequence numbers no longer order data by freshness — a GC
// object's copy of old data carries a sequence number ABOVE that of a
// later write still sitting in a lower-seq in-flight object. A
// second-generation collection that samples the map before that object
// commits, and installs after, used to resurrect the stale copy (its
// "current target <= my source" check passed), both on the live path
// and again on crash replay. The install predicate must be an exact
// source match.
//
// Interleaving forced here (n = first stalled data seq):
//
//	obj n   (D_a, in flight, PUT stalled): overwrites half of A's live data
//	obj n+1 (D_b, in flight, PUT stalled): overwrites the other half
//	pass 1:  collects A -> G1 = n+2 (samples the map before either commits)
//	D_a commits -> G1 half dead (garbage for pass 2)
//	pass 2:  samples G1's live range (still stale: D_b uncommitted),
//	         then D_b commits inside the pass's source-read lock drop,
//	         then G2 = n+3 installs its copy -- which MUST lose to D_b.
func TestGCStaleSourceNotResurrected(t *testing.T) {
	rs := testrec.NewStore(objstore.NewMem())
	s := newVolume(t, rs, Config{
		BatchBytes: 64 * block.SectorSize, // exactly the A extent: appends auto-seal
		// Three gate slots: two are pinned by the stalled PUTs, the
		// third lets the GC's background I/O through.
		UploadDepth:     3,
		GCLowWater:      0, // manual RunGC only
		GCHighWater:     0.9,
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
	extB := block.Extent{LBA: 32, Sectors: 32}
	v2 := payload(2, int(extB.Bytes()))
	if err := s.Append(2, extB, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// A now holds 32 live sectors (0..31); utilization 64/96 = 0.667.

	s.mu.Lock()
	n := s.nextSeq
	s.mu.Unlock()
	parkA := rs.Park(testrec.Puts.Named(objName("vol", n)))
	parkB := rs.Park(testrec.Puts.Named(objName("vol", n+1)))

	// D_a = obj n: 48 fresh sectors + an overwrite of A's sectors 0..15.
	// The second append fills the batch, so it auto-seals; the PUT then
	// stalls on gateA with the extents not yet installed.
	fillA := block.Extent{LBA: 64, Sectors: 48}
	if err := s.Append(3, fillA, payload(3, int(fillA.Bytes()))); err != nil {
		t.Fatal(err)
	}
	overA := block.Extent{LBA: 0, Sectors: 16}
	v3 := payload(4, int(overA.Bytes()))
	if err := s.Append(4, overA, v3); err != nil {
		t.Fatal(err)
	}
	// D_b = obj n+1: likewise, overwriting A's sectors 16..31.
	fillB := block.Extent{LBA: 112, Sectors: 48}
	if err := s.Append(5, fillB, payload(5, int(fillB.Bytes()))); err != nil {
		t.Fatal(err)
	}
	overB := block.Extent{LBA: 16, Sectors: 16}
	v4 := payload(6, int(overB.Bytes()))
	if err := s.Append(6, overB, v4); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	if inflight != 2 {
		t.Fatalf("expected 2 stalled uploads, have %d", inflight)
	}

	// Pass 1 collects A. The map still shows sectors 0..31 -> A (neither
	// stalled object has committed), so G1 = n+2 copies all 32 and
	// installs them -- legal: the sources it copied are still current.
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	g1 := s.objects[n+2]
	s.mu.Unlock()
	if g1 == nil || g1.typ != journal.TypeGC {
		t.Fatalf("pass 1 did not produce GC object %d", n+2)
	}

	// D_a commits: G1's sectors 0..15 die, making it pass 2's victim.
	parkA.Release(nil)
	waitFor(t, "D_a commit", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.inflight) == 1
	})

	// Pass 2: by the time the pass reads G1's data (the map was already
	// sampled: sectors 16..31 -> G1), D_b commits. G2 = n+3's copy of
	// those sectors is one generation stale and must not install.
	readG1 := testrec.GetRanges.Named(objName("vol", n+2))
	from := rs.Now()
	rs.Do(readG1.Once(), func(testrec.Op) error {
		parkB.Release(nil)
		waitFor(t, "D_b commit", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.inflight) == 0
		})
		return nil
	})
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if !rs.Await(from, readG1, 0) {
		t.Fatal("pass 2 never read G1 from the backend: interleaving not reproduced")
	}
	s.mu.Lock()
	g2 := s.objects[n+3]
	s.mu.Unlock()
	if g2 == nil || g2.typ != journal.TypeGC || g2.dataSectors != 16 {
		t.Fatalf("pass 2 did not relocate G1's sampled range into %d: %+v", n+3, g2)
	}
	if g2.liveSectors != 0 {
		t.Fatalf("G2 installed %d stale sectors over the newer committed write", g2.liveSectors)
	}

	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ext  block.Extent
		want []byte
	}{
		{"D_a overwrite", overA, v3},
		{"D_b overwrite", overB, v4},
		{"B", extB, v2},
	} {
		if got := readAll(t, s, c.ext); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: GC resurrected stale data", c.name)
		}
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}

	// Crash replay sees the same object sequence from scratch: D_b
	// (n+1) replays before G2 (n+3), whose header says "copied from
	// n+2" -- the exact-match predicate must reject it there too.
	s2, err := Open(ctx, Config{Volume: "vol", Store: rs})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ext  block.Extent
		want []byte
	}{
		{"D_a overwrite", overA, v3},
		{"D_b overwrite", overB, v4},
		{"B", extB, v2},
	} {
		if got := readAll(t, s2, c.ext); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: crash replay resurrected stale data", c.name)
		}
	}
	if err := s2.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
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
