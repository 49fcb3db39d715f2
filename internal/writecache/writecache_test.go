package writecache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
	"lsvd/internal/testrec"
)

func newCache(t *testing.T, devBytes int64, cfg Config) (*Cache, *simdev.MemDevice) {
	t.Helper()
	dev := simdev.NewMem(devBytes)
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// readBack looks up ext and reads all present runs into a buffer,
// returning the data and whether the whole extent was present.
func readBack(t *testing.T, c *Cache, ext block.Extent) ([]byte, bool) {
	t.Helper()
	buf := make([]byte, ext.Bytes())
	full := true
	for _, run := range c.Lookup(ext) {
		if !run.Present {
			full = false
			continue
		}
		off := (run.LBA - ext.LBA).Bytes()
		sub := buf[off : off+run.Bytes()]
		if err := c.ReadAt(run.Target, sub); err != nil {
			t.Fatal(err)
		}
	}
	return buf, full
}

func TestAppendLookupRead(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	data := payload(1, 16*1024)
	ext := block.Extent{LBA: 1000, Sectors: 32}
	if err := c.Append(1, ext, data); err != nil {
		t.Fatal(err)
	}
	got, full := readBack(t, c, ext)
	if !full || !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	// Miss outside written range.
	if _, full := readBack(t, c, block.Extent{LBA: 5000, Sectors: 8}); full {
		t.Fatal("phantom hit")
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 16}
	_ = c.Append(1, ext, payload(1, 8192))
	newer := payload(2, 8192)
	_ = c.Append(2, ext, newer)
	got, _ := readBack(t, c, ext)
	if !bytes.Equal(got, newer) {
		t.Fatal("overwrite not visible")
	}
	// Partial overwrite: middle 4 sectors.
	mid := block.Extent{LBA: 4, Sectors: 4}
	midData := payload(3, int(mid.Bytes()))
	_ = c.Append(3, mid, midData)
	got, _ = readBack(t, c, ext)
	want := append([]byte{}, newer...)
	copy(want[4*block.SectorSize:], midData)
	if !bytes.Equal(got, want) {
		t.Fatal("partial overwrite wrong")
	}
}

func TestTrim(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 64}
	_ = c.Append(1, ext, payload(1, int(ext.Bytes())))
	if err := c.AppendTrim(2, block.Extent{LBA: 16, Sectors: 16}); err != nil {
		t.Fatal(err)
	}
	runs := c.Lookup(ext)
	if len(runs) != 3 || !IsTombstone(runs[1]) {
		t.Fatalf("trim not applied as tombstone: %+v", runs)
	}
	// The tombstone must read back as zeros through ReadExtent.
	buf := make([]byte, ext.Bytes())
	if _, err := c.ReadExtent(ext, buf); err != nil {
		t.Fatal(err)
	}
	trimmed := buf[16*block.SectorSize : 32*block.SectorSize]
	for _, b := range trimmed {
		if b != 0 {
			t.Fatal("trimmed range did not read as zeros")
		}
	}
}

func TestBadAppendRejected(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	if err := c.Append(1, block.Extent{LBA: 0, Sectors: 8}, make([]byte, 1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRecoveryFromCleanClose(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exts := make([]block.Extent, 20)
	datas := make([][]byte, 20)
	for i := range exts {
		exts[i] = block.Extent{LBA: block.LBA(i * 100), Sectors: 24}
		datas[i] = payload(int64(i), int(exts[i].Bytes()))
		if err := c.Append(uint64(i+1), exts[i], datas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exts {
		got, full := readBack(t, c2, exts[i])
		if !full || !bytes.Equal(got, datas[i]) {
			t.Fatalf("write %d lost after clean reopen", i)
		}
	}
	if c2.MaxWriteSeq() != 20 {
		t.Fatalf("MaxWriteSeq=%d", c2.MaxWriteSeq())
	}
}

// Replay starts at the persisted start: a checkpoint moves it to the
// oldest record the backend lacks, and the next Open recovers that
// record and everything logged behind it — flushed, never checkpointed
// — and nothing before it.
func TestRecoveryReplaysTailAfterCheckpoint(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, _ := Format(dev, Config{})
	exts := []block.Extent{{LBA: 0, Sectors: 16}, {LBA: 500, Sectors: 16}, {LBA: 900, Sectors: 16}}
	datas := make([][]byte, len(exts))
	for i, ext := range exts[:2] {
		datas[i] = payload(int64(i), int(ext.Bytes()))
		_ = c.Append(uint64(i+1), ext, datas[i])
	}
	c.SetDestaged(1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if c.startOff != c.ring[1].off || c.startSeq != c.ring[1].seq {
		t.Fatalf("start at %d (seq %#x), want the first un-destaged record at %d (seq %#x)",
			c.startOff, c.startSeq, c.ring[1].off, c.ring[1].seq)
	}
	// A write after the checkpoint, then flush (commit) but no
	// checkpoint: must be recovered by log replay.
	datas[2] = payload(2, int(exts[2].Bytes()))
	_ = c.Append(3, exts[2], datas[2])
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.RecoveredRecs != 2 || st.MaxWriteSeq != 3 {
		t.Fatalf("recovered %d records up to write %d, want 2 up to 3", st.RecoveredRecs, st.MaxWriteSeq)
	}
	for i := 1; i < 3; i++ {
		if got, full := readBack(t, c2, exts[i]); !full || !bytes.Equal(got, datas[i]) {
			t.Fatalf("write %d, logged at or behind the start, lost", i+1)
		}
	}
	if _, full := readBack(t, c2, exts[0]); full {
		t.Fatal("replay went back before the persisted start")
	}
}

func TestRecoveryAfterCrashKeepsCommittedPrefix(t *testing.T) {
	dev := simdev.NewMem(64 * block.MiB)
	c, _ := Format(dev, Config{})
	// Committed writes.
	for i := 0; i < 10; i++ {
		ext := block.Extent{LBA: block.LBA(i * 64), Sectors: 16}
		if err := c.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes, then crash losing everything unflushed.
	for i := 10; i < 20; i++ {
		ext := block.Extent{LBA: block.LBA(i * 64), Sectors: 16}
		_ = c.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes())))
	}
	dev.Crash(1.0, rand.New(rand.NewSource(5)))
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	// All committed writes present.
	for i := 0; i < 10; i++ {
		ext := block.Extent{LBA: block.LBA(i * 64), Sectors: 16}
		got, full := readBack(t, c2, ext)
		if !full || !bytes.Equal(got, payload(int64(i), int(ext.Bytes()))) {
			t.Fatalf("committed write %d lost", i)
		}
	}
	if c2.MaxWriteSeq() != 10 {
		t.Fatalf("recovered MaxWriteSeq=%d want 10", c2.MaxWriteSeq())
	}
}

func TestRecoveryAfterPartialCrashIsPrefix(t *testing.T) {
	// With partial loss (some unflushed pages survive), recovery must
	// still produce a *prefix*: if write i survived, writes < i
	// survived too (sequence-gap rule).
	for seed := int64(0); seed < 10; seed++ {
		dev := simdev.NewMem(64 * block.MiB)
		c, _ := Format(dev, Config{})
		const n = 30
		for i := 0; i < n; i++ {
			ext := block.Extent{LBA: block.LBA(i * 64), Sectors: 16}
			_ = c.Append(uint64(i+1), ext, payload(int64(i), int(ext.Bytes())))
		}
		dev.Crash(0.5, rand.New(rand.NewSource(seed)))
		c2, err := Open(dev)
		if err != nil {
			t.Fatal(err)
		}
		k := c2.MaxWriteSeq()
		for i := uint64(1); i <= k; i++ {
			ext := block.Extent{LBA: block.LBA((i - 1) * 64), Sectors: 16}
			got, full := readBack(t, c2, ext)
			if !full || !bytes.Equal(got, payload(int64(i-1), int(ext.Bytes()))) {
				t.Fatalf("seed %d: prefix broken at write %d (recovered through %d)", seed, i, k)
			}
		}
	}
}

func TestRingWrapAndEviction(t *testing.T) {
	// Small log: 8 MiB. Write 64 KiB records until wrap several times.
	c, _ := newCache(t, 8*block.MiB+superBytes+16*block.MiB, Config{CheckpointBytes: 16 * block.MiB})
	recBytes := 64 * 1024
	seq := uint64(0)
	write := func() error {
		seq++
		ext := block.Extent{LBA: block.LBA(seq%100) * 128, Sectors: uint32(recBytes / block.SectorSize)}
		return c.Append(seq, ext, payload(int64(seq), recBytes))
	}
	// Fill until ErrFull with nothing destaged.
	var full bool
	for i := 0; i < 1000; i++ {
		if err := write(); errors.Is(err, ErrFull) {
			full = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("undestaged ring never filled")
	}
	// Destage everything; writes proceed and evictions happen.
	c.SetDestaged(seq)
	for i := 0; i < 500; i++ {
		if err := write(); err != nil {
			c.SetDestaged(seq - 1)
			if err := write(); err != nil {
				t.Fatalf("write after destage failed: %v", err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after destage")
	}
	if st.UsedBytes > st.LogBytes {
		t.Fatalf("used %d exceeds log %d", st.UsedBytes, st.LogBytes)
	}
	// Newest copies must still be readable (their data not evicted,
	// since they're recent).
	ext := block.Extent{LBA: block.LBA(seq%100) * 128, Sectors: uint32(recBytes / block.SectorSize)}
	got, fullHit := readBack(t, c, ext)
	if !fullHit || !bytes.Equal(got, payload(int64(seq), recBytes)) {
		t.Fatal("newest record unreadable after wraps")
	}
}

func TestEvictionRemovesOnlyStaleMappings(t *testing.T) {
	c, _ := newCache(t, 8*block.MiB+superBytes+16*block.MiB, Config{CheckpointBytes: 16 * block.MiB})
	// Write A at LBA 0, then overwrite it; evicting the first record
	// must not remove the mapping to the second copy.
	ext := block.Extent{LBA: 0, Sectors: 128}
	_ = c.Append(1, ext, payload(1, int(ext.Bytes())))
	newer := payload(2, int(ext.Bytes()))
	_ = c.Append(2, ext, newer)
	c.SetDestaged(2)
	// Force eviction by filling the ring.
	seq := uint64(2)
	for {
		seq++
		e := block.Extent{LBA: 100000 + block.LBA(seq)*256, Sectors: 128}
		if err := c.Append(seq, e, payload(int64(seq), int(e.Bytes()))); err != nil {
			break
		}
		c.SetDestaged(seq - 2)
		if c.Stats().Evictions > 2 {
			break
		}
	}
	if c.Stats().Evictions == 0 {
		t.Skip("ring too large to force eviction")
	}
	got, full := readBack(t, c, ext)
	if full && !bytes.Equal(got, newer) {
		t.Fatal("stale data returned after eviction")
	}
}

func TestRecordsAfter(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	want := map[uint64][]byte{}
	for i := 1; i <= 10; i++ {
		ext := block.Extent{LBA: block.LBA(i * 100), Sectors: 8}
		d := payload(int64(i), int(ext.Bytes()))
		want[uint64(i)] = d
		_ = c.Append(uint64(i), ext, d)
	}
	_ = c.AppendTrim(11, block.Extent{LBA: 100, Sectors: 8})
	if err := c.Reconcile(5); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	err := c.Records(func(ws uint64, typ journal.Type, ext block.Extent, data []byte) error {
		seen = append(seen, ws)
		if typ == journal.TypeData && !bytes.Equal(data, want[ws]) {
			t.Fatalf("record %d data mismatch", ws)
		}
		if ws == 11 && typ != journal.TypeTrim {
			t.Fatal("trim record type lost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("replayed %v", seen)
	}
	for i, ws := range seen {
		if ws != uint64(6+i) {
			t.Fatalf("replay out of order: %v", seen)
		}
	}
}

func TestUnformattedDeviceRejected(t *testing.T) {
	if _, err := Open(simdev.NewMem(64 * block.MiB)); err == nil {
		t.Fatal("unformatted device opened")
	}
}

func TestTooSmallDeviceRejected(t *testing.T) {
	if _, err := Format(simdev.NewMem(1*block.MiB), Config{}); err == nil {
		t.Fatal("tiny device formatted")
	}
}

// Eviction past the start writes exactly one superblock first: the head
// may run up to the record the durable superblock names for free, and
// releasing that record costs one superblock, which moves the start to
// the oldest record the backend lacks — one per destaged stretch of the
// ring, however many records or laps that is.
func TestAutoCheckpoint(t *testing.T) {
	c, dev := newCache(t, 8*block.MiB+superBytes+16*block.MiB, Config{CheckpointBytes: 16 * block.MiB})
	formatted := c.Stats().Checkpoints
	ws := uint64(0)
	fill := func() {
		t.Helper()
		for {
			ext := block.Extent{LBA: block.LBA(ws+1) * 128, Sectors: 120}
			err := c.Append(ws+1, ext, payload(int64(ws+1), int(ext.Bytes())))
			if errors.Is(err, ErrFull) {
				return
			} else if err != nil {
				t.Fatal(err)
			}
			ws++
		}
	}
	supers := func() uint64 { return c.Stats().Checkpoints - formatted }

	fill()
	n := ws
	if supers() != 0 || c.Stats().Evictions != 0 {
		t.Fatalf("filling an empty ring wrote %d superblocks and evicted %d records", supers(), c.Stats().Evictions)
	}
	// Half the ring destaged: the head is the start, so the first
	// eviction pays for a superblock and the rest of the half is free.
	c.SetDestaged(n / 2)
	fill()
	if c.ring[0].writeSeq != n/2+1 || supers() != 1 {
		t.Fatalf("evicting up to write %d wrote %d superblocks, want every destaged record gone for 1", c.ring[0].writeSeq, supers())
	}
	if c.startOff != c.ring[0].off || c.startSeq != c.ring[0].seq {
		t.Fatalf("start at %d, want the oldest un-destaged record at %d", c.startOff, c.ring[0].off)
	}
	// The head has reached the start again: one more superblock, and it
	// was flushed before the space was handed out, so a crash that loses
	// everything unflushed still finds a start inside the live ring.
	c.SetDestaged(ws)
	fill()
	if supers() != 2 {
		t.Fatalf("second destaged stretch wrote %d superblocks in all, want 2", supers())
	}
	live := c.Stats().Records
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.Crash(1, rand.New(rand.NewSource(1)))
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.RecoveredRecs != live || st.MaxWriteSeq != ws {
		t.Fatalf("recovered %d records up to write %d, want the %d live ones up to %d", st.RecoveredRecs, st.MaxWriteSeq, live, ws)
	}
}

// A write log may hold any number of live records: nothing that grows
// with their count is persisted, so nothing can outgrow the space set
// aside for it and fail the guest's write.
func TestLiveRecordCountNeverFailsAppend(t *testing.T) {
	c, dev := newCache(t, 64*block.MiB, Config{CheckpointBytes: 64 << 10})
	ext := block.Extent{Sectors: 8}
	data := payload(1, int(ext.Bytes()))
	for i := 1; i <= 3000; i++ {
		ext.LBA = block.LBA(i) * 8
		if err := c.Append(uint64(i), ext, data); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.RecoveredRecs != 3000 {
		t.Fatalf("recovered %d of 3000 live records", st.RecoveredRecs)
	}
}

// Reserve fails in three ways only: ErrFull, a record larger than the
// log, and a device error — which is sticky, whether it came from a
// record write, a pad or the superblock an eviction needed.
func TestReserveErrors(t *testing.T) {
	boom := errors.New("device gone")
	for _, destage := range []bool{false, true} {
		dev := testrec.NewDevice(simdev.NewMem(8*block.MiB + superBytes))
		c, err := Format(dev, Config{CheckpointBytes: 2 * block.BlockSize})
		if err != nil {
			t.Fatal(err)
		}
		ext := block.Extent{Sectors: 128}
		data := payload(1, int(ext.Bytes()))
		if _, err := c.Reserve(1, journal.TypeData, block.Extent{Sectors: 1 << 20}, 512<<20); err == nil || errors.Is(err, ErrFull) {
			t.Fatalf("oversized record: %v", err)
		}
		var ws uint64
		for {
			err := c.Append(ws+1, ext, data)
			if errors.Is(err, ErrFull) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			ws++
		}
		// With the ring full, the next Reserve either has nothing to
		// evict (ErrFull) or must write a superblock to evict the start.
		if destage {
			c.SetDestaged(ws)
		}
		heal := dev.Fail(testrec.Kinds(testrec.Write, testrec.Flush), boom)
		_, err = c.Reserve(ws+1, journal.TypeData, ext, len(data))
		if !destage {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("full, nothing destaged: %v, want ErrFull", err)
			}
			continue
		}
		if !errors.Is(err, boom) {
			t.Fatalf("eviction past the start on a failed device: %v, want the device error", err)
		}
		if c.Stats().Evictions != 0 {
			t.Fatal("a record was released though the superblock that frees it never landed")
		}
		heal()
		if _, err := c.Reserve(ws+1, journal.TypeData, ext, len(data)); !errors.Is(err, boom) {
			t.Fatalf("device error not sticky: %v", err)
		}
	}
}

func TestDirtyAccounting(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	ext := block.Extent{LBA: 0, Sectors: 8}
	_ = c.Append(1, ext, payload(1, int(ext.Bytes())))
	if c.Stats().DirtyBytes == 0 {
		t.Fatal("fresh write not dirty")
	}
	c.SetDestaged(1)
	if c.Stats().DirtyBytes != 0 {
		t.Fatal("destaged write still dirty")
	}
}

// TestDestagePressureClearsWhenClean: the GC backoff signal must track
// the destage BACKLOG, not raw ring occupancy. Fill most of the log,
// destage everything, and the pressure must clear even though the
// (clean, lazily evicted) records still occupy the ring — the old
// occupancy clause latched the signal on here and starved the GC of
// copy budget forever on a quiet volume.
func TestDestagePressureClearsWhenClean(t *testing.T) {
	c, _ := newCache(t, 64*block.MiB, Config{})
	logBytes := c.Stats().LogBytes
	ext := block.Extent{LBA: 0, Sectors: 64}
	data := payload(1, int(ext.Bytes()))
	var ws uint64
	// Write until well past the half-dirty threshold (stop shy of a
	// ring wrap: the point is occupancy, not eviction).
	for written := int64(0); written*3 < logBytes*2; written += ext.Bytes() {
		ws++
		if err := c.Append(ws, ext, data); err != nil {
			t.Fatal(err)
		}
	}
	if !c.DestagePressure() {
		t.Fatal("no pressure with >half the log dirty")
	}
	c.SetDestaged(ws)
	if st := c.Stats(); st.DirtyBytes != 0 || st.UsedBytes*2 < logBytes {
		t.Fatalf("bad test setup: dirty=%d used=%d log=%d", st.DirtyBytes, st.UsedBytes, logBytes)
	}
	if c.DestagePressure() {
		t.Fatal("pressure latched on by clean ring occupancy")
	}
}

func BenchmarkAppend16K(b *testing.B) {
	dev := simdev.NewMem(2 * block.GiB)
	c, err := Format(dev, Config{})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 16*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext := block.Extent{LBA: block.LBA((i % 100000) * 32), Sectors: 32}
		if err := c.Append(uint64(i+1), ext, data); err != nil {
			c.SetDestaged(uint64(i))
			if err := c.Append(uint64(i+1), ext, data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// usedDevice returns a device that holds a cache with n flushed records
// of the given size at the start of the ring; closed says whether it
// was closed (a second, newer superblock) or just abandoned.
func usedDevice(t *testing.T, n int, sectors uint32, closed bool) *simdev.MemDevice {
	t.Helper()
	old, dev := newCache(t, 64*block.MiB, Config{})
	for i := 0; i < n; i++ {
		ext := block.Extent{LBA: block.LBA(i) * block.LBA(sectors), Sectors: sectors}
		if err := old.Append(uint64(i+1), ext, bytes.Repeat([]byte{0x5a}, int(ext.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	end := old.Flush
	if closed {
		end = old.Close
	}
	if err := end(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestFormatInvalidatesUsedDevice: a Format over a device that held
// another cache yields an empty cache, crash or no crash — the previous
// tenant's superblocks lose to the new one and nothing it logged is
// replayable.
func TestFormatInvalidatesUsedDevice(t *testing.T) {
	dev := usedDevice(t, 4, 8, true)
	if _, err := Format(dev, Config{}); err != nil {
		t.Fatal(err)
	}
	dev.Crash(1, rand.New(rand.NewSource(1)))
	c, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RecoveredRecs != 0 || st.Records != 0 || st.MapExtents != 0 || st.MaxWriteSeq != 0 {
		t.Fatalf("freshly formatted cache recovered %+v", st)
	}
	if runs := c.Lookup(block.Extent{LBA: 0, Sectors: 64}); len(runs) != 1 || runs[0].Present {
		t.Fatalf("freshly formatted cache maps %+v", runs)
	}
}

// TestFormatOldRecordsDoNotChain: the old cache's superblock and
// checkpoint are overwritten outright here, and the new log's first
// record has the size of the old log's — so the old record 2 sits
// exactly where replay looks next, and must not be taken for the new
// record 2.
func TestFormatOldRecordsDoNotChain(t *testing.T) {
	dev := usedDevice(t, 4, 8, false)
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ext := block.Extent{LBA: 1000, Sectors: 8}
	data := payload(9, int(ext.Bytes()))
	if err := c.Append(1, ext, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.Crash(1, rand.New(rand.NewSource(1)))
	c2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.RecoveredRecs != 1 || st.MaxWriteSeq != 1 {
		t.Fatalf("recovered %d records up to write %d, want the one new record", st.RecoveredRecs, st.MaxWriteSeq)
	}
	if got, full := readBack(t, c2, ext); !full || !bytes.Equal(got, data) {
		t.Fatal("the new record was lost")
	}
	if runs := c2.Lookup(block.Extent{LBA: 0, Sectors: 32}); len(runs) != 1 || runs[0].Present {
		t.Fatalf("the previous cache's records were replayed: %+v", runs)
	}
}

// TestCommitAfterQuiesceIsRefused: a writer that reserved before
// Quiesce but commits after it gets ErrClosed, and so does a Reserve
// after it that would wrap the ring; the device sees no write once
// Quiesce has returned — neither the record, nor the pad or the
// superblock a wrap writes: a shutdown may hand the device to a new
// tenant at that point.
func TestCommitAfterQuiesceIsRefused(t *testing.T) {
	dev := testrec.NewDevice(simdev.NewMem(8 * block.MiB))
	c, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the ring with destaged 1 MiB records, so the next one fits
	// only by evicting the head and padding the tail.
	big := block.Extent{LBA: 0, Sectors: uint32(block.MiB / block.SectorSize)}
	var ws uint64
	for {
		ws++
		if err := c.Append(ws, big, payload(int64(ws), int(big.Bytes()))); errors.Is(err, ErrFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	c.SetDestaged(ws - 1)
	ext := block.Extent{LBA: big.End(), Sectors: block.SectorsPerBlock}
	data := payload(1, int(ext.Bytes()))
	res, err := c.Reserve(ws, journal.TypeData, ext, len(data))
	if err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	wraps := c.freeAt(c.tail) < big.Bytes()+2*block.BlockSize
	c.mu.RUnlock()
	if !wraps {
		t.Fatal("a 1 MiB record fits at the tail: the Reserve below would not wrap")
	}
	c.Quiesce()
	from := dev.Now()
	if err := c.Commit(res, data, journal.Sum(data)); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Quiesce returned %v, want ErrClosed", err)
	}
	if _, err := c.Reserve(ws+1, journal.TypeData, big, int(big.Bytes())); !errors.Is(err, ErrClosed) {
		t.Fatalf("a wrapping reserve after Quiesce returned %v, want ErrClosed", err)
	}
	for _, op := range dev.Log()[from:] {
		if op.Kind == testrec.Write || op.Kind == testrec.Flush {
			t.Fatalf("device %s after Quiesce returned", op.Kind)
		}
	}
	if runs := c.Lookup(ext); len(runs) != 1 || runs[0].Present {
		t.Fatalf("a refused commit is readable: %v", runs)
	}
}
