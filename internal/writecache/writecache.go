// Package writecache implements LSVD's log-structured write-back cache
// (paper §3.1, Fig 2): incoming writes are persisted as sequential log
// records on the cache SSD — a one-sector header carrying the virtual
// LBA, sequence number and CRC, followed by the data (journal.Encode,
// the framing of every record the program writes) — and indexed by an
// in-memory extent map from vLBA to physical SSD location.
//
// Because the cache is a log:
//
//   - write ordering is preserved, which lets the block store preserve
//     it too (prefix consistency);
//   - small random writes become sequential SSD writes;
//   - a commit barrier is a single device flush — no metadata pages
//     need be written (the map is recoverable from the record
//     headers), the property behind the paper's 4x varmail win over
//     bcache (§4.2.2).
//
// The log is a circular buffer. Records are reclaimed strictly FIFO
// and only after the core marks them destaged to the backend. The log
// is also its own checkpoint: a superblock names the oldest record the
// backend may lack, and recovery rebuilds the map from the records that
// follow it (recover.go, §3.3).
//
// Appends use a reserve/commit group-commit protocol (DESIGN.md §9.3):
// Reserve claims ring space and a sequence number under a short
// metadata-only lock; Commit frames the record off-lock and hands it
// to a group-commit leader, which lands many queued records with one
// vectored device write per contiguous span. A write is acknowledged
// (Commit returns) only after its device write completed and its map
// update was applied in sequence order, so Flush stays a single device
// flush with no extra fencing.
package writecache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/invariant"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// ErrFull is returned by Reserve/Append when the log cannot admit the
// record because the head of the ring has not yet been destaged to the
// backend; the caller must destage and mark progress, then retry.
var ErrFull = errors.New("writecache: log full of un-destaged records")

// ErrClosed is returned by a Reserve or a Commit that arrives after
// Quiesce: the record is not written and the write must not be
// acknowledged.
var ErrClosed = errors.New("writecache: closed")

// Config configures Format.
type Config struct {
	// CheckpointBytes is a gap Format leaves between the superblocks and
	// the log; zero gives the log the whole device. Nothing is stored
	// there since the log became its own checkpoint; the one caller that
	// sets it is the benchmark's ladder, and the field goes once that
	// stops. Open reads where the log starts from the superblock.
	CheckpointBytes int64
}

// One group-commit device write absorbs at most groupMaxRecords queued
// records and groupMaxBytes bytes; batching comes only from natural
// concurrency (the leader never lingers for followers).
const (
	groupMaxRecords = 128
	groupMaxBytes   = 8 * block.MiB
)

type recState uint8

const (
	// recWritten: device write complete and map update applied.
	recWritten recState = iota
	// recReserved: ring space claimed, group device write pending.
	recReserved
)

// record is the in-memory ring index entry for one live log record.
type record struct {
	off      int64 // byte offset of the header on the device
	size     int64 // ring bytes the record claims (header + data; a pad, the rest of the ring)
	seq      uint64
	writeSeq uint64
	typ      journal.Type
	epoch    uint32       // of the Format or Open that logged it
	ext      block.Extent // data extent (zero for pads)
	state    recState
}

// hdrBytes is a record header's size in the ring: one extent, framed as
// journal.Encode frames every record, in one sector.
var hdrBytes = int64(journal.HeaderSize(1))

func (r *record) dataOff() int64 { return r.off + hdrBytes }

// BatchHistBuckets is the number of group-commit batch-size histogram
// buckets: batch sizes 1, 2, 3-4, 5-8, ... in powers of two, with the
// last bucket collecting everything larger.
const BatchHistBuckets = 9

// Stats reports cache occupancy and activity.
type Stats struct {
	LogBytes      int64  // capacity of the log area
	UsedBytes     int64  // bytes between head and tail
	DirtyBytes    int64  // bytes not yet destaged to the backend
	Records       int    // live records in the ring
	MapExtents    int    // extent map entries
	Appends       uint64 // records appended since open
	Evictions     uint64 // records reclaimed
	Checkpoints   uint64 // superblocks written
	MaxWriteSeq   uint64 // newest client write in the log
	DestagedSeq   uint64 // newest client write known durable remotely
	RecoveredRecs int    // records rebuilt from the log scan at open
	ReplayedRecs  int    // records Records handed back to the backend
	ReplayedBytes int64  // payload bytes of those records

	// Group-commit activity.
	GroupBatches  uint64                   // group device-write rounds
	GroupRecords  uint64                   // records landed by those rounds
	DevWrites     uint64                   // vectored span writes issued
	ReserveWaits  uint64                   // Reserve blocked on an in-flight group write
	BatchSizeHist [BatchHistBuckets]uint64 // batch-size distribution (1,2,≤4,≤8,…)
}

// batchHistBucket maps a batch size to its histogram bucket.
func batchHistBucket(n int) int {
	b := 0
	for n > 1 && b < BatchHistBuckets-1 {
		n = (n + 1) / 2
		b++
	}
	return b
}

// pendingRec is one committed-but-unwritten record queued for the
// group-commit leader: the framed header, the caller's payload, and
// the completion signal closed once the record is written and mapped.
type pendingRec struct {
	rec  *record
	hdr  []byte
	data []byte
	done chan struct{}
	err  error
}

// Reservation is a claim on ring space returned by Reserve; exactly
// one Commit must follow every successful Reserve.
type Reservation struct {
	rec     *record
	dataLen int
}

// Cache is a log-structured write-back cache on a block device.
// Metadata mutations take the write lock; lookups and data reads share
// the read lock, so concurrent readers never block each other and an
// eviction can never reuse log space out from under an in-progress
// read. Group-commit device writes run outside the lock entirely:
// they touch only reserved (unmapped, unevictable) ring space, which
// no reader can reach.
type Cache struct {
	mu  sync.RWMutex //lsvd:lock wcache.mu
	dev simdev.Device

	logStart, logEnd int64
	head, tail       int64 // byte offsets into [logStart, logEnd)
	used             int64
	nextSeq          uint64
	epoch            uint32 // this Format's or Open's, stamped on its records
	maxWriteSeq      uint64
	destagedSeq      uint64
	superGen         uint64

	// The start of the chain in the newest durable superblock: the ring
	// offset recovery begins at and the sequence number and epoch it
	// expects there. Nothing at or beyond it is released before a newer
	// superblock is durable (evictOne).
	startOff   int64
	startSeq   uint64
	startEpoch uint32

	ring []*record // FIFO of live records, oldest first
	m    *extmap.Map

	// Group-commit state. gmu guards only the commit queue, leadership
	// flag and in-flight commit count, and is never held together with
	// mu. closed is set under gmu, so a Commit that sees it clear is
	// counted in committing before Quiesce can return; Reserve reads it
	// under mu.
	gmu        sync.Mutex //lsvd:lock wcache.gmu
	commitq    []*pendingRec
	leaderBusy bool
	committing int         // Commit calls between enqueue and ack
	qcond      *sync.Cond  // broadcast when committing drops to zero
	closed     atomic.Bool // set by Quiesce: later Reserves and Commits fail

	// mapSeq is the next record sequence whose map update may be
	// applied; pendingMap holds device-written records (nil for pads,
	// which are written inline at reserve time) awaiting their turn so
	// that map updates — and therefore acks — happen in reserve order.
	mapSeq      uint64
	pendingMap  map[uint64]*pendingRec
	writtenCond *sync.Cond // broadcast when records transition to written
	ioErr       error      // sticky group device-write failure

	appends, evictions, checkpoints uint64
	groupBatches, groupRecords      uint64
	devWrites, reserveWaits         uint64
	batchHist                       [BatchHistBuckets]uint64
	recovered                       int
	replayedRecs                    int
	replayedBytes                   int64
}

// freeAt returns how many bytes can be written at tail without
// crossing the head or the end of the log.
func (c *Cache) freeAt(tail int64) int64 {
	if c.used == 0 {
		return c.logEnd - tail
	}
	if tail >= c.head {
		return c.logEnd - tail
	}
	return c.head - tail
}

// Append persists one client write to the log, blocking until it is
// written and indexed: a Reserve/Commit pair for callers without
// concurrency of their own.
func (c *Cache) Append(writeSeq uint64, ext block.Extent, data []byte) error {
	res, err := c.Reserve(writeSeq, journal.TypeData, ext, len(data))
	if err != nil {
		return err
	}
	return c.Commit(res, data, journal.Sum(data))
}

// Reserve claims log space and a sequence number for one client write
// under a short metadata-only critical section; the payload I/O
// happens in Commit, off this lock. Reservation order defines the
// record sequence order, and acknowledgment (Commit return) follows
// that order, so callers that reserve under their own pipeline lock
// get ring order == their pipeline order. Every successful Reserve
// must be followed by exactly one Commit. ErrFull means the ring has
// no reclaimable space and the caller must destage first, then retry;
// the other failures are a record larger than the log, a device error,
// which is sticky, and ErrClosed after Quiesce.
func (c *Cache) Reserve(writeSeq uint64, typ journal.Type, ext block.Extent, dataLen int) (*Reservation, error) {
	if typ == journal.TypeData && int64(dataLen) != ext.Bytes() {
		return nil, fmt.Errorf("writecache: extent %v does not match %d data bytes", ext, dataLen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.ioErr != nil {
		return nil, c.ioErr
	}

	need := hdrBytes + int64(dataLen)
	if need > c.logEnd-c.logStart-int64(block.BlockSize) {
		return nil, fmt.Errorf("writecache: record of %d bytes exceeds log of %d", need, c.logEnd-c.logStart)
	}

	// Make room: wrap with a pad record when the front of the ring has
	// space, otherwise evict destaged records from the head. A one
	// block guard gap keeps tail from ever catching head, which would
	// make a full ring indistinguishable from an empty one.
	guard := int64(block.BlockSize)
	for {
		// Checked before any pad or eviction, and again after every wait.
		if c.closed.Load() {
			return nil, ErrClosed
		}
		free := c.freeAt(c.tail)
		if free >= need+guard {
			break
		}
		if c.tail >= c.head {
			frontRoom := c.head - c.logStart
			if c.used == 0 {
				frontRoom = c.tail - c.logStart
			}
			if frontRoom >= need+2*guard {
				if err := c.writePad(); err != nil {
					return nil, err
				}
				continue
			}
		}
		if c.evictOne() {
			continue
		}
		if c.ioErr != nil {
			return nil, c.ioErr
		}
		// The head is not reclaimable. If it is destaged but its group
		// device write is still in flight, wait for the leader to land
		// it; otherwise the caller must destage first.
		if len(c.ring) > 0 && c.ring[0].state == recReserved &&
			(c.ring[0].typ == journal.TypePad || c.ring[0].writeSeq <= c.destagedSeq) {
			c.reserveWaits++
			c.writtenCond.Wait()
			if c.ioErr != nil {
				return nil, c.ioErr
			}
			continue
		}
		return nil, ErrFull
	}

	// Ring order is writeSeq order: persistStartLocked and
	// ReadFullDestaged take the un-destaged records to be a suffix.
	if writeSeq < c.maxWriteSeq {
		invariant.Failf("writecache: write %d reserved behind write %d", writeSeq, c.maxWriteSeq)
	}
	r := &record{off: c.tail, size: need, seq: c.nextSeq, epoch: c.epoch, writeSeq: writeSeq, typ: typ, ext: ext, state: recReserved}
	c.ring = append(c.ring, r)
	c.used += r.size
	c.tail += r.size
	if c.tail == c.logEnd {
		c.tail = c.logStart
	}
	invariant.Assert(c.used <= c.logEnd-c.logStart && c.tail >= c.logStart && c.tail < c.logEnd,
		"writecache: ring accounting out of bounds after reserve")
	c.nextSeq++
	c.appends++
	return &Reservation{rec: r, dataLen: dataLen}, nil
}

// Commit frames the reserved record and queues it for the group-commit
// leader; it returns once the record's device write has completed and
// its map update has been applied (in reservation order), i.e. once
// the write may be acknowledged. The caller's data buffer is written
// directly to the device — it must stay untouched until Commit
// returns, and the cache does not retain it afterwards. sum is
// journal.Sum(data): the caller's one pass over the payload, which the
// record's CRC is derived from without reading data again.
func (c *Cache) Commit(res *Reservation, data []byte, sum uint32) error {
	if len(data) != res.dataLen {
		return fmt.Errorf("writecache: commit of %d bytes does not match reservation of %d", len(data), res.dataLen)
	}
	r := res.rec
	hdr := journal.EncodeHeaderSum(&journal.Header{
		Type:     r.typ,
		Seq:      r.seq,
		Epoch:    r.epoch,
		WriteSeq: r.writeSeq,
		Extents:  []journal.ExtentEntry{{LBA: r.ext.LBA, Sectors: r.ext.Sectors}},
		DataLen:  uint64(len(data)),
	}, sum)
	pr := &pendingRec{rec: r, hdr: hdr, data: data, done: make(chan struct{})}

	c.gmu.Lock()
	if c.closed.Load() {
		c.gmu.Unlock()
		return ErrClosed
	}
	c.commitq = append(c.commitq, pr)
	c.committing++
	lead := !c.leaderBusy
	if lead {
		c.leaderBusy = true
	}
	c.gmu.Unlock()

	if lead {
		c.runLeader()
	}
	<-pr.done

	c.gmu.Lock()
	c.committing--
	if c.committing == 0 {
		c.qcond.Broadcast()
	}
	c.gmu.Unlock()
	return pr.err
}

// Quiesce blocks until no Commit is in flight — no group device write
// can be running or about to run — and closes the cache to new ones: a
// writer that reserved before the call but reaches Commit after it, or
// reserves after it, gets ErrClosed and writes nothing, not even the pad
// record a wrapping Reserve writes. Shutdown paths (Close, Kill) use it
// so that once they return, nothing is still writing to the device: a
// host may hand the volume's SSD section to a new tenant. It waits
// before it closes because a queued Commit may be waiting, for its ack,
// on an earlier reservation's Commit still on its way.
func (c *Cache) Quiesce() {
	c.gmu.Lock()
	for c.committing > 0 {
		c.qcond.Wait()
	}
	c.closed.Store(true)
	c.gmu.Unlock()
	// A Reserve past its check holds mu until its pad is written; one
	// waiting for a group write wakes to find the cache closed.
	c.mu.Lock()
	c.writtenCond.Broadcast()
	c.mu.Unlock()
}

// runLeader drains the commit queue in batches, issuing one vectored
// device write per contiguous ring span, then applying map updates and
// acknowledgments in sequence order. Exactly one leader runs at a
// time; followers just queue and wait, which is what turns N
// concurrent appends into one device barrier (group commit).
func (c *Cache) runLeader() {
	c.gmu.Lock()
	for len(c.commitq) > 0 {
		take, bytes := 0, int64(0)
		for take < len(c.commitq) && take < groupMaxRecords {
			sz := c.commitq[take].rec.size
			if take > 0 && bytes+sz > groupMaxBytes {
				break
			}
			bytes += sz
			take++
		}
		batch := make([]*pendingRec, take)
		copy(batch, c.commitq)
		c.commitq = c.commitq[take:]
		c.gmu.Unlock()

		c.writeGroup(batch)

		c.gmu.Lock()
	}
	c.leaderBusy = false
	c.gmu.Unlock()
}

// writeGroup lands one batch: records are sorted by ring offset and
// merged into contiguous spans, each written with a single vectored
// device write straight from the callers' buffers (header, payload —
// no staging copy). Then, under the metadata lock, map updates are
// applied in sequence order and the records acknowledged.
func (c *Cache) writeGroup(batch []*pendingRec) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].rec.off < batch[j].rec.off })
	var werr error
	spans := uint64(0)
	for i := 0; i < len(batch) && werr == nil; {
		spanOff := batch[i].rec.off
		next := spanOff
		var bufs [][]byte
		for ; i < len(batch) && batch[i].rec.off == next; i++ {
			pr := batch[i]
			bufs = append(bufs, pr.hdr)
			if len(pr.data) > 0 {
				bufs = append(bufs, pr.data)
			}
			next += pr.rec.size
		}
		spans++
		werr = simdev.WriteVec(c.dev, spanOff, bufs...)
	}

	c.mu.Lock()
	if c.ioErr != nil {
		werr = c.ioErr
	}
	if werr != nil {
		// A hole in the log chain is unrecoverable for everything
		// behind it: poison the cache and fail every waiter.
		c.ioErr = werr
		for _, pr := range batch {
			pr.err = werr
			close(pr.done)
		}
		for seq, pr := range c.pendingMap {
			delete(c.pendingMap, seq)
			if pr != nil {
				pr.err = werr
				close(pr.done)
			}
		}
	} else {
		for _, pr := range batch {
			c.pendingMap[pr.rec.seq] = pr
		}
		c.drainMapChainLocked()
		c.groupBatches++
		c.groupRecords += uint64(len(batch))
		c.devWrites += spans
		c.batchHist[batchHistBucket(len(batch))]++
	}
	c.writtenCond.Broadcast()
	c.mu.Unlock()
}

// drainMapChainLocked applies map updates for device-written records
// in strict sequence order, acknowledging each as it lands. In-order
// application keeps the cache map and the (FIFO-destaged) backend
// agreeing on the winner of overlapping writes, and defers every ack
// behind its predecessors so an acknowledged write is always readable.
//
//lsvd:requires wcache.mu
func (c *Cache) drainMapChainLocked() {
	for {
		pr, ok := c.pendingMap[c.mapSeq]
		if !ok {
			return
		}
		delete(c.pendingMap, c.mapSeq)
		c.mapSeq++
		if pr == nil {
			continue // pad: no map entry, no waiter
		}
		r := pr.rec
		switch r.typ {
		case journal.TypeData:
			c.m.Update(r.ext, extmap.Target{Off: block.LBAFromBytes(r.dataOff())})
		case journal.TypeTrim:
			c.m.Update(r.ext, extmap.Target{Off: trimTombstoneOff})
		}
		r.state = recWritten
		if r.writeSeq > c.maxWriteSeq {
			c.maxWriteSeq = r.writeSeq
		}
		close(pr.done)
	}
}

// writePad claims the space from tail to the end of the log with a pad
// record so the next record starts at logStart. Only the header sector
// is written; the skipped length rides in the header's extent entry, so
// no zero payload is materialized. Pads are written inline under the
// metadata lock — they are rare and keep the ring geometry simple.
//
//lsvd:requires wcache.mu
func (c *Cache) writePad() error {
	padLen := c.logEnd - c.tail
	h := &journal.Header{
		Type:    journal.TypePad,
		Seq:     c.nextSeq,
		Epoch:   c.epoch,
		Extents: []journal.ExtentEntry{{Sectors: uint32(padLen >> block.SectorShift)}},
	}
	rec, err := journal.Encode(h, nil, false)
	if err != nil {
		return err
	}
	if err := c.dev.WriteAt(rec, c.tail); err != nil {
		c.ioErr = err
		return err
	}
	c.ring = append(c.ring, &record{off: c.tail, size: padLen, seq: c.nextSeq, epoch: c.epoch, typ: journal.TypePad})
	c.used += padLen
	// Keep the in-order map chain moving past the pad's sequence slot.
	if c.mapSeq == c.nextSeq {
		c.mapSeq++
		c.drainMapChainLocked()
	} else {
		c.pendingMap[c.nextSeq] = nil
	}
	c.nextSeq++
	c.tail = c.logStart
	return nil
}

// evictOne reclaims the oldest record if the backend has it; the map
// entries still pointing at its data are dropped. Records whose group
// device write is still in flight are never reclaimed — the leader
// would otherwise overwrite freshly reserved space. This is the only
// place ring space is freed, so it is where the head could pass the
// start the durable superblock names: a newer superblock is written
// and flushed first (one per destaged stretch of the ring, not one per
// lap), and if that fails nothing is released.
//
//lsvd:requires wcache.mu
func (c *Cache) evictOne() bool {
	if len(c.ring) == 0 {
		return false
	}
	r := c.ring[0]
	if r.state != recWritten {
		return false
	}
	if (r.typ == journal.TypeData || r.typ == journal.TypeTrim) && r.writeSeq > c.destagedSeq {
		return false
	}
	if r.seq >= c.startSeq && c.persistStartLocked() != nil {
		return false
	}
	switch r.typ {
	case journal.TypeData:
		dataLo := block.LBAFromBytes(r.dataOff())
		dataHi := dataLo + block.LBA(r.ext.Sectors)
		c.m.DeleteIf(r.ext, func(run extmap.Run) bool {
			return run.Target.Off >= dataLo && run.Target.Off < dataHi
		})
	case journal.TypeTrim:
		// Dropping a tombstone owned by a newer overlapping trim is
		// harmless: this trim is destaged, so the backend already
		// reads as zeros for the shared range.
		c.m.DeleteIf(r.ext, IsTombstone)
	}
	c.ring = c.ring[1:]
	c.used -= r.size
	invariant.Assert(c.used >= 0, "writecache: used bytes negative after evicting a record")
	if len(c.ring) > 0 {
		c.head = c.ring[0].off
	} else {
		c.head = c.tail
	}
	c.evictions++
	return true
}

// SetDestaged tells the cache that all client writes up to and
// including writeSeq are durable in the backend, unlocking FIFO
// reclamation of the corresponding records.
func (c *Cache) SetDestaged(writeSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if writeSeq > c.destagedSeq {
		c.destagedSeq = writeSeq
	}
}

// Flush is the commit barrier: one device flush makes every prior log
// record durable (§3.2). No metadata writes are needed. The read lock
// suffices: an append is only acknowledged (Commit returns) after its
// group device write completed, so the flush covers every
// acknowledged append.
func (c *Cache) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dev.Flush()
}

// Trims are held in the map as tombstone runs — Present, but with this
// sentinel target — so a read of a discarded range is answered (with
// zeros) by the cache instead of falling through to a backend that may
// not have applied the trim yet. The tombstone lives exactly as long
// as the trim's log record: eviction removes both together.
const trimTombstoneOff = block.LBA(1) << 60

// IsTombstone reports whether a run returned by Lookup/ReadExtent is a
// trim tombstone (reads as zeros, no backing log data). Partial lookups
// and splits shift a run's target by its offset into the entry, so the
// test is on the sentinel bit, not equality.
func IsTombstone(run extmap.Run) bool {
	return run.Present && run.Target.Off >= trimTombstoneOff
}

// Lookup returns the cache's coverage of ext.
func (c *Cache) Lookup(ext block.Extent) []extmap.Run {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Lookup(ext)
}

// ReadAt reads cached data previously located via Lookup. Under
// concurrency a Lookup target can be evicted before the read; callers
// on the data path should use ReadExtent, which holds the lock across
// lookup and read.
func (c *Cache) ReadAt(t extmap.Target, buf []byte) error {
	return c.dev.ReadAt(buf, t.Off.Bytes())
}

// ReadExtent looks up ext and reads every present run into the
// matching positions of buf (len(buf) == ext.Bytes()), all under one
// lock acquisition so a concurrent eviction cannot reuse the log space
// mid-read. Absent runs are returned untouched for the caller's next
// cache level. The map only ever points at device-written records, so
// a concurrent group-commit device write (which runs off-lock) can
// never be observed here.
func (c *Cache) ReadExtent(ext block.Extent, buf []byte) ([]extmap.Run, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	runs := c.m.Lookup(ext)
	for _, run := range runs {
		if !run.Present {
			continue
		}
		off := (run.LBA - ext.LBA).Bytes()
		if IsTombstone(run) {
			clear(buf[off : off+run.Bytes()])
			continue
		}
		if err := c.dev.ReadAt(buf[off:off+run.Bytes()], run.Target.Off.Bytes()); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// ReadFullDestaged fills buf with the cache's data for ext if the
// extent is fully resident and fully destaged, holding the lock across
// the device reads: it fails when any un-destaged record overlaps ext,
// so the bytes it returns are exactly the extent's backend-committed
// version. The GC fetch path (§3.5) needs that distinction — the newest
// cached bytes may belong to an acknowledged write whose object has not
// committed yet, and copying those into a GC object would publish data
// from the future: after a crash, recovery installs the GC object and
// the image is no longer a prefix of the acknowledged writes (§3.4).
func (c *Cache) ReadFullDestaged(ext block.Extent, buf []byte) bool {
	// GC's FetchFromCache path, called with bs.mu dropped: the lock may
	// wait for a device write.
	c.mu.RLock()
	defer c.mu.RUnlock()
	// The ring is writeSeq-ordered (records are reserved under the
	// caller's write mutex), so the un-destaged records form a suffix.
	for i := len(c.ring) - 1; i >= 0; i-- {
		r := c.ring[i]
		if r.typ != journal.TypeData && r.typ != journal.TypeTrim {
			continue
		}
		if r.writeSeq <= c.destagedSeq {
			break
		}
		if r.ext.Overlaps(ext) {
			return false
		}
	}
	runs := c.m.Lookup(ext)
	for _, run := range runs {
		// Tombstones count as not-resident: the GC wants the extent's
		// logged data, not the zeros of a newer discard.
		if !run.Present || IsTombstone(run) {
			return false
		}
	}
	for _, run := range runs {
		off := (run.LBA - ext.LBA).Bytes()
		if err := c.dev.ReadAt(buf[off:off+run.Bytes()], run.Target.Off.Bytes()); err != nil {
			return false
		}
	}
	return true
}

// MaxWriteSeq returns the newest client write sequence in the log.
func (c *Cache) MaxWriteSeq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.maxWriteSeq
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dirty := int64(0)
	for _, r := range c.ring {
		if r.typ == journal.TypeData && r.writeSeq > c.destagedSeq {
			dirty += r.size
		}
	}
	return Stats{
		LogBytes: c.logEnd - c.logStart, UsedBytes: c.used, DirtyBytes: dirty,
		Records: len(c.ring), MapExtents: c.m.Len(),
		Appends: c.appends, Evictions: c.evictions, Checkpoints: c.checkpoints,
		MaxWriteSeq: c.maxWriteSeq, DestagedSeq: c.destagedSeq, RecoveredRecs: c.recovered,
		ReplayedRecs: c.replayedRecs, ReplayedBytes: c.replayedBytes,
		GroupBatches: c.groupBatches, GroupRecords: c.groupRecords,
		DevWrites: c.devWrites, ReserveWaits: c.reserveWaits,
		BatchSizeHist: c.batchHist,
	}
}

// DestagePressure reports whether the cache log is close enough to
// full that destage throughput is what stands between writers and a
// ring-full stall: more than half the log is dirty (written but not
// yet destaged) or over 90% of it is in use. The GC service polls it
// as a backpressure signal — relocation I/O competes with destage for
// the same backend budget, so GC defers while the log is drowning.
func (c *Cache) DestagePressure() bool {
	// The GC service polls this with bs.mu dropped: the lock may wait
	// for a device write.
	c.mu.RLock()
	defer c.mu.RUnlock()
	logBytes := c.logEnd - c.logStart
	if logBytes <= 0 {
		return false
	}
	dirty := int64(0)
	for _, r := range c.ring {
		if r.typ == journal.TypeData && r.writeSeq > c.destagedSeq {
			dirty += r.size
		}
	}
	// Only the destage BACKLOG is pressure. Raw ring occupancy is not:
	// already-destaged records sit in the ring until reserve lazily
	// evicts them, so a quiet volume after a heavy run keeps a ~full log
	// of clean records indefinitely — writers reclaim that space
	// instantly, while an occupancy clause here would latch the backoff
	// signal on and starve the GC forever.
	return dirty*2 > logBytes
}
