// Package writecache implements LSVD's log-structured write-back cache
// (paper §3.1, Fig 2): incoming writes are persisted as sequential log
// records on the cache SSD — a 4 KiB-aligned header carrying the
// virtual LBA, sequence number and CRC, followed by the data — and
// indexed by an in-memory extent map from vLBA to physical SSD
// location.
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
// and only after the core marks them destaged to the backend; the map
// is periodically checkpointed to a reserved SSD region to bound
// replay time (§3.3).
//
// Appends use a reserve/commit group-commit protocol (DESIGN.md §5f):
// Reserve claims ring space and a sequence number under a short
// metadata-only lock; Commit frames the record off-lock and hands it
// to a group-commit leader, which lands many queued records with one
// vectored device write per contiguous span. A write is acknowledged
// (Commit returns) only after its device write completed and its map
// update was applied in sequence order, so Flush stays a single device
// flush with no extra fencing.
package writecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

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

const (
	superSlot0 = 0
	superSlot1 = block.BlockSize
	ckptStart  = 2 * block.BlockSize
)

// seqBits is the width of the record counter inside a log record's
// sequence number; the bits above it carry the format epoch. Format
// continues the device's epoch (kept in the superblock), so a record
// logged by an earlier cache on the same device can never be the next
// link of this cache's chain, whatever offsets and sizes line up:
// replay's "sequence must be exactly nextSeq" test rejects it. The
// epoch wraps after 65 536 formats of one device.
const seqBits = 48

// Config configures a cache instance.
type Config struct {
	// CheckpointBytes reserves space for two rotating map checkpoint
	// slots. Default 16 MiB.
	CheckpointBytes int64
	// CheckpointEvery triggers an automatic checkpoint after this many
	// appended records. Default 8192. Zero disables automatic
	// checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery int
}

// One group-commit device write absorbs at most groupMaxRecords queued
// records and groupMaxBytes bytes; batching comes only from natural
// concurrency (the leader never lingers for followers).
const (
	groupMaxRecords = 128
	groupMaxBytes   = 8 * block.MiB
)

func (c *Config) setDefaults() {
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 16 * block.MiB
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8192
	}
}

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
	size     int64 // total record bytes (header + padded data)
	seq      uint64
	writeSeq uint64
	typ      journal.Type
	ext      block.Extent // data extent (zero for pads)
	state    recState
}

func (r *record) dataOff() int64 { return r.off + int64(journal.AlignedHeaderSize(1)) }

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
	Checkpoints   uint64
	MaxWriteSeq   uint64 // newest client write in the log
	DestagedSeq   uint64 // newest client write known durable remotely
	RecoveredRecs int    // records rebuilt from the log scan at open
	ReplayedRecs  int    // records RecordsAfter handed back to the backend
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
	pad  int64
	done chan struct{}
	err  error
}

// Reservation is a claim on ring space returned by Reserve; exactly
// one Commit must follow every successful Reserve.
type Reservation struct {
	rec     *record
	dataLen int
}

// zeroPad backs the trailing-padding slices of vectored record writes;
// records are 4 KiB-padded, so a record's tail pad is < 4 KiB.
var zeroPad [block.BlockSize]byte

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
	cfg Config

	logStart, logEnd int64
	head, tail       int64 // byte offsets into [logStart, logEnd)
	used             int64
	nextSeq          uint64
	maxWriteSeq      uint64
	destagedSeq      uint64
	superGen         uint64
	ckptSlot         int // which slot the next checkpoint uses (0/1)

	ring []*record // FIFO of live records, oldest first
	m    *extmap.Map

	// Group-commit state. gmu guards only the commit queue, leadership
	// flag and in-flight commit count, and is never held together with
	// mu.
	gmu        sync.Mutex //lsvd:lock wcache.gmu
	commitq    []*pendingRec
	leaderBusy bool
	committing int        // Commit calls between enqueue and ack
	qcond      *sync.Cond // broadcast when committing drops to zero

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
	sinceCkpt                       int
	recovered                       int
	replayedRecs                    int
	replayedBytes                   int64
}

// Format initializes a device as an empty cache and returns it opened.
// Whatever cache the device held before is invalidated: the superblock
// generation continues from the one on the device, so the new super
// wins readSuper's vote; the two checkpoints written here land in
// alternate slots, so both superblock slots and both checkpoint slots
// belong to the new format; and the format epoch moves on, so nothing
// left in the ring is replayable (seqBits).
func Format(dev simdev.Device, cfg Config) (*Cache, error) {
	cfg.setDefaults()
	c := &Cache{dev: dev, cfg: cfg, m: extmap.New()}
	c.init()
	c.logStart = ckptStart + cfg.CheckpointBytes
	c.logEnd = dev.Size() &^ (block.BlockSize - 1)
	if c.logEnd-c.logStart < 4*block.MiB {
		return nil, fmt.Errorf("writecache: device of %d bytes too small (log area %d)", dev.Size(), c.logEnd-c.logStart)
	}
	prev, _ := c.readSuper() // zero on a device never formatted
	c.superGen = prev.gen
	c.nextSeq = (prev.epoch+1)<<seqBits | 1
	c.head, c.tail = c.logStart, c.logStart
	c.mapSeq = c.nextSeq
	for i := 0; i < 2; i++ {
		//lsvd:ignore construction runs single-goroutine before the cache is published; wcache.mu cannot be contended
		if err := c.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Open recovers a cache from a formatted device: it loads the latest
// checkpoint and replays the log tail, stopping at the first record
// whose magic, CRC or sequence number does not line up (§3.3).
func Open(dev simdev.Device, cfg Config) (*Cache, error) {
	cfg.setDefaults()
	c := &Cache{dev: dev, cfg: cfg, m: extmap.New()}
	c.init()
	c.logStart = ckptStart + cfg.CheckpointBytes
	c.logEnd = dev.Size() &^ (block.BlockSize - 1)
	if err := c.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := c.replay(); err != nil {
		return nil, err
	}
	c.mapSeq = c.nextSeq
	return c, nil
}

func (c *Cache) init() {
	c.pendingMap = make(map[uint64]*pendingRec)
	c.writtenCond = sync.NewCond(&c.mu)
	c.qcond = sync.NewCond(&c.gmu)
}

// superblock payload: generation, checkpoint slot, checkpoint length,
// format epoch (absent, read as zero, on a device formatted before
// epochs existed). The record is encoded unaligned (it is a few dozen
// bytes) so that it fits entirely within its 4 KiB slot.
type superblock struct {
	gen     uint64
	slot    uint32
	ckptLen int64
	epoch   uint64
}

func encodeSuper(sb superblock) ([]byte, error) {
	data := make([]byte, 28)
	binary.LittleEndian.PutUint64(data, sb.gen)
	binary.LittleEndian.PutUint32(data[8:], sb.slot)
	binary.LittleEndian.PutUint64(data[12:], uint64(sb.ckptLen))
	binary.LittleEndian.PutUint64(data[20:], sb.epoch)
	return journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: sb.gen, DataLen: uint64(len(data))}, data, false)
}

func (c *Cache) writeSuper(ckptLen int64) error {
	c.superGen++
	rec, err := encodeSuper(superblock{
		gen: c.superGen, slot: uint32(c.ckptSlot), ckptLen: ckptLen, epoch: c.nextSeq >> seqBits,
	})
	if err != nil {
		return err
	}
	slotOff := int64(superSlot0)
	if c.superGen%2 == 1 {
		slotOff = superSlot1
	}
	if err := c.dev.WriteAt(rec, slotOff); err != nil {
		return err
	}
	return c.dev.Flush()
}

func (c *Cache) readSuper() (best superblock, err error) {
	found := false
	buf := make([]byte, block.BlockSize)
	for _, off := range []int64{superSlot0, superSlot1} {
		if rerr := c.dev.ReadAt(buf, off); rerr != nil {
			continue
		}
		h, data, _, derr := journal.Decode(buf, false)
		if derr != nil || h.Type != journal.TypeSuper || len(data) < 20 {
			continue
		}
		sb := superblock{
			gen:     binary.LittleEndian.Uint64(data),
			slot:    binary.LittleEndian.Uint32(data[8:]),
			ckptLen: int64(binary.LittleEndian.Uint64(data[12:])),
		}
		if len(data) >= 28 {
			sb.epoch = binary.LittleEndian.Uint64(data[20:])
		}
		if !found || sb.gen > best.gen {
			best, found = sb, true
		}
	}
	if !found {
		return superblock{}, fmt.Errorf("writecache: no valid superblock (device not formatted?)")
	}
	return best, nil
}

// checkpoint payload layout. The checkpoint covers only the written
// prefix of the ring — records whose group device write has completed
// and whose map update has been applied. Reserved-but-unwritten
// records are cut off at a truncated tail/nextSeq; if their device
// writes land before a crash, the replay scan recovers them.
func (c *Cache) encodeCheckpoint(ring []*record, tail int64, nextSeq uint64) ([]byte, error) {
	mapBytes, err := c.m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	// head, tail, nextSeq, maxWriteSeq, destagedSeq, nRing, mapLen
	buf := make([]byte, 0, 7*8+len(ring)*44+len(mapBytes))
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	put64(uint64(c.head))
	put64(uint64(tail))
	put64(nextSeq)
	put64(c.maxWriteSeq)
	put64(c.destagedSeq)
	put64(uint64(len(ring)))
	put64(uint64(len(mapBytes)))
	for _, r := range ring {
		put64(uint64(r.off))
		put64(uint64(r.size))
		put64(r.seq)
		put64(r.writeSeq)
		put64(uint64(r.ext.LBA))
		binary.LittleEndian.PutUint32(scratch[:4], r.ext.Sectors)
		buf = append(buf, scratch[:4]...)
		buf = append(buf, byte(r.typ))
	}
	buf = append(buf, mapBytes...)
	return buf, nil
}

func (c *Cache) decodeCheckpoint(data []byte) error {
	if len(data) < 56 {
		return fmt.Errorf("writecache: checkpoint too short (%d bytes)", len(data))
	}
	g := func(i int) uint64 { return binary.LittleEndian.Uint64(data[i*8:]) }
	c.head = int64(g(0))
	c.tail = int64(g(1))
	c.nextSeq = g(2)
	c.maxWriteSeq = g(3)
	c.destagedSeq = g(4)
	off := 56
	const ringEntry = 45
	// Bound both counts against the data actually present BEFORE
	// converting: hostile 64-bit counts would wrap negative, pass the
	// truncation check, and panic in make below. This also bounds the
	// ring allocation by the checkpoint size.
	if g(5) > uint64(len(data)-off)/ringEntry || g(6) > uint64(len(data)) {
		return fmt.Errorf("writecache: checkpoint truncated")
	}
	nRing := int(g(5))
	mapLen := int(g(6))
	if len(data) < off+nRing*ringEntry+mapLen {
		return fmt.Errorf("writecache: checkpoint truncated")
	}
	c.ring = make([]*record, 0, nRing)
	c.used = 0
	for i := 0; i < nRing; i++ {
		p := data[off:]
		r := &record{
			off:      int64(binary.LittleEndian.Uint64(p)),
			size:     int64(binary.LittleEndian.Uint64(p[8:])),
			seq:      binary.LittleEndian.Uint64(p[16:]),
			writeSeq: binary.LittleEndian.Uint64(p[24:]),
			ext: block.Extent{
				LBA:     block.LBA(binary.LittleEndian.Uint64(p[32:])),
				Sectors: binary.LittleEndian.Uint32(p[40:]),
			},
			typ: journal.Type(p[44]),
		}
		c.ring = append(c.ring, r)
		c.used += r.size
		off += ringEntry
	}
	return c.m.UnmarshalBinary(data[off : off+mapLen])
}

func (c *Cache) ckptSlotOff(slot int) int64 {
	half := c.cfg.CheckpointBytes / 2
	return ckptStart + int64(slot)*half
}

// Checkpoint persists the map and ring index to the reserved SSD
// region and commits it via the superblock, bounding recovery replay.
func (c *Cache) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpointLocked()
}

//lsvd:requires wcache.mu
func (c *Cache) checkpointLocked() error {
	// Snapshot the written prefix: the map holds exactly the updates of
	// records with seq < mapSeq, and the ring is in seq order, so the
	// prefix boundary is the first non-written entry.
	ring, tail, nextSeq := c.ring, c.tail, c.nextSeq
	for i, r := range c.ring {
		if r.state != recWritten {
			ring, tail, nextSeq = c.ring[:i], r.off, r.seq
			break
		}
	}
	payload, err := c.encodeCheckpoint(ring, tail, nextSeq)
	if err != nil {
		return err
	}
	rec, err := journal.Encode(&journal.Header{Type: journal.TypeCheckpoint, Seq: c.superGen + 1, DataLen: uint64(len(payload))}, payload, true)
	if err != nil {
		return err
	}
	if int64(len(rec)) > c.cfg.CheckpointBytes/2 {
		return fmt.Errorf("writecache: checkpoint of %d bytes exceeds slot of %d", len(rec), c.cfg.CheckpointBytes/2)
	}
	slot := (c.ckptSlot + 1) % 2
	if err := c.dev.WriteAt(rec, c.ckptSlotOff(slot)); err != nil {
		return err
	}
	if err := c.dev.Flush(); err != nil {
		return err
	}
	c.ckptSlot = slot
	if err := c.writeSuper(int64(len(rec))); err != nil {
		return err
	}
	c.checkpoints++
	c.sinceCkpt = 0
	return nil
}

func (c *Cache) loadCheckpoint() error {
	sb, err := c.readSuper()
	if err != nil {
		return err
	}
	c.superGen = sb.gen
	c.ckptSlot = int(sb.slot)
	buf := make([]byte, sb.ckptLen)
	if err := c.dev.ReadAt(buf, c.ckptSlotOff(int(sb.slot))); err != nil {
		return err
	}
	h, payload, _, err := journal.Decode(buf, true)
	if err != nil {
		return fmt.Errorf("writecache: checkpoint unreadable: %w", err)
	}
	if h.Type != journal.TypeCheckpoint {
		return fmt.Errorf("writecache: checkpoint slot holds %v record", h.Type)
	}
	return c.decodeCheckpoint(payload)
}

// replay scans the log from the checkpointed tail, applying every
// complete record in sequence until the chain breaks.
func (c *Cache) replay() error {
	hdr := make([]byte, journal.AlignedHeaderSize(1))
	for {
		if c.tail == c.logEnd {
			c.tail = c.logStart
		}
		if err := c.dev.ReadAt(hdr, c.tail); err != nil {
			return err
		}
		h, _, err := journal.DecodeHeader(hdr)
		if err != nil || h.Seq != c.nextSeq {
			break // end of log
		}
		var total int64
		if h.Type == journal.TypePad {
			// A pad claims the rest of the ring; only its header is
			// on disk.
			if len(h.Extents) != 1 {
				break
			}
			total = int64(h.Extents[0].Sectors) << block.SectorShift
			if c.tail+total != c.logEnd {
				break // pad must end exactly at the ring boundary
			}
			if _, _, _, err := journal.Decode(hdr, true); err != nil {
				break
			}
		} else {
			if h.DataLen > uint64(c.logEnd) {
				break // corrupt length field: would wrap the conversion
			}
			dataLen := int64(h.DataLen)
			total = int64(journal.AlignedHeaderSize(len(h.Extents))) + dataLen
			total = (total + block.BlockSize - 1) &^ (block.BlockSize - 1)
			if c.tail+total > c.logEnd {
				break // would run off the ring: corrupt length
			}
			full := make([]byte, total)
			if err := c.dev.ReadAt(full, c.tail); err != nil {
				return err
			}
			if _, _, _, err := journal.Decode(full, true); err != nil {
				break // incomplete record (torn write): stop here
			}
		}
		c.applyRecord(h, c.tail, total)
		c.tail += total
		c.recovered++
	}
	return nil
}

func (c *Cache) applyRecord(h *journal.Header, off, size int64) {
	r := &record{off: off, size: size, seq: h.Seq, writeSeq: h.WriteSeq, typ: h.Type}
	if len(h.Extents) > 0 {
		r.ext = block.Extent{LBA: h.Extents[0].LBA, Sectors: h.Extents[0].Sectors}
	}
	switch h.Type {
	case journal.TypeData:
		dataOff := off + int64(journal.AlignedHeaderSize(len(h.Extents)))
		c.m.Update(r.ext, extmap.Target{Off: block.LBAFromBytes(dataOff)})
	case journal.TypeTrim:
		c.m.Update(r.ext, extmap.Target{Off: trimTombstoneOff})
	}
	c.ring = append(c.ring, r)
	c.used += size
	c.nextSeq = h.Seq + 1
	if h.WriteSeq > c.maxWriteSeq {
		c.maxWriteSeq = h.WriteSeq
	}
}

// contiguousFree returns how many bytes can be written at the tail
// without crossing the head, and whether the tail would first need to
// wrap (pad) to the start of the log.
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
	return c.Commit(res, data)
}

// AppendTrim logs a discard of ext.
func (c *Cache) AppendTrim(writeSeq uint64, ext block.Extent) error {
	res, err := c.Reserve(writeSeq, journal.TypeTrim, ext, 0)
	if err != nil {
		return err
	}
	return c.Commit(res, nil)
}

// Reserve claims log space and a sequence number for one client write
// under a short metadata-only critical section; the payload I/O
// happens in Commit, off this lock. Reservation order defines the
// record sequence order, and acknowledgment (Commit return) follows
// that order, so callers that reserve under their own pipeline lock
// get ring order == their pipeline order. Every successful Reserve
// must be followed by exactly one Commit. ErrFull means the ring has
// no reclaimable space and the caller must destage first, then retry.
func (c *Cache) Reserve(writeSeq uint64, typ journal.Type, ext block.Extent, dataLen int) (*Reservation, error) {
	if typ == journal.TypeData && int64(dataLen) != ext.Bytes() {
		return nil, fmt.Errorf("writecache: extent %v does not match %d data bytes", ext, dataLen)
	}
	c.mu.Lock()
	invariant.LockOrder("wcache.mu")
	defer c.mu.Unlock()
	defer invariant.LockRelease("wcache.mu")

	if c.ioErr != nil {
		return nil, c.ioErr
	}

	hdrLen := int64(journal.AlignedHeaderSize(1))
	need := hdrLen + int64(dataLen)
	need = (need + block.BlockSize - 1) &^ (block.BlockSize - 1)
	if need > c.logEnd-c.logStart-int64(block.BlockSize) {
		return nil, fmt.Errorf("writecache: record of %d bytes exceeds log of %d", need, c.logEnd-c.logStart)
	}

	// Make room: wrap with a pad record when the front of the ring has
	// space, otherwise evict destaged records from the head. A one
	// block guard gap keeps tail from ever catching head, which would
	// make a full ring indistinguishable from an empty one.
	guard := int64(block.BlockSize)
	for {
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

	r := &record{off: c.tail, size: need, seq: c.nextSeq, writeSeq: writeSeq, typ: typ, ext: ext, state: recReserved}
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
	c.sinceCkpt++
	if c.cfg.CheckpointEvery > 0 && c.sinceCkpt >= c.cfg.CheckpointEvery {
		if err := c.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	return &Reservation{rec: r, dataLen: dataLen}, nil
}

// Commit frames the reserved record and queues it for the group-commit
// leader; it returns once the record's device write has completed and
// its map update has been applied (in reservation order), i.e. once
// the write may be acknowledged. The caller's data buffer is written
// directly to the device — it must stay untouched until Commit
// returns, and the cache does not retain it afterwards.
func (c *Cache) Commit(res *Reservation, data []byte) error {
	if len(data) != res.dataLen {
		return fmt.Errorf("writecache: commit of %d bytes does not match reservation of %d", len(data), res.dataLen)
	}
	r := res.rec
	hdr, err := journal.EncodeHeader(&journal.Header{
		Type:     r.typ,
		Seq:      r.seq,
		WriteSeq: r.writeSeq,
		Extents:  []journal.ExtentEntry{{LBA: r.ext.LBA, Sectors: r.ext.Sectors}},
		DataLen:  uint64(len(data)),
	}, block.BlockSize, data)
	if err != nil {
		return err
	}
	pr := &pendingRec{
		rec:  r,
		hdr:  hdr,
		data: data,
		pad:  r.size - int64(len(hdr)) - int64(len(data)),
		done: make(chan struct{}),
	}

	c.gmu.Lock()
	invariant.LockOrder("wcache.gmu")
	c.commitq = append(c.commitq, pr)
	c.committing++
	lead := !c.leaderBusy
	if lead {
		c.leaderBusy = true
	}
	invariant.LockRelease("wcache.gmu")
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
// can be running or about to run. Shutdown paths (Close, Kill) use it
// so that once they return, nothing is still writing to the device:
// a host may hand the volume's SSD section to a new tenant.
func (c *Cache) Quiesce() {
	c.gmu.Lock()
	for c.committing > 0 {
		c.qcond.Wait()
	}
	c.gmu.Unlock()
}

// runLeader drains the commit queue in batches, issuing one vectored
// device write per contiguous ring span, then applying map updates and
// acknowledgments in sequence order. Exactly one leader runs at a
// time; followers just queue and wait, which is what turns N
// concurrent appends into one device barrier (group commit).
func (c *Cache) runLeader() {
	c.gmu.Lock()
	invariant.LockOrder("wcache.gmu")
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
		invariant.LockRelease("wcache.gmu")
		c.gmu.Unlock()

		c.writeGroup(batch)

		c.gmu.Lock()
		invariant.LockOrder("wcache.gmu")
	}
	c.leaderBusy = false
	invariant.LockRelease("wcache.gmu")
	c.gmu.Unlock()
}

// writeGroup lands one batch: records are sorted by ring offset and
// merged into contiguous spans, each written with a single vectored
// device write straight from the callers' buffers (header, payload,
// zero pad — no staging copy). Then, under the metadata lock, map
// updates are applied in sequence order and the records acknowledged.
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
			if pr.pad > 0 {
				bufs = append(bufs, zeroPad[:pr.pad])
			}
			next += pr.rec.size
		}
		spans++
		werr = simdev.WriteVec(c.dev, spanOff, bufs...)
	}

	c.mu.Lock()
	invariant.LockOrder("wcache.mu")
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
	invariant.LockRelease("wcache.mu")
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
// record so the next record starts at logStart. Only the 4 KiB header
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
		Extents: []journal.ExtentEntry{{Sectors: uint32(padLen >> block.SectorShift)}},
	}
	rec, err := journal.Encode(h, nil, true)
	if err != nil {
		return err
	}
	if err := c.dev.WriteAt(rec, c.tail); err != nil {
		return err
	}
	c.ring = append(c.ring, &record{off: c.tail, size: padLen, seq: c.nextSeq, typ: journal.TypePad})
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
// would otherwise overwrite freshly reserved space.
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
	// GC's FetchFromCache path: called while blockstore holds bs.mu, so
	// this records the same bs.mu → wcache.mu edge as DestagePressure.
	c.mu.RLock()
	invariant.LockOrder("wcache.mu")
	defer invariant.LockRelease("wcache.mu")
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

// RecordsAfter replays, in order, every data/trim record with writeSeq
// greater than the given sequence, passing the write's extent and data
// (nil for trims). Used for crash recovery: the core re-sends these to
// the backend (§3.3 "rewind and replay").
func (c *Cache) RecordsAfter(writeSeq uint64, fn func(writeSeq uint64, typ journal.Type, ext block.Extent, data []byte) error) error {
	c.mu.RLock()
	ring := make([]*record, len(c.ring))
	copy(ring, c.ring)
	c.mu.RUnlock()
	recs, bytes := 0, int64(0)
	for _, r := range ring {
		if r.writeSeq <= writeSeq || r.typ == journal.TypePad {
			continue
		}
		var data []byte
		if r.typ == journal.TypeData {
			data = make([]byte, r.ext.Bytes())
			if err := c.dev.ReadAt(data, r.dataOff()); err != nil {
				return err
			}
		}
		if err := fn(r.writeSeq, r.typ, r.ext, data); err != nil {
			return err
		}
		recs++
		bytes += int64(len(data))
	}
	c.mu.Lock()
	c.replayedRecs += recs
	c.replayedBytes += bytes
	c.mu.Unlock()
	return nil
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
	// The GC service polls this while holding bs.mu: the bs.mu →
	// wcache.mu edge must stay consistent with every other cross-layer
	// path (FetchFromCache takes the same order).
	c.mu.RLock()
	invariant.LockOrder("wcache.mu")
	defer invariant.LockRelease("wcache.mu")
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

// Close checkpoints and flushes the cache, after waiting out any
// in-flight group commits.
func (c *Cache) Close() error {
	c.Quiesce()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkpointLocked(); err != nil {
		return err
	}
	return c.dev.Flush()
}
