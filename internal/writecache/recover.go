package writecache

import (
	"encoding/binary"
	"fmt"
	"sync"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/journal"
	"lsvd/internal/simdev"
)

// Recovery (DESIGN.md §9.1). The log is its own checkpoint: all that is
// persisted beside it is a 4 KiB superblock naming one record boundary
// in the live ring, and four rules make that enough.
//
//  1. The record the durable superblock names is never released before
//     a newer superblock has been written and flushed (evictOne).
//  2. Open follows the chain from that record by magic, CRC, offset
//     adjacency and journal.Follows (replay).
//  3. Every Format and every Open takes a new epoch, ≥ 1 and above every
//     one left on the device, and persists it before its first append,
//     so nothing an earlier incarnation left beyond its recovered chain
//     can ever be a link of a later one.
//  4. The caller, once it knows what the backend holds, drops
//     everything the backend owns (Reconcile); what is left is exactly
//     what Records hands back for re-destage.

const (
	superSlot0 = 0
	superSlot1 = block.BlockSize
	superBytes = 2 * block.BlockSize
)

// superblock is the whole on-device checkpoint: the generation (the
// newer of the two slots wins), the epoch of the incarnation that wrote
// it, the start of the chain — the offset of a record boundary in the
// ring, and the sequence number and epoch of the record expected there,
// or of the next record when the start is the tail — and where the
// ring itself starts (it runs to the end of the device), so that Open
// takes the layout from the device that was formatted, not from its
// caller.
type superblock struct {
	gen        uint64
	epoch      uint32
	startOff   int64
	startSeq   uint64
	startEpoch uint32
	logStart   int64
}

// The payload is seven 64-bit words, the last the size of the record
// headers the ring is framed with (hdrBytes). The record fits entirely
// within its 4 KiB slot.
const superPayload = 56

func encodeSuper(sb superblock) ([]byte, error) {
	var c journal.Codec
	for _, w := range []uint64{sb.gen, uint64(sb.epoch), uint64(sb.startOff), sb.startSeq,
		uint64(sb.startEpoch), uint64(sb.logStart), uint64(hdrBytes)} {
		c.PutU64(w)
	}
	return journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: sb.gen, DataLen: superPayload}, c.Buf, false)
}

// decodeSuper reads a superblock slot. One of a ring framed with other
// headers keeps only its generation and epoch, for Format to continue:
// its log start of zero lies inside the superblocks, so Open refuses it.
func decodeSuper(slot []byte) (superblock, bool) {
	h, data, _, err := journal.Decode(slot, false)
	if err != nil || h.Type != journal.TypeSuper || len(data) != superPayload {
		return superblock{}, false
	}
	le := binary.LittleEndian
	sb := superblock{gen: le.Uint64(data), epoch: uint32(le.Uint64(data[8:]))}
	if int64(le.Uint64(data[48:])) == hdrBytes {
		sb.startOff, sb.startSeq = int64(le.Uint64(data[16:])), le.Uint64(data[24:])
		sb.startEpoch, sb.logStart = uint32(le.Uint64(data[32:])), int64(le.Uint64(data[40:]))
	}
	return sb, true
}

func readSuper(dev simdev.Device) (best superblock, err error) {
	found := false
	buf := make([]byte, block.BlockSize)
	for _, off := range []int64{superSlot0, superSlot1} {
		if dev.ReadAt(buf, off) != nil {
			continue
		}
		if sb, ok := decodeSuper(buf); ok && (!found || sb.gen > best.gen) {
			best, found = sb, true
		}
	}
	if !found {
		return superblock{}, fmt.Errorf("writecache: no valid superblock (device not formatted?)")
	}
	return best, nil
}

// writeSuper persists the cache's epoch and start as the next
// generation, in the slot the durable generation does not occupy, and
// flushes: when it returns the new superblock is the one a crash finds.
func (c *Cache) writeSuper() error {
	gen := c.superGen + 1
	rec, err := encodeSuper(superblock{gen: gen, epoch: c.epoch, startOff: c.startOff,
		startSeq: c.startSeq, startEpoch: c.startEpoch, logStart: c.logStart})
	if err != nil {
		return err
	}
	slotOff := int64(superSlot0)
	if gen%2 == 1 {
		slotOff = superSlot1
	}
	if err := c.dev.WriteAt(rec, slotOff); err != nil {
		return err
	}
	if err := c.dev.Flush(); err != nil {
		return err
	}
	c.superGen = gen
	c.checkpoints++
	return nil
}

// persistStartLocked moves the start of the chain to the oldest record
// the backend does not hold — the tail when it holds them all — and
// makes that durable. A record whose device write is still in flight
// may be named: every write before it is in the backend and none after
// it has been acknowledged. A failure poisons the cache, with the start
// left where the last durable superblock may still have it.
//
//lsvd:requires wcache.mu
func (c *Cache) persistStartLocked() error {
	prevOff, prevSeq, prevEpoch := c.startOff, c.startSeq, c.startEpoch
	c.startOff, c.startSeq, c.startEpoch = c.tail, c.nextSeq, c.epoch
	for _, r := range c.ring {
		if r.typ != journal.TypePad && r.writeSeq > c.destagedSeq {
			c.startOff, c.startSeq, c.startEpoch = r.off, r.seq, r.epoch
			break
		}
	}
	if err := c.writeSuper(); err != nil {
		c.startOff, c.startSeq, c.startEpoch = prevOff, prevSeq, prevEpoch
		c.ioErr = err
		return err
	}
	return nil
}

// Checkpoint persists the start of the chain, bounding what the next
// Open replays to the records the backend does not hold.
func (c *Cache) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ioErr != nil {
		return c.ioErr
	}
	return c.persistStartLocked()
}

// Close waits out any in-flight group commits and checkpoints, which
// flushes the device.
func (c *Cache) Close() error {
	c.Quiesce()
	return c.Checkpoint()
}

// attach lays a cache out over dev, with the log from logStart to the
// end of the device, without reading or writing it.
func attach(dev simdev.Device, logStart int64) (*Cache, error) {
	c := &Cache{dev: dev, m: extmap.New(), pendingMap: make(map[uint64]*pendingRec)}
	c.writtenCond = sync.NewCond(&c.mu)
	c.qcond = sync.NewCond(&c.gmu)
	c.logStart = logStart
	c.logEnd = dev.Size() &^ (block.BlockSize - 1)
	if logStart < superBytes || logStart%block.BlockSize != 0 || c.logEnd-logStart < 4*block.MiB {
		return nil, fmt.Errorf("writecache: no room for a log at %d of a %d-byte device (at least 4 MiB, 4 KiB-aligned, past the superblocks)",
			logStart, dev.Size())
	}
	return c, nil
}

// Format initializes a device as an empty cache and returns it opened.
// Whatever cache the device held before is invalidated: the superblock
// generation continues from the one on the device and both slots are
// written, so no superblock of the previous cache is left to find; and
// the epoch moves on, so nothing left in the ring is replayable: from 1
// on a device with no superblock, and from 1 over a zeroed log after
// the last epoch there is.
func Format(dev simdev.Device, cfg Config) (*Cache, error) {
	c, err := attach(dev, superBytes+cfg.CheckpointBytes)
	if err != nil {
		return nil, err
	}
	prev, _ := readSuper(dev) // zero on a device never formatted
	if prev.epoch == ^uint32(0) {
		zeros := make([]byte, block.MiB)
		for off := c.logStart; off < c.logEnd && err == nil; off += block.MiB {
			err = dev.WriteAt(zeros[:min(block.MiB, c.logEnd-off)], off)
		}
		if err == nil {
			err = dev.Flush()
		}
		if err != nil {
			return nil, err
		}
		prev.epoch = 0
	}
	c.superGen, c.epoch = prev.gen, prev.epoch+1
	c.nextSeq, c.mapSeq = 1, 1
	c.head, c.tail = c.logStart, c.logStart
	c.startOff, c.startSeq, c.startEpoch = c.logStart, c.nextSeq, c.epoch
	for i := 0; i < 2; i++ {
		if err := c.writeSuper(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Open recovers a cache from a formatted device: it follows the chain
// of records from the start the superblock names, stopping at the first
// one whose magic, CRC or position does not line up or that does not
// follow its predecessor (§3.3), then opens a new epoch and goes on
// numbering records after the last one recovered. The recovered cache
// does not know what the backend holds; Reconcile tells it.
func Open(dev simdev.Device) (*Cache, error) {
	sb, err := readSuper(dev)
	if err != nil {
		return nil, err
	}
	c, err := attach(dev, sb.logStart)
	if err != nil {
		return nil, fmt.Errorf("%w: device formatted with another layout", err)
	}
	if sb.startOff < c.logStart || sb.startOff >= c.logEnd || sb.startOff%block.SectorSize != 0 {
		return nil, fmt.Errorf("writecache: superblock starts the chain at %d, outside the log [%d, %d)",
			sb.startOff, c.logStart, c.logEnd)
	}
	c.superGen = sb.gen
	c.startOff, c.startSeq, c.startEpoch = sb.startOff, sb.startSeq, sb.startEpoch
	last, err := c.replay()
	if err != nil {
		return nil, err
	}
	// Epochs never fall along the chain, so the last link's tops it.
	if c.epoch = max(sb.epoch, last.Epoch) + 1; c.epoch == 0 {
		return nil, fmt.Errorf("writecache: no epoch is left to open in")
	}
	c.nextSeq, c.mapSeq = last.Seq+1, last.Seq+1
	if err := c.writeSuper(); err != nil {
		return nil, err
	}
	return c, nil
}

// replay rebuilds the ring and the map from the log alone, applying
// every complete record from the start until the chain breaks, and
// returns the header of the last record applied; the first one's
// predecessor is the one the superblock's start implies.
func (c *Cache) replay() (*journal.Header, error) {
	c.head, c.tail = c.startOff, c.startOff
	prev := &journal.Header{Seq: c.startSeq - 1, Epoch: c.startEpoch}
	hdr := make([]byte, hdrBytes)
	for {
		if err := c.dev.ReadAt(hdr, c.tail); err != nil {
			return nil, err
		}
		h, hdrLen, err := journal.DecodeHeader(hdr)
		if err != nil || hdrLen != len(hdr) || !journal.Follows(prev, h) {
			break // end of log
		}
		size, err := c.completeRecord(h, hdr)
		if err != nil {
			return nil, err
		}
		// One guard block always separates tail from head (Reserve), so
		// a chain that fills the ring is not one this package wrote.
		if size == 0 || c.used+size > c.logEnd-c.logStart-block.BlockSize {
			break
		}
		c.applyRecord(h, size)
		prev = h
	}
	c.recovered = len(c.ring)
	return prev, nil
}

// completeRecord returns the ring bytes the record at the tail claims,
// or zero if it is not a whole record of this log: hdr is its header
// sector, h that sector decoded. Only a device read fails it.
func (c *Cache) completeRecord(h *journal.Header, hdr []byte) (int64, error) {
	if len(h.Extents) != 1 {
		return 0, nil
	}
	ext := block.Extent{LBA: h.Extents[0].LBA, Sectors: h.Extents[0].Sectors}
	rec := hdr
	switch h.Type {
	case journal.TypePad:
		// A pad claims the rest of the ring; only its header is on
		// disk, and it must end exactly at the ring boundary.
		if h.DataLen != 0 || c.tail+ext.Bytes() != c.logEnd {
			return 0, nil
		}
	case journal.TypeTrim:
		if h.DataLen != 0 {
			return 0, nil
		}
	case journal.TypeData:
		// A corrupt length would wrap the conversion or run off the
		// ring; a record's data is exactly its extent.
		if h.DataLen > uint64(c.logEnd) || h.DataLen != uint64(ext.Bytes()) {
			return 0, nil
		}
		size := int64(len(hdr)) + ext.Bytes()
		if c.tail+size > c.logEnd {
			return 0, nil
		}
		rec = make([]byte, size)
		if err := c.dev.ReadAt(rec, c.tail); err != nil {
			return 0, err
		}
	default:
		return 0, nil
	}
	if _, _, _, err := journal.Decode(rec, false); err != nil {
		return 0, nil // incomplete record (torn write)
	}
	if h.Type == journal.TypePad {
		return ext.Bytes(), nil
	}
	return int64(len(rec)), nil
}

func (c *Cache) applyRecord(h *journal.Header, size int64) {
	r := &record{off: c.tail, size: size, seq: h.Seq, epoch: h.Epoch, writeSeq: h.WriteSeq, typ: h.Type}
	if h.Type != journal.TypePad { // a pad's extent is only its length
		r.ext = block.Extent{LBA: h.Extents[0].LBA, Sectors: h.Extents[0].Sectors}
	}
	switch h.Type {
	case journal.TypeData:
		c.m.Update(r.ext, extmap.Target{Off: block.LBAFromBytes(r.dataOff())})
	case journal.TypeTrim:
		c.m.Update(r.ext, extmap.Target{Off: trimTombstoneOff})
	}
	c.ring = append(c.ring, r)
	c.used += size
	c.tail += size
	if c.tail == c.logEnd {
		c.tail = c.logStart
	}
	if h.WriteSeq > c.maxWriteSeq {
		c.maxWriteSeq = h.WriteSeq
	}
}

// Reconcile is the one rule that joins the two logs after a restart
// (DESIGN.md §9.1): durable is the newest client write the recovered
// backend holds, and every record at or below it is dropped, however
// far the backend ran ahead of what this device kept. The cache then
// holds exactly the writes the backend lacks.
func (c *Cache) Reconcile(durable uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.destagedSeq = max(c.destagedSeq, durable)
	for c.evictOne() {
	}
	return c.ioErr
}

// Records passes every data and trim record in the log, in order, to
// fn with the write's extent and data (nil for trims). After Reconcile
// these are the writes the backend lacks, which the core re-sends
// (§3.3 "rewind and replay").
func (c *Cache) Records(fn func(writeSeq uint64, typ journal.Type, ext block.Extent, data []byte) error) error {
	c.mu.RLock()
	ring := make([]*record, len(c.ring))
	copy(ring, c.ring)
	c.mu.RUnlock()
	recs, bytes := 0, int64(0)
	for _, r := range ring {
		if r.typ == journal.TypePad {
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
