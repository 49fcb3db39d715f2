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

// Recovery (DESIGN.md §5). The log is its own checkpoint: all that is
// persisted beside it is a 4 KiB superblock naming one record boundary
// in the live ring, and four rules make that enough.
//
//  1. The record the durable superblock names is never released before
//     a newer superblock has been written and flushed (evictOne).
//  2. Open follows the chain from that record by magic, CRC, offset
//     adjacency and sequence number (replay, chains).
//  3. Every Format and every Open takes a new epoch and persists it
//     before its first append, so nothing an earlier incarnation left
//     beyond its recovered chain can ever be a link of a later one.
//  4. The caller, once it knows what the backend holds, drops
//     everything the backend owns (Reconcile); what is left is exactly
//     what Records hands back for re-destage.

const (
	superSlot0 = 0
	superSlot1 = block.BlockSize
	superBytes = 2 * block.BlockSize
)

// seqBits is the width of the record counter inside a log record's
// sequence number; the bits above it carry the epoch of the Format or
// Open that logged it. The epoch wraps after 65 536 formats and opens
// of one device.
const seqBits = 48

// superblock is the whole on-device checkpoint: the generation (the
// newer of the two slots wins), the epoch of the incarnation that wrote
// it, the start of the chain — the offset of a record boundary in the
// ring and the sequence number expected there — and where the ring
// itself starts (it runs to the end of the device), so that Open takes
// the layout from the device that was formatted, not from its caller.
type superblock struct {
	gen      uint64
	epoch    uint64
	startOff int64
	startSeq uint64
	logStart int64
}

const superPayload = 40

// The record is encoded unaligned (it is a few dozen bytes) so that it
// fits entirely within its 4 KiB slot.
func encodeSuper(sb superblock) ([]byte, error) {
	data := make([]byte, superPayload)
	binary.LittleEndian.PutUint64(data, sb.gen)
	binary.LittleEndian.PutUint64(data[8:], sb.epoch)
	binary.LittleEndian.PutUint64(data[16:], uint64(sb.startOff))
	binary.LittleEndian.PutUint64(data[24:], sb.startSeq)
	binary.LittleEndian.PutUint64(data[32:], uint64(sb.logStart))
	return journal.Encode(&journal.Header{Type: journal.TypeSuper, Seq: sb.gen, DataLen: superPayload}, data, false)
}

// decodeSuper also reads the payloads of the two layouts before this
// one — 32 bytes (no log start: the log began where Config said) and 28
// (gen, slot, length, epoch: a map checkpoint beside the log) — but only
// for their generation and epoch, which Format continues; a log start of
// zero lies inside the superblocks, so Open refuses them.
func decodeSuper(data []byte) (superblock, bool) {
	le := binary.LittleEndian
	switch len(data) {
	case superPayload:
		return superblock{gen: le.Uint64(data), epoch: le.Uint64(data[8:]),
			startOff: int64(le.Uint64(data[16:])), startSeq: le.Uint64(data[24:]),
			logStart: int64(le.Uint64(data[32:]))}, true
	case 32:
		return superblock{gen: le.Uint64(data), epoch: le.Uint64(data[8:])}, true
	case 28:
		return superblock{gen: le.Uint64(data), epoch: le.Uint64(data[20:])}, true
	}
	return superblock{}, false
}

func readSuper(dev simdev.Device) (best superblock, err error) {
	found := false
	buf := make([]byte, block.BlockSize)
	for _, off := range []int64{superSlot0, superSlot1} {
		if rerr := dev.ReadAt(buf, off); rerr != nil {
			continue
		}
		h, data, _, derr := journal.Decode(buf, false)
		if derr != nil || h.Type != journal.TypeSuper {
			continue
		}
		if sb, ok := decodeSuper(data); ok && (!found || sb.gen > best.gen) {
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
	rec, err := encodeSuper(superblock{gen: gen, epoch: c.nextSeq >> seqBits,
		startOff: c.startOff, startSeq: c.startSeq, logStart: c.logStart})
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
	prevOff, prevSeq := c.startOff, c.startSeq
	c.startOff, c.startSeq = c.tail, c.nextSeq
	for _, r := range c.ring {
		if r.typ != journal.TypePad && r.writeSeq > c.destagedSeq {
			c.startOff, c.startSeq = r.off, r.seq
			break
		}
	}
	if err := c.writeSuper(); err != nil {
		c.startOff, c.startSeq = prevOff, prevSeq
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
// the epoch moves on, so nothing left in the ring is replayable.
func Format(dev simdev.Device, cfg Config) (*Cache, error) {
	c, err := attach(dev, superBytes+cfg.CheckpointBytes)
	if err != nil {
		return nil, err
	}
	prev, _ := readSuper(dev) // zero on a device never formatted
	c.superGen = prev.gen
	c.nextSeq = (prev.epoch+1)<<seqBits | 1
	c.mapSeq = c.nextSeq
	c.head, c.tail = c.logStart, c.logStart
	c.startOff, c.startSeq = c.logStart, c.nextSeq
	for i := 0; i < 2; i++ {
		if err := c.writeSuper(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Open recovers a cache from a formatted device: it follows the chain
// of records from the start the superblock names, stopping at the first
// one whose magic, CRC, position or sequence number does not line up
// (§3.3), then opens a new epoch. The recovered cache does not know
// what the backend holds; Reconcile tells it.
func Open(dev simdev.Device) (*Cache, error) {
	sb, err := readSuper(dev)
	if err != nil {
		return nil, err
	}
	c, err := attach(dev, sb.logStart)
	if err != nil {
		return nil, fmt.Errorf("%w: device formatted with another layout", err)
	}
	if sb.startOff < c.logStart || sb.startOff >= c.logEnd || sb.startOff%block.BlockSize != 0 {
		return nil, fmt.Errorf("writecache: superblock starts the chain at %d, outside the log [%d, %d)",
			sb.startOff, c.logStart, c.logEnd)
	}
	if sb.startSeq>>seqBits > sb.epoch {
		return nil, fmt.Errorf("writecache: superblock of epoch %d expects sequence %#x of a later one", sb.epoch, sb.startSeq)
	}
	c.superGen = sb.gen
	c.startOff, c.startSeq = sb.startOff, sb.startSeq
	if err := c.replay(sb.epoch); err != nil {
		return nil, err
	}
	c.nextSeq = (sb.epoch+1)<<seqBits | 1
	c.mapSeq = c.nextSeq
	if err := c.writeSuper(); err != nil {
		return nil, err
	}
	return c, nil
}

// chains reports whether a record numbered seq may follow one numbered
// next-1: it is the next one, or the first one of a later epoch that is
// no newer than the superblock's (an Open's first append follows
// whatever chain that Open recovered).
func chains(seq, next, superEpoch uint64) bool {
	epoch := seq >> seqBits
	return seq == next || (epoch > next>>seqBits && epoch <= superEpoch && seq&(1<<seqBits-1) == 1)
}

// replay rebuilds the ring and the map from the log alone, applying
// every complete record from the start until the chain breaks.
func (c *Cache) replay(superEpoch uint64) error {
	c.head, c.tail = c.startOff, c.startOff
	next := c.startSeq
	hdr := make([]byte, journal.AlignedHeaderSize(1))
	for {
		if err := c.dev.ReadAt(hdr, c.tail); err != nil {
			return err
		}
		h, hdrLen, err := journal.DecodeHeader(hdr)
		if err != nil || hdrLen != len(hdr) || !chains(h.Seq, next, superEpoch) {
			break // end of log
		}
		size, err := c.completeRecord(h, hdr)
		if err != nil {
			return err
		}
		// One guard block always separates tail from head (Reserve), so
		// a chain that fills the ring is not one this package wrote.
		if size == 0 || c.used+size > c.logEnd-c.logStart-block.BlockSize {
			break
		}
		c.applyRecord(h, size)
		next = h.Seq + 1
	}
	c.recovered = len(c.ring)
	return nil
}

// completeRecord returns the ring bytes the record at the tail claims,
// or zero if it is not a whole record of this log: hdr is its first
// block, h that block decoded. Only a device read fails it.
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
		size := (int64(len(hdr)) + ext.Bytes() + block.BlockSize - 1) &^ (block.BlockSize - 1)
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
	if _, _, _, err := journal.Decode(rec, true); err != nil {
		return 0, nil // incomplete record (torn write)
	}
	if h.Type == journal.TypePad {
		return ext.Bytes(), nil
	}
	return int64(len(rec)), nil
}

func (c *Cache) applyRecord(h *journal.Header, size int64) {
	r := &record{off: c.tail, size: size, seq: h.Seq, writeSeq: h.WriteSeq, typ: h.Type}
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
// (DESIGN.md §5): durable is the newest client write the recovered
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
