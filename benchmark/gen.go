package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"lsvd/internal/workload"
)

const (
	blockBytes = 4096
	stampMagic = 0x4C535644 // "LSVD"
	stampLen   = 24         // magic u32, version u64, block u64, crc u32
	poolBytes  = 1 << 20

	// mixGuardBytes separates the read and the write region of a
	// mixed volume by more than one 8 MiB backend object.
	mixGuardBytes = 16 << 20

	// hotShare: the hot set is one hotShare-th of the read region.
	hotShare = 20
)

// streamLen is the number of ops generated up front per client. No
// workload completes that many in a run on this class of machine; a
// client that does wraps around, which stays deterministic.
const streamLen = 1 << 20

// payload gives every (block, version) pair its own 4 KiB content: a
// stamp followed by a slice of a seeded random pool, so a read can be
// checked byte for byte without the benchmark keeping what it wrote.
type payload struct {
	pool []byte
}

func newPayload(seed int64) *payload {
	p := &payload{pool: make([]byte, poolBytes+blockBytes)}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p.pool)
	return p
}

func (p *payload) body(block int64, version uint32) []byte {
	off := (uint64(block)*2654435761 + uint64(version)*40503) % poolBytes
	return p.pool[off : off+blockBytes-stampLen]
}

// fill writes the content of blocks [block, block+len(buf)/4K) at the
// given version into buf.
func (p *payload) fill(buf []byte, block int64, version uint32) {
	for o := 0; o < len(buf); o += blockBytes {
		b := buf[o : o+blockBytes]
		binary.LittleEndian.PutUint32(b, stampMagic)
		binary.LittleEndian.PutUint64(b[4:], uint64(version))
		binary.LittleEndian.PutUint64(b[12:], uint64(block))
		binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[:20]))
		copy(b[stampLen:], p.body(block, version))
		block++
	}
}

// versionOf decodes and fully verifies one 4 KiB block read from
// block index `block`: stamp intact, stamped for this block, body
// bytes those of the stamped version. An all-zero block is version 0
// (never written).
func (p *payload) versionOf(b []byte, block int64) (uint32, error) {
	if binary.LittleEndian.Uint32(b) != stampMagic {
		for _, c := range b {
			if c != 0 {
				return 0, fmt.Errorf("block %d: no stamp and not zero", block)
			}
		}
		return 0, nil
	}
	if crc32.ChecksumIEEE(b[:20]) != binary.LittleEndian.Uint32(b[20:]) {
		return 0, fmt.Errorf("block %d: stamp crc mismatch", block)
	}
	if got := int64(binary.LittleEndian.Uint64(b[12:])); got != block {
		return 0, fmt.Errorf("block %d holds the stamp of block %d", block, got)
	}
	v := binary.LittleEndian.Uint64(b[4:])
	if v == 0 || v > 1<<32-1 {
		return 0, fmt.Errorf("block %d: impossible version %d", block, v)
	}
	if !bytes.Equal(b[stampLen:], p.body(block, uint32(v))) {
		return 0, fmt.Errorf("block %d v%d: body bytes differ", block, v)
	}
	return uint32(v), nil
}

// volState is what the benchmark remembers about one volume: the
// newest version written to every block, and the ordered write
// history the post-crash prefix check replays. One goroutine writes a
// volume at a time, so versions are totally ordered.
type volState struct {
	blocks    int64
	version   uint32   // newest issued
	committed uint32   // newest covered by a completed Flush
	latest    []uint32 // per block: newest version written
	history   []wrec   // history[v-1] is the write that carried version v
}

type wrec struct {
	block int64
	n     int32
}

func newVolState(volBytes int64) *volState {
	blocks := volBytes / blockBytes
	return &volState{blocks: blocks, latest: make([]uint32, blocks), history: make([]wrec, 0, streamLen)}
}

// nextWrite assigns the next version to a write of n blocks at block.
func (v *volState) nextWrite(block int64, n int) uint32 {
	v.version++
	v.history = append(v.history, wrec{block, int32(n)})
	for i := int64(0); i < int64(n); i++ {
		v.latest[block+i] = v.version
	}
	return v.version
}

// verifyRead checks a completed read of buf at block against the
// newest version written there. Reads are issued by the volume's only
// writer (or on a volume nobody writes), so the match is exact.
func (v *volState) verifyRead(p *payload, buf []byte, block int64) error {
	for o := 0; o < len(buf); o += blockBytes {
		got, err := p.versionOf(buf[o:o+blockBytes], block)
		if err != nil {
			return err
		}
		if want := v.latest[block]; got != want {
			return fmt.Errorf("block %d: read v%d, newest written is v%d", block, got, want)
		}
		block++
	}
	return nil
}

// checkPrefix audits a recovered image, given the version found in
// every block: the image must equal the state after some prefix
// 1..t of the write history, and t must cover the last completed
// Flush.
func (v *volState) checkPrefix(found []uint32) error {
	var t uint32
	for _, f := range found {
		if f > t {
			t = f
		}
	}
	if t > v.version {
		return fmt.Errorf("image holds v%d, beyond the last issued v%d", t, v.version)
	}
	want := make([]uint32, v.blocks)
	for i := uint32(0); i < t; i++ {
		w := v.history[i]
		for b := w.block; b < w.block+int64(w.n); b++ {
			want[b] = i + 1
		}
	}
	for b := range want {
		if found[b] != want[b] {
			return fmt.Errorf("block %d holds v%d, but the prefix ending at v%d requires v%d", b, found[b], t, want[b])
		}
	}
	if t < v.committed {
		return fmt.Errorf("recovered to v%d, but Flush had committed v%d", t, v.committed)
	}
	return nil
}

// genOps builds one client's op stream for a workload. The program
// under test sees only these ops.
func genOps(w *spec, seed int64) []workload.Op {
	ops := make([]workload.Op, 0, streamLen)
	rng := rand.New(rand.NewSource(seed))
	var fio *workload.Fio
	switch w.pattern {
	case patRandWrite:
		fio = &workload.Fio{Pattern: workload.RandWrite}
	case patSeqWrite:
		fio = &workload.Fio{Pattern: workload.SeqWrite}
	}
	if fio != nil {
		fio.BlockSize, fio.VolBytes, fio.Seed = w.opBytes, w.volBytes, seed
		fio.TotalBytes = int64(streamLen) * int64(w.opBytes)
	}
	// A mixed volume, in op-sized slots: reads go to the lower part,
	// hotReads of them to a contiguous hot twentieth of it and the rest
	// anywhere in it; writes, if any, go uniformly to the top quarter,
	// past a guard gap wider than a backend object. Reads and writes
	// never meet: README.md, "What the mix leaves out", says why.
	slots := w.volBytes / int64(w.opBytes)
	readSlots, writeBase := slots, slots
	if w.writeShare > 0 {
		writeBase = slots * 3 / 4
		readSlots = writeBase - mixGuardBytes/int64(w.opBytes)
	}
	hot := readSlots / hotShare
	hotBase := rng.Int63n(readSlots - hot)
	writes := 0
	for len(ops) < streamLen {
		var op workload.Op
		switch {
		case fio != nil:
			op, _ = fio.Next()
		case rng.Float64() < w.writeShare:
			op = workload.Op{Kind: workload.OpWrite, Off: (writeBase + rng.Int63n(slots-writeBase)) * int64(w.opBytes), Len: w.opBytes}
		default:
			slot := rng.Int63n(readSlots)
			if rng.Float64() < w.hotReads {
				slot = hotBase + rng.Int63n(hot)
			}
			op = workload.Op{Kind: workload.OpRead, Off: slot * int64(w.opBytes), Len: w.opBytes}
		}
		ops = append(ops, op)
		if op.Kind == workload.OpWrite {
			if writes++; writes%w.flushEvery == 0 {
				ops = append(ops, workload.Op{Kind: workload.OpFlush})
			}
		}
	}
	return ops
}
