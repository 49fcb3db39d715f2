package blockstore

import (
	"encoding/binary"
	"testing"

	"lsvd/internal/extmap"
	"lsvd/internal/journal"
)

// encodeCheckpointForFuzz builds a well-formed checkpoint payload the
// same way fillCkptShotLocked does, for seeding the corpus.
func encodeCheckpointForFuzz(p *checkpointPayload) []byte {
	var w journal.Codec
	w.PutU32(p.prevCkpt)
	w.PutU64(p.durableWriteSeq)
	w.PutU32(p.nextSeq)
	w.PutU32(uint32(len(p.objects)))
	for _, o := range p.objects {
		w.PutU32(o.seq)
		w.PutU32(uint32(o.typ))
		w.PutU64(uint64(o.totalBytes))
		w.PutU32(o.hdrSectors)
		w.PutU32(o.dataSectors)
		w.PutU32(o.liveSectors)
		w.PutU64(o.writeSeq)
	}
	w.PutU32(uint32(len(p.deferred)))
	for _, d := range p.deferred {
		w.PutU32(d.Obj)
		w.PutU32(d.GCSeq)
	}
	w.PutU32(uint32(len(p.mapBytes)))
	w.PutBytes(p.mapBytes)
	return w.Buf
}

// FuzzDecodeCheckpoint throws hostile bytes at the checkpoint decoder —
// the parser recovery trusts after a crash (the object named by the
// superblock could be torn or corrupted). It must never panic, must
// bound allocation by the input length (a claimed count can't force a
// huge slice), and the embedded map bytes it hands on must be safe to
// feed to the extmap loader.
func FuzzDecodeCheckpoint(f *testing.F) {
	m := extmap.New()
	mapBytes, _ := m.MarshalBinary()
	good := encodeCheckpointForFuzz(&checkpointPayload{
		prevCkpt: 3, durableWriteSeq: 99, nextSeq: 7,
		objects: []objInfo{
			{seq: 4, typ: journal.TypeData, totalBytes: 4096, hdrSectors: 1, dataSectors: 7, liveSectors: 5, writeSeq: 80},
			{seq: 5, typ: journal.TypeCheckpoint, totalBytes: 512},
			{seq: 6, typ: journal.TypeGC, totalBytes: 8192, hdrSectors: 1, dataSectors: 15, liveSectors: 15, writeSeq: 99},
		},
		deferred: []deferredDelete{{Obj: 2, GCSeq: 6}},
		mapBytes: mapBytes,
	})
	f.Add(good)
	f.Add(good[:len(good)-3]) // truncated map bytes
	// Object count inflated far past the payload.
	bad := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(bad[16:], 1<<30)
	f.Add(bad)
	// Deferred count inflated.
	bad2 := encodeCheckpointForFuzz(&checkpointPayload{nextSeq: 1})
	binary.LittleEndian.PutUint32(bad2[20:], 1<<31)
	f.Add(bad2)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := decodeCheckpoint(raw)
		if err != nil {
			return
		}
		// A successful decode consumed real input for every element it
		// returned: per-element sizes bound the slices by len(raw).
		if len(p.objects)*36 > len(raw) {
			t.Fatalf("decoded %d objects from %d bytes", len(p.objects), len(raw))
		}
		if len(p.deferred)*8 > len(raw) {
			t.Fatalf("decoded %d deferred deletes from %d bytes", len(p.deferred), len(raw))
		}
		if len(p.mapBytes) > len(raw) {
			t.Fatalf("map bytes %d exceed input %d", len(p.mapBytes), len(raw))
		}
		// Recovery hands mapBytes straight to the extmap loader; it must
		// tolerate whatever the checkpoint decoder let through.
		_ = extmap.New().UnmarshalBinary(p.mapBytes)
		// Accepted input must round-trip: re-encoding the decoded
		// payload and decoding again is a fixed point.
		again := encodeCheckpointForFuzz(p)
		p2, err := decodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if len(p2.objects) != len(p.objects) || len(p2.deferred) != len(p.deferred) ||
			p2.prevCkpt != p.prevCkpt || p2.nextSeq != p.nextSeq || p2.durableWriteSeq != p.durableWriteSeq {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
