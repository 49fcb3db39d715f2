package blockstore

import (
	"encoding/binary"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/extmap"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
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

// suffixObj is one object FuzzOpenSuffix lays behind a created volume's
// checkpoint, in the 27 bytes of its spec: header epoch, Seq, type,
// extent count, DataLen, and the object's size in the bucket.
type suffixObj struct {
	epoch   uint32
	seq     uint64
	typ     journal.Type
	nExt    uint16
	dataLen uint64
	size    uint32
}

const suffixObjBytes = 27

func suffixSpec(objs ...suffixObj) []byte {
	var w journal.Codec
	for _, o := range objs {
		w.PutU32(o.epoch)
		w.PutU64(o.seq)
		w.Buf = append(w.Buf, byte(o.typ))
		w.Buf = binary.LittleEndian.AppendUint16(w.Buf, o.nExt)
		w.PutU64(o.dataLen)
		w.PutU32(o.size)
	}
	return w.Buf
}

// wholeObj is a data object of n 4 KiB extents that holds all it claims.
func wholeObj(epoch uint32, seq uint64, n uint16) suffixObj {
	return suffixObj{epoch, seq, journal.TypeData, n, uint64(n) * block.BlockSize,
		uint32(journal.HeaderSize(int(n))) + uint32(n)*block.BlockSize}
}

// FuzzOpenSuffix opens a created volume behind whose checkpoint lie one
// to three hostile objects, each with a header epoch, Seq, type, DataLen
// and extent count of the fuzzer's choosing, cut or zero-padded to a
// size of its choosing. Open must not panic and may fail only with an
// error; what it replays must be a consecutive prefix of them, each
// header naming its own object and no epoch below its predecessor's
// (journal.Follows), and the table it rebuilds must audit clean.
func FuzzOpenSuffix(f *testing.F) {
	const hdr1 = 512 // journal.HeaderSize(1)
	// A chain; a header past the 4 KiB probe; a fallen epoch; a header
	// naming another object; the retired packed stamps.
	f.Add(suffixSpec(wholeObj(0, 2, 1), wholeObj(1, 3, 2), wholeObj(1, 4, 1)))
	f.Add(suffixSpec(wholeObj(0, 2, 600), wholeObj(0, 3, 1)))
	f.Add(suffixSpec(wholeObj(2, 2, 1), wholeObj(1, 3, 1)))
	f.Add(suffixSpec(wholeObj(0, 2, 1), wholeObj(0, 4, 1)))
	f.Add(suffixSpec(wholeObj(0, 1<<32|2, 1), wholeObj(0, 2<<32|3, 1), wholeObj(0, 1<<32|4, 1)))
	f.Add(suffixSpec(wholeObj(0, 2, 1), suffixObj{0, 3, journal.TypeData, 1, block.BlockSize, hdr1 + 100}))
	f.Add(suffixSpec(suffixObj{0, 2, journal.TypeGC, 1, 1 << 63, hdr1 + block.BlockSize}))
	f.Add(suffixSpec(suffixObj{0, 2, journal.TypeCheckpoint, 0, 16, hdr1 + 16}))
	f.Add(suffixSpec(suffixObj{^uint32(0), 2, 0, 0, 0, 10}))
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) < suffixObjBytes {
			spec = append(spec, make([]byte, suffixObjBytes-len(spec))...)
		}
		store := objstore.NewMem()
		cfg := Config{Volume: "vol", Store: store, VolSectors: volSectors}
		s, err := Create(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Abort()
		le := binary.LittleEndian
		var hdrs []*journal.Header // each object's header as open reads it, nil if it cannot
		for i := 0; i < min(3, len(spec)/suffixObjBytes); i++ {
			o := spec[i*suffixObjBytes:]
			exts := make([]journal.ExtentEntry, le.Uint16(o[13:])%1024)
			for j := range exts {
				exts[j] = journal.ExtentEntry{LBA: block.LBA(i<<13 + j<<3), Sectors: 8, SrcSeq: uint64(2 + i)}
			}
			h := &journal.Header{Type: journal.Type(o[12]), Seq: le.Uint64(o[4:]), Epoch: le.Uint32(o),
				WriteSeq: uint64(1 + i), Extents: exts, DataLen: le.Uint64(o[15:])}
			size := int(le.Uint32(o[23:]) % (2 << 20))
			body := payload(int64(i), int(min(h.DataLen, uint64(max(0, size-journal.HeaderSize(len(exts)))))))
			obj := append(journal.EncodeHeaderSum(h, journal.Sum(body)), body...)
			obj = append(obj[:min(size, len(obj))], make([]byte, max(0, size-len(obj)))...)
			if err := store.Put(ctx, objName("vol", uint32(2+i)), obj); err != nil {
				t.Fatal(err)
			}
			dh, _, _ := journal.DecodeHeader(obj)
			hdrs = append(hdrs, retiredStamp(dh))
		}

		s, err = Open(ctx, cfg)
		if err != nil {
			return
		}
		defer s.Abort()
		prev := &journal.Header{Seq: 1} // Create's checkpoint, of epoch 0
		for i := range s.Stats().RecoveredObjects {
			h := hdrs[i]
			if h == nil || h.Seq != uint64(2+i) || h.Epoch < prev.Epoch {
				t.Fatalf("replayed object %d of %d with header %+v behind %+v", 2+i, len(hdrs)+1, h, prev)
			}
			prev = h
		}
		if err := s.AuditUtilization(); err != nil {
			t.Fatal(err)
		}
	})
}
