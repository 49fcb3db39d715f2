package blockstore

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/journal"
	"lsvd/internal/objstore"
	"lsvd/internal/testrec"
)

// onePassHeader frames an object's header the way every version before
// checksum-once did: one CRC pass over header and data.
func onePassHeader(t *testing.T, h *journal.Header, data ...[]byte) []byte {
	t.Helper()
	payload := bytes.Join(data, nil)
	rec, err := journal.Encode(h, payload, false)
	if err != nil {
		t.Fatal(err)
	}
	return rec[:len(rec)-len(payload)]
}

// TestObjectFromSumsIsByteIdentical: an object whose CRC is combined
// from the sums its buffers arrived with is, byte for byte, the object a
// pass over the gathered data frames — for whole buffers, for what
// coalescing and trims leave of them, and without coalescing.
func TestObjectFromSumsIsByteIdentical(t *testing.T) {
	type write struct {
		lba     block.LBA
		sectors uint32
		trim    bool
	}
	for _, tc := range []struct {
		name       string
		noCoalesce bool
		writes     []write
		split      bool // some buffer must reach the object as less than itself
	}{
		{name: "whole-buffers", writes: []write{{lba: 0, sectors: 256}, {lba: 1024, sectors: 8}, {lba: 512, sectors: 1}}},
		{name: "overlapping", split: true, writes: []write{
			{lba: 0, sectors: 256}, {lba: 128, sectors: 256}, {lba: 16, sectors: 8}, {lba: 300, sectors: 8}}},
		{name: "trims", split: true, writes: []write{
			{lba: 0, sectors: 256}, {lba: 64, sectors: 32, trim: true}, {lba: 1024, sectors: 64}, {lba: 1024, sectors: 64, trim: true}}},
		{name: "no-coalesce", noCoalesce: true, writes: []write{
			{lba: 0, sectors: 256}, {lba: 128, sectors: 256}, {lba: 0, sectors: 256}}},
		{name: "empty-of-data", writes: []write{{lba: 0, sectors: 64, trim: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBatch(tc.noCoalesce)
			vol := make([]byte, 2048*block.SectorSize) // what the volume holds after the writes
			var arrived [][]byte                       // data writes in arrival order
			for i, w := range tc.writes {
				ext := block.Extent{LBA: w.lba, Sectors: w.sectors}
				if w.trim {
					b.addTrim(uint64(i+1), ext)
					clear(vol[ext.LBA.Bytes():][:ext.Bytes()])
					continue
				}
				data := payload(int64(i+1), int(ext.Bytes()))
				b.add(uint64(i+1), ext, data, journal.Sum(data))
				copy(vol[ext.LBA.Bytes():], data)
				arrived = append(arrived, data)
			}
			const seq = 7
			exts, offs := batchExtents(b, seq)
			obj, info, mapped := buildObject(seq, 0, journal.TypeData, b.maxWrite, exts, offs, &b.segments)

			h := &journal.Header{Type: journal.TypeData, Seq: seq, WriteSeq: b.maxWrite, Extents: exts,
				DataLen: uint64(objstore.VecLen(obj[1:]))}
			if want := onePassHeader(t, h, obj[1:]...); !bytes.Equal(obj[0], want) {
				t.Fatal("header framed from sums differs from the one-pass header")
			}
			image := objstore.VecJoin(obj)
			dh, data, total, err := journal.Decode(image, false)
			if err != nil || total != len(image) || int64(total) != info.totalBytes {
				t.Fatalf("image of %d bytes (table says %d) decodes %d: %v", len(image), info.totalBytes, total, err)
			}
			if len(dh.Extents) != len(exts) || uint64(len(data)) != dh.DataLen {
				t.Fatalf("decoded %d extents over %d bytes, built %d", len(dh.Extents), len(data), len(exts))
			}
			// Coalesced, an extent holds what the volume holds there; raw,
			// the i-th extent is the i-th write.
			for i, me := range mapped {
				want := vol[me.ext.LBA.Bytes():][:me.ext.Bytes()]
				if tc.noCoalesce {
					want = arrived[i]
				}
				if got := image[me.target.Off.Bytes():][:me.ext.Bytes()]; !bytes.Equal(got, want) {
					t.Fatalf("extent %v holds the wrong bytes", me.ext)
				}
			}
			whole := 0
			for _, piece := range obj[1:] {
				for _, buf := range b.bufs {
					if len(piece) == len(buf) && &piece[0] == &buf[0] {
						whole++
					}
				}
			}
			if split := whole < len(obj)-1; split != tc.split {
				t.Fatalf("%d of %d pieces are whole buffers; the case is meant to cover split=%v", whole, len(obj)-1, tc.split)
			}
		})
	}
}

// TestEveryStoredObjectMatchesOnePass drives a volume through
// overlapping writes, trims, a no-sum Append, several seals and a GC
// pass, and checks every image the backend received — data objects and
// the GC's — against the one-pass header over its own bytes.
func TestEveryStoredObjectMatchesOnePass(t *testing.T) {
	store := testrec.NewStore(objstore.NewMem())
	store.Keep = true
	s := newVolume(t, store, Config{BatchBytes: 256 * 1024, GCLowWater: 0.70, GCHighWater: 0.75,
		CheckpointEvery: 1 << 30})
	s.StopGC() // passes are run by hand below
	ws := uint64(0)
	put := func(lba block.LBA, sectors uint32) {
		t.Helper()
		ws++
		ext := block.Extent{LBA: lba, Sectors: sectors}
		data := payload(int64(ws), int(ext.Bytes()))
		var err error
		if ws%3 == 0 {
			err = s.Append(ws, ext, data)
		} else {
			err = s.AppendSum(ws, ext, data, journal.Sum(data))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			put(block.LBA(i*96+round*8), 128) // neighbours overlap by 32 sectors
		}
		ws++
		if err := s.Trim(ws, block.Extent{LBA: block.LBA(round * 40), Sectors: 24}); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunGC(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	types := map[journal.Type]int{}
	for _, op := range store.Log() {
		if op.Kind != testrec.Put || !op.Done || op.Err != nil || strings.HasSuffix(op.Name, ".super") {
			continue
		}
		name, image := op.Name, op.Data
		h, data, _, err := journal.Decode(image, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Type == journal.TypeCheckpoint {
			continue
		}
		types[h.Type]++
		_, hdrLen, _ := journal.DecodeHeader(image)
		if !bytes.Equal(image[:hdrLen], onePassHeader(t, h, data)) {
			t.Fatalf("%s (%v): stored header differs from the one-pass header", name, h.Type)
		}
	}
	if types[journal.TypeData] < 6 || types[journal.TypeGC] == 0 {
		t.Fatalf("checked %v: want data objects and at least one GC object", types)
	}
	if err := s.AuditUtilization(); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedStagedBufferFailsDecode: the sum handed to AppendSum speaks
// for the bytes as acknowledged. A staged buffer damaged between the ack
// and the seal is PUT as found, but under the CRC of what was
// acknowledged — so the object fails journal.Decode wherever it is read
// back, instead of vouching for the damage.
func TestDamagedStagedBufferFailsDecode(t *testing.T) {
	store := objstore.NewMem()
	s := newVolume(t, store, Config{CheckpointEvery: 1 << 30})
	good := block.Extent{LBA: 0, Sectors: 256}
	bad := block.Extent{LBA: 4096, Sectors: 256}

	data := payload(1, int(good.Bytes()))
	if err := s.AppendSum(1, good, data, journal.Sum(data)); err != nil {
		t.Fatal(err)
	}
	first := objName("vol", s.Stats().NextSeq)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	image, _ := store.Get(ctx, first) // a missing object fails Decode
	if _, _, _, err := journal.Decode(image, false); err != nil {
		t.Fatalf("intact object: %v", err)
	}

	data = payload(2, int(bad.Bytes()))
	if err := s.AppendSum(2, bad, data, journal.Sum(data)); err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	second := objName("vol", s.Stats().NextSeq)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	image, _ = store.Get(ctx, second)
	if _, _, _, err := journal.Decode(image, false); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("object built over a damaged staging buffer decodes: %v", err)
	}
}
