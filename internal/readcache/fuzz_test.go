package readcache

import (
	"encoding/binary"
	"testing"

	"lsvd/internal/block"
	"lsvd/internal/simdev"
)

// FuzzArenaOracle drives two views of a six-slab arena with an
// arbitrary stream of inserts, prefetched inserts, reads, invalidations
// and purges, against a byte-exact oracle: for every sector of either
// view, the version last inserted and not since invalidated. A read may
// miss anything — the cache owes nobody a hit — but a sector it does
// return must hold its own LBA and exactly the oracle's version. That
// is what the second chance could break: a rescue copy or a re-arm that
// laundered invalidated, overwritten or another view's bytes into a
// live slab would bring back a version the oracle no longer holds. The
// same check runs over the whole address space at the end, and again
// on an arena reloaded from the persisted state.
//
// Each op is 4 bytes: kind (low 3 bits: 0-1 insert, 2 prefetched
// insert, 3-5 read, 6 invalidate, 7 purge; bit 3: the view), then LBA /
// 64, sectors - 1 (mod 128), LBA % 64. Slabs hold two chunks, so a few
// dozen inserts turn the arena over.
func FuzzArenaOracle(f *testing.F) {
	f.Add([]byte{0, 0, 63, 0, 3, 0, 63, 0})
	f.Add([]byte{0, 1, 127, 5, 8, 1, 127, 5, 3, 1, 127, 5, 11, 1, 127, 5, 6, 1, 9, 9, 3, 1, 127, 5})
	f.Add([]byte{2, 7, 100, 60, 3, 7, 100, 60, 7, 0, 0, 0, 3, 7, 100, 60})

	const (
		nSlabs    = 6
		slabBytes = 2 * chunkBytes
		space     = 256*64 + 64 + 128 // sectors the op encoding can reach
	)
	f.Fuzz(func(t *testing.T, ops []byte) {
		// One extent per sector cached is 24 bytes each when persisted.
		cfg := Config{SlabBytes: slabBytes, MapBytes: 128 << 10}
		dev := simdev.NewMem(block.BlockSize + cfg.MapBytes + nSlabs*slabBytes)
		a, err := NewArena(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		views := []*Cache{a.Open("a"), a.Open("b")}
		oracle := []map[block.LBA]uint64{{}, {}}

		// check reads ext through v and holds every returned sector to
		// the oracle.
		check := func(v *Cache, want map[block.LBA]uint64, ext block.Extent) {
			t.Helper()
			buf := make([]byte, ext.Bytes())
			runs, err := v.ReadExtent(ext, buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				if !r.Present {
					continue
				}
				for lba := r.LBA; lba < r.End(); lba++ {
					sec := buf[(lba - ext.LBA).Bytes():]
					got, ver := binary.LittleEndian.Uint64(sec), binary.LittleEndian.Uint64(sec[8:])
					if wantVer, ok := want[lba]; !ok || got != uint64(lba) || ver != wantVer {
						t.Fatalf("view %q sector %d reads as sector %d version %d; oracle has version %d (present %v)",
							v.name, lba, got, ver, wantVer, ok)
					}
				}
			}
		}
		checkAll := func(views []*Cache) {
			t.Helper()
			for i, v := range views {
				for lba := block.LBA(0); lba < space; lba += chunkSectors {
					check(v, oracle[i], block.Extent{LBA: lba, Sectors: chunkSectors})
				}
				assertNoDanglingTargets(t, v)
				fillPointsOwned(t, v)
			}
		}

		for n := uint64(1); len(ops) >= 4; n, ops = n+1, ops[4:] {
			id := int(ops[0] >> 3 & 1)
			v, want := views[id], oracle[id]
			ext := block.Extent{LBA: block.LBA(ops[1])*64 + block.LBA(ops[3]%64), Sectors: uint32(ops[2]%128) + 1}
			switch kind := ops[0] & 7; kind {
			case 0, 1, 2:
				version := n*2 + uint64(id) // never shared by two inserts or two views
				insert := v.Insert
				if kind == 2 {
					insert = v.InsertPrefetched
				}
				if err := insert(ext, sectorData(ext, version)); err != nil {
					t.Fatal(err)
				}
				for lba := ext.LBA; lba < ext.End(); lba++ {
					want[lba] = version
				}
			case 3, 4, 5:
				check(v, want, ext)
			case 6:
				v.Invalidate(ext)
				for lba := ext.LBA; lba < ext.End(); lba++ {
					delete(want, lba)
				}
			case 7:
				a.Purge(v.name)
				clear(want)
			}
		}
		checkAll(views)

		if err := a.Persist(); err != nil {
			t.Fatal(err)
		}
		a2, err := NewArena(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAll([]*Cache{a2.Open("a"), a2.Open("b")})
	})
}
