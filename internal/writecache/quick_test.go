package writecache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lsvd/internal/block"
	"lsvd/internal/simdev"
)

// Property: for any committed sequence of writes, a crash that loses
// all unflushed device state followed by recovery yields exactly the
// committed state — every committed write readable, in overwrite
// order.
func TestQuickCommittedWritesSurviveCrash(t *testing.T) {
	type wr struct {
		LBA uint16
		N   uint8
	}
	f := func(ops []wr, seed int64) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		dev := simdev.NewMem(64 * block.MiB)
		c, err := Format(dev, Config{})
		if err != nil {
			return false
		}
		// Sector-granular mirror of what was written.
		mirror := map[block.LBA]byte{}
		rng := rand.New(rand.NewSource(seed))
		for i, o := range ops {
			e := block.Extent{LBA: block.LBA(o.LBA % 4096), Sectors: uint32(o.N%16) + 1}
			fill := byte(rng.Intn(255) + 1)
			data := bytes.Repeat([]byte{fill}, int(e.Bytes()))
			if err := c.Append(uint64(i+1), e, data); err != nil {
				return false
			}
			for s := block.LBA(0); s < block.LBA(e.Sectors); s++ {
				mirror[e.LBA+s] = fill
			}
		}
		if err := c.Flush(); err != nil {
			return false
		}
		dev.Crash(1.0, rng)
		c2, err := Open(dev)
		if err != nil {
			return false
		}
		// Every mirrored sector reads back with the right fill.
		for lba, fill := range mirror {
			e := block.Extent{LBA: lba, Sectors: 1}
			buf := make([]byte, block.SectorSize)
			runs, err := c2.ReadExtent(e, buf)
			if err != nil || len(runs) != 1 || !runs[0].Present {
				return false
			}
			if buf[0] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery never yields a sequence gap — MaxWriteSeq after a
// partial-loss crash equals the length of the surviving record prefix.
func TestQuickRecoveryIsPrefix(t *testing.T) {
	f := func(nWrites uint8, lossPct uint8, seed int64) bool {
		n := int(nWrites%30) + 5
		dev := simdev.NewMem(64 * block.MiB)
		c, err := Format(dev, Config{})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			e := block.Extent{LBA: block.LBA(i * 64), Sectors: 8}
			if err := c.Append(uint64(i+1), e, make([]byte, e.Bytes())); err != nil {
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed))
		dev.Crash(float64(lossPct%100)/100, rng)
		c2, err := Open(dev)
		if err != nil {
			return false
		}
		k := c2.MaxWriteSeq()
		if k > uint64(n) {
			return false
		}
		// All writes <= k must be present in the map.
		for i := uint64(1); i <= k; i++ {
			e := block.Extent{LBA: block.LBA((i - 1) * 64), Sectors: 8}
			runs := c2.Lookup(e)
			if len(runs) != 1 || !runs[0].Present {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
