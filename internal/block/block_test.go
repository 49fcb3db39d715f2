package block

import (
	"testing"
	"testing/quick"
)

func TestLBAConversions(t *testing.T) {
	if LBA(8).Bytes() != 4096 {
		t.Fatal("LBA.Bytes wrong")
	}
	if LBAFromBytes(4096) != 8 {
		t.Fatal("LBAFromBytes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned LBAFromBytes did not panic")
		}
	}()
	LBAFromBytes(100)
}

func TestExtentBasics(t *testing.T) {
	e := Extent{LBA: 10, Sectors: 5}
	if e.End() != 15 || e.Bytes() != 5*512 || e.Empty() {
		t.Fatalf("extent basics: %+v", e)
	}
	if !e.Contains(10) || !e.Contains(14) || e.Contains(15) || e.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if (Extent{}).Empty() != true {
		t.Fatal("zero extent not empty")
	}
	if e.String() == "" {
		t.Fatal("no string form")
	}
}

func TestOverlapIntersect(t *testing.T) {
	a := Extent{LBA: 0, Sectors: 10}
	b := Extent{LBA: 5, Sectors: 10}
	c := Extent{LBA: 10, Sectors: 5}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlap missed")
	}
	if a.Overlaps(c) {
		t.Fatal("adjacent extents reported overlapping")
	}
	iv, ok := a.Intersect(b)
	if !ok || iv.LBA != 5 || iv.Sectors != 5 {
		t.Fatalf("intersect %+v", iv)
	}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint intersect")
	}
}

// Property: Intersect is commutative and the result is contained in
// both operands.
func TestQuickIntersect(t *testing.T) {
	f := func(a1, a2 uint32, n1, n2 uint16) bool {
		a := Extent{LBA: LBA(a1), Sectors: uint32(n1) + 1}
		b := Extent{LBA: LBA(a2), Sectors: uint32(n2) + 1}
		iab, okab := a.Intersect(b)
		iba, okba := b.Intersect(a)
		if okab != okba {
			return false
		}
		if okab != a.Overlaps(b) {
			return false
		}
		if !okab {
			return true
		}
		if iab != iba {
			return false
		}
		return iab.LBA >= a.LBA && iab.End() <= a.End() &&
			iab.LBA >= b.LBA && iab.End() <= b.End()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIO(t *testing.T) {
	if err := CheckIO(100, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := CheckIO(100, 0, make([]byte, 100)); err == nil {
		t.Fatal("unaligned buffer accepted")
	}
	if err := CheckIO(100, 100, make([]byte, 512)); err == nil {
		t.Fatal("I/O past end accepted")
	}
	if err := CheckIO(100, 99, make([]byte, 512)); err != nil {
		t.Fatal("last-sector I/O rejected")
	}
}
