package objstore

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var ctx = context.Background()

// StoreContract is storeContract for the external tests, which run it
// over the recorder.
var StoreContract = storeContract

// storeContract exercises the Store interface contract on any
// implementation.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.Put(ctx, "vol.00000001", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "vol.00000001")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %v %q", err, got)
	}
	// Range within the object.
	got, err = s.GetRange(ctx, "vol.00000001", 4, 5)
	if err != nil || string(got) != "quick" {
		t.Fatalf("range: %v %q", err, got)
	}
	// Range running past the end returns the available suffix.
	got, err = s.GetRange(ctx, "vol.00000001", int64(len(data)-3), 100)
	if err != nil || string(got) != "dog" {
		t.Fatalf("tail range: %v %q", err, got)
	}
	// length -1 reads to the end.
	got, err = s.GetRange(ctx, "vol.00000001", 10, -1)
	if err != nil || !bytes.Equal(got, data[10:]) {
		t.Fatalf("open range: %v %q", err, got)
	}
	// Range starting exactly at the object boundary is empty, not an
	// error (recovery probes object tails this way).
	got, err = s.GetRange(ctx, "vol.00000001", int64(len(data)), 8)
	if err != nil || len(got) != 0 {
		t.Fatalf("boundary range: %v %q", err, got)
	}
	// Range ending exactly at the boundary returns the full run.
	got, err = s.GetRange(ctx, "vol.00000001", int64(len(data)-3), 3)
	if err != nil || string(got) != "dog" {
		t.Fatalf("exact tail range: %v %q", err, got)
	}
	// Offset past end is an error, and a classified one.
	if _, err := s.GetRange(ctx, "vol.00000001", int64(len(data)+1), 1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset past end: %v", err)
	}
	// Size.
	if n, err := s.Size(ctx, "vol.00000001"); err != nil || n != int64(len(data)) {
		t.Fatalf("size: %v %d", err, n)
	}
	// Missing objects.
	if _, err := s.Get(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: %v", err)
	}
	if err := s.Delete(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	// Overwrite (superblock case).
	if err := s.Put(ctx, "vol.00000001", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(ctx, "vol.00000001"); string(got) != "v2" {
		t.Fatalf("overwrite: %q", got)
	}
	// List with prefix, sorted.
	for _, name := range []string{"vol.00000003", "vol.00000002", "other.1"} {
		if err := s.Put(ctx, name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List(ctx, "vol.")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"vol.00000001", "vol.00000002", "vol.00000003"}
	if len(names) != 3 {
		t.Fatalf("list: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("list[%d]=%q want %q", i, names[i], want[i])
		}
	}
	// Delete then gone.
	if err := s.Delete(ctx, "vol.00000002"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "vol.00000002"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted object still present")
	}
}

func TestMemContract(t *testing.T)  { storeContract(t, NewMem()) }
func TestSlimContract(t *testing.T) { storeContract(t, NewMemSlim()) }
func TestDirContract(t *testing.T) {
	s, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}
func TestMeteredContract(t *testing.T) { storeContract(t, NewMetered(NewMem())) }
func TestRetrierContract(t *testing.T) { storeContract(t, NewRetrier(NewMem(), RetryPolicy{})) }

func TestSlimZeroTail(t *testing.T) {
	s := NewMemSlim()
	// 8 MiB object: small header of non-zero bytes then zeros.
	obj := make([]byte, 8<<20)
	copy(obj, []byte("HEADERDATA"))
	if err := s.Put(ctx, "big", obj); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "big")
	if err != nil || len(got) != len(obj) {
		t.Fatalf("get: %v len=%d", err, len(got))
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("slim store corrupted object")
	}
	// Range in the zero tail.
	tail, err := s.GetRange(ctx, "big", 4<<20, 4096)
	if err != nil || len(tail) != 4096 {
		t.Fatal(err)
	}
	for _, b := range tail {
		if b != 0 {
			t.Fatal("zero tail not zero")
		}
	}
	if n, _ := s.Size(ctx, "big"); n != 8<<20 {
		t.Fatalf("size %d", n)
	}
}

func TestSlimNonZeroTailPreserved(t *testing.T) {
	s := NewMemSlim()
	obj := make([]byte, 4<<20)
	obj[len(obj)-1] = 0x42 // non-zero at the very end
	rand.New(rand.NewSource(3)).Read(obj[:1024])
	if err := s.Put(ctx, "x", obj); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(ctx, "x")
	if !bytes.Equal(got, obj) {
		t.Fatal("non-zero tail lost")
	}
}

// TestMemPutVRetainsExactly: a vectored PUT reads back as the joined
// pieces, keeps a copy of its own, and in slim mode retains exactly up
// to the last non-zero byte (at least the header prefix) wherever among
// the pieces that byte falls.
func TestMemPutVRetainsExactly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lastByte int64 // offset of the last non-zero byte; -1 for all zeros
		keep     int
	}{
		{"all-zero", -1, slimPrefix},
		{"inside-the-prefix", 100, slimPrefix},
		{"middle-piece", 8192 + 77, 8192 + 78},
		{"first-byte-of-a-piece", 3 * 8192, 3*8192 + 1},
		{"very-last-byte", 5*8192 - 1, 5 * 8192},
	} {
		bufs := make([][]byte, 5)
		for i := range bufs {
			bufs[i] = make([]byte, 8192)
		}
		if tc.lastByte >= 0 {
			bufs[0][1] = 7
			bufs[tc.lastByte/8192][tc.lastByte%8192] = 9
		}
		want := VecJoin(bufs)
		for _, s := range []*Mem{NewMem(), NewMemSlim()} {
			if err := s.PutV(ctx, "o", append([][]byte{nil}, bufs...)); err != nil {
				t.Fatal(err)
			}
			retained := len(s.objects["o"].data)
			if wantKeep := map[bool]int{false: len(want), true: tc.keep}[s.Slim]; retained != wantKeep {
				t.Errorf("%s slim=%v: retained %d bytes, want %d", tc.name, s.Slim, retained, wantKeep)
			}
			if got, err := s.Get(ctx, "o"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s slim=%v: object read back differs (%v)", tc.name, s.Slim, err)
			}
			if n, _ := s.Size(ctx, "o"); n != int64(len(want)) {
				t.Errorf("%s slim=%v: size %d, want %d", tc.name, s.Slim, n, len(want))
			}
		}
	}
	// The store keeps its own copy, single piece included.
	s := NewMem()
	piece := []byte("immutable")
	if err := s.PutV(ctx, "o", [][]byte{piece}); err != nil {
		t.Fatal(err)
	}
	piece[0] = 'X'
	if got, _ := s.Get(ctx, "o"); string(got) != "immutable" {
		t.Fatalf("stored object aliases the caller's buffer: %q", got)
	}
	if err := s.PutV(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(ctx, "empty"); err != nil || len(got) != 0 {
		t.Fatalf("empty object: %q, %v", got, err)
	}
}

func TestDirNameValidation(t *testing.T) {
	s, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../escape", "/abs", "a/../../b", "."} {
		if err := s.Put(ctx, bad, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	// Subdirectories are fine.
	if err := s.Put(ctx, "vol/sub/obj.1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List(ctx, "vol/")
	if err != nil || len(names) != 1 || names[0] != "vol/sub/obj.1" {
		t.Fatalf("list: %v %v", names, err)
	}
}

// TestDirTmpNaming covers the temp-file bugs: an object legitimately
// named "*.tmp" must be storable and listable (the old List filter hid
// it), abandoned staging files must stay invisible, and the reserved
// "#tmp#" prefix is rejected as an object name so staging files can
// never collide with a real object.
func TestDirTmpNaming(t *testing.T) {
	root := t.TempDir()
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "vol.00000001.tmp", []byte("legit")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List(ctx, "vol.")
	if err != nil || len(names) != 1 || names[0] != "vol.00000001.tmp" {
		t.Fatalf(".tmp object hidden: %v %v", names, err)
	}
	// An abandoned staging file (crash between create and rename) must
	// not surface as an object.
	if err := os.WriteFile(filepath.Join(root, "#tmp#999.1"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err = s.List(ctx, "")
	if err != nil || len(names) != 1 {
		t.Fatalf("staging file listed: %v %v", names, err)
	}
	// The staging prefix is not a valid object name anywhere in a path.
	for _, bad := range []string{"#tmp#1", "vol/#tmp#x", "#tmp#"} {
		if err := s.Put(ctx, bad, []byte("x")); !errors.Is(err, ErrBadName) {
			t.Fatalf("reserved name %q: %v", bad, err)
		}
	}
}

func TestDirNoSync(t *testing.T) {
	s, err := NewDirNoSync(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, s)
}

func TestMeteredCounts(t *testing.T) {
	s := NewMetered(NewMem())
	_ = s.Put(ctx, "a", make([]byte, 100))
	_, _ = s.Get(ctx, "a")
	_, _ = s.GetRange(ctx, "a", 0, 10)
	_ = s.Delete(ctx, "a")
	_, _ = s.List(ctx, "")
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.GetRanges != 1 || st.Deletes != 1 || st.Lists != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesPut != 100 || st.BytesGot != 110 {
		t.Fatalf("bytes %+v", st)
	}
	if s.ModeledTime(1) <= 0 {
		t.Fatal("modeled time zero")
	}
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Fatal("reset failed")
	}
}

func TestConcurrentMem(t *testing.T) {
	s := NewMem()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			name := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				if err := s.Put(ctx, name, []byte{byte(i)}); err != nil {
					done <- err
					return
				}
				if _, err := s.Get(ctx, name); err != nil {
					done <- err
					return
				}
				if _, err := s.List(ctx, ""); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
