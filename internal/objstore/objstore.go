// Package objstore provides the S3-compatible object interface LSVD
// uses for long-term durability (paper §3): immutable named objects
// with PUT/GET/range-GET/DELETE/LIST. Implementations include an
// in-memory store (with a "slim" mode that elides all-zero payload
// tails so benchmark-scale volumes cost little RAM), a directory-backed
// store for real use, and a wrapper adding S3-like latency, bandwidth
// accounting and fault injection.
package objstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned for GETs and DELETEs of missing objects.
var ErrNotFound = errors.New("objstore: object not found")

// ErrBadName is returned for syntactically invalid object names (path
// escapes, absolute paths, reserved temp names). It is terminal under
// retry: no number of attempts makes a bad name valid.
var ErrBadName = errors.New("objstore: invalid object name")

// ErrBadRange is returned when a range request's offset lies outside
// the object. Terminal under retry.
var ErrBadRange = errors.New("objstore: invalid range")

// Store is the S3-like backend interface. Objects are immutable by
// convention (only the volume superblock is ever overwritten);
// implementations need not enforce it.
type Store interface {
	// Put stores data under name, replacing any existing object.
	Put(ctx context.Context, name string, data []byte) error
	// Get returns the full object.
	Get(ctx context.Context, name string) ([]byte, error)
	// GetRange returns length bytes at offset off; short results are
	// errors except when the object ends inside the range, in which
	// case the available suffix is returned.
	GetRange(ctx context.Context, name string, off, length int64) ([]byte, error)
	// Delete removes an object. Deleting a missing object returns
	// ErrNotFound.
	Delete(ctx context.Context, name string) error
	// List returns all object names with the given prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
	// Size returns an object's length in bytes.
	Size(ctx context.Context, name string) (int64, error)
}

// VectorPutter is an optional Store extension: PutV stores the
// concatenation of bufs under name without requiring the caller to
// assemble a contiguous image first. The write path builds objects as
// a header plus references into payload staging buffers; a store that
// implements PutV saves one full copy of every object. All wrappers in
// this package forward it, so the zero-copy path survives Prefixed,
// Retrier and Metered stacking.
type VectorPutter interface {
	PutV(ctx context.Context, name string, bufs [][]byte) error
}

// PutVec stores the concatenation of bufs, via PutV when the store
// supports it and a contiguous copy otherwise.
func PutVec(ctx context.Context, s Store, name string, bufs [][]byte) error {
	if vp, ok := s.(VectorPutter); ok {
		return vp.PutV(ctx, name, bufs)
	}
	return s.Put(ctx, name, VecJoin(bufs))
}

// VecLen sums the lengths of bufs.
func VecLen(bufs [][]byte) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}

// VecJoin concatenates bufs into one buffer. bytes.Join allocates it
// without clearing it first; make followed by append clears every byte
// it is about to overwrite, which for an 8 MiB object is a third pass
// over memory.
func VecJoin(bufs [][]byte) []byte {
	return bytes.Join(bufs, nil)
}

// slimPrefix is the minimum head kept verbatim by the slim memory
// store; everything up to the last non-zero byte is kept regardless,
// which always covers object headers.
const slimPrefix = 4096

type memObject struct {
	data []byte // full data, or the non-zero head in slim mode
	size int64  // logical size
}

// Mem is an in-memory Store. With Slim set, payload bytes beyond the
// last non-zero byte are not retained: Get/GetRange synthesize zeros.
// Slim mode is exact for benchmark workloads that write zero payloads
// and is rejected (falls back to full retention) when an object has
// non-zero data past the retained head.
type Mem struct {
	Slim bool

	mu      sync.RWMutex
	objects map[string]memObject
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objects: make(map[string]memObject)} }

// NewMemSlim returns an in-memory store that elides all-zero tails.
func NewMemSlim() *Mem { return &Mem{Slim: true, objects: make(map[string]memObject)} }

// Put implements Store.
func (s *Mem) Put(ctx context.Context, name string, data []byte) error {
	return s.PutV(ctx, name, [][]byte{data})
}

// PutV implements VectorPutter: one copy, straight from the caller's
// pieces into the retained buffer (honoring slim-mode tail elision).
func (s *Mem) PutV(_ context.Context, name string, bufs [][]byte) error {
	size := VecLen(bufs)
	if s.Slim {
		// Retain up to the last non-zero byte, at least slimPrefix.
		keep := int64(0)
		pos := size
		for i := len(bufs) - 1; i >= 0; i-- {
			pos -= int64(len(bufs[i]))
			if nz := lastNonZero(bufs[i]); nz >= 0 {
				keep = pos + int64(nz) + 1
				break
			}
		}
		bufs = vecHead(bufs, min(max(keep, slimPrefix), size))
	}
	obj := memObject{size: size, data: VecJoin(bufs)}
	s.mu.Lock()
	s.objects[name] = obj
	s.mu.Unlock()
	return nil
}

// vecHead returns the first n bytes of bufs as a vector, sharing the
// pieces (n <= VecLen(bufs)).
func vecHead(bufs [][]byte, n int64) [][]byte {
	for i, b := range bufs {
		if int64(len(b)) >= n {
			return append(bufs[:i:i], b[:n])
		}
		n -= int64(len(b))
	}
	return bufs
}

// Get implements Store.
func (s *Mem) Get(ctx context.Context, name string) ([]byte, error) {
	return s.GetRange(ctx, name, 0, -1)
}

// GetRange implements Store. length -1 means "to the end".
func (s *Mem) GetRange(_ context.Context, name string, off, length int64) ([]byte, error) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off < 0 || off > obj.size {
		return nil, fmt.Errorf("%w: offset %d outside object %s of %d bytes", ErrBadRange, off, name, obj.size)
	}
	if length < 0 || off+length > obj.size {
		length = obj.size - off
	}
	out := make([]byte, length)
	if off < int64(len(obj.data)) {
		copy(out, obj.data[off:min64(int64(len(obj.data)), off+length)])
	}
	return out, nil
}

// Delete implements Store.
func (s *Mem) Delete(_ context.Context, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.objects, name)
	return nil
}

// List implements Store.
func (s *Mem) List(_ context.Context, prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name := range s.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Size implements Store.
func (s *Mem) Size(_ context.Context, name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return obj.size, nil
}

// TotalBytes returns the sum of logical object sizes (live backend
// footprint, used by GC experiments).
func (s *Mem) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, o := range s.objects {
		n += o.size
	}
	return n
}

// Count returns the number of objects.
func (s *Mem) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

func lastNonZero(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// tmpPrefix begins every temp file Dir.Put stages before its rename.
// '#' never appears in valid object names (path rejects it below), so
// List can filter temp files exactly without ever hiding a legitimate
// object, and a Put of "<name>.tmp" cannot collide with staging files.
const tmpPrefix = "#tmp#"

// Dir is a directory-backed Store for real deployments: each object is
// a file; names may contain '/' which map to subdirectories.
type Dir struct {
	root string

	// NoSync skips the fsyncs in Put. Puts remain atomic (tmp+rename)
	// but are no longer crash-durable: an acknowledged object can
	// vanish if the host crashes before writeback. Benchmarks may set
	// it; deployments that care about §3.3 durability must not.
	NoSync bool

	mu   sync.Mutex // serializes Put's tmp-rename per store
	tmpN uint64     // staging-file counter, under mu
}

// NewDir returns a store rooted at dir, creating it if necessary.
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: dir}, nil
}

// NewDirNoSync returns a directory store with durability fsyncs
// disabled — faster, but acknowledged objects may be lost on host
// crash.
func NewDirNoSync(dir string) (*Dir, error) {
	s, err := NewDir(dir)
	if err != nil {
		return nil, err
	}
	s.NoSync = true
	return s, nil
}

func (s *Dir) path(name string) (string, error) {
	clean := filepath.Clean(name)
	if clean == "." || strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for _, seg := range strings.Split(filepath.ToSlash(clean), "/") {
		if strings.HasPrefix(seg, tmpPrefix) {
			return "", fmt.Errorf("%w: %q uses reserved temp prefix", ErrBadName, name)
		}
	}
	return filepath.Join(s.root, clean), nil
}

// Put implements Store with an atomic, crash-durable tmp+rename: the
// staged file is fsynced before the rename and the parent directory
// after, so an acknowledged Put survives a host crash (unless NoSync).
func (s *Dir) Put(ctx context.Context, name string, data []byte) error {
	return s.PutV(ctx, name, [][]byte{data})
}

// PutV implements VectorPutter: the pieces are written one after
// another into the staged file, so an object handed over as a header
// plus views of staging buffers is never joined into a buffer of its
// own first.
func (s *Dir) PutV(_ context.Context, name string, bufs [][]byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tmpN++
	tmp := filepath.Join(dir, fmt.Sprintf("%s%d.%d", tmpPrefix, os.Getpid(), s.tmpN))
	if err := s.writeTemp(tmp, bufs); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	if s.NoSync {
		return nil
	}
	return syncDir(dir)
}

func (s *Dir) writeTemp(tmp string, bufs [][]byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// Small pieces (an object of 4 KiB writes has two thousand) share a
	// write call; one as large as the buffer goes straight through it.
	w := bufio.NewWriterSize(f, 256<<10)
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if !s.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Store.
func (s *Dir) Get(_ context.Context, name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return data, err
}

// GetRange implements Store.
func (s *Dir) GetRange(_ context.Context, name string, off, length int64) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off < 0 || off > st.Size() {
		return nil, fmt.Errorf("%w: offset %d outside object %s of %d bytes", ErrBadRange, off, name, st.Size())
	}
	if length < 0 || off+length > st.Size() {
		length = st.Size() - off
	}
	out := make([]byte, length)
	if _, err := f.ReadAt(out, off); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements Store.
func (s *Dir) Delete(_ context.Context, name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return err
}

// List implements Store.
func (s *Dir) List(_ context.Context, prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(s.root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(path.Base(rel), tmpPrefix) {
			return nil
		}
		if strings.HasPrefix(rel, prefix) {
			out = append(out, rel)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// Size implements Store.
func (s *Dir) Size(_ context.Context, name string) (int64, error) {
	p, err := s.path(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
