package testrec

import (
	"context"
	"encoding/binary"

	"lsvd/internal/journal"
	"lsvd/internal/objstore"
)

// Store is a recording objstore.Store.
type Store struct {
	recorder
	inner objstore.Store
}

// NewStore records inner's operations on a clock of its own; set Clock
// before the first operation to share another's.
func NewStore(inner objstore.Store) *Store {
	return &Store{recorder: recorder{Clock: NewClock()}, inner: inner}
}

// objectType reads the journal header type at the front of an image.
func objectType(bufs [][]byte) journal.Type {
	if len(bufs) == 0 || len(bufs[0]) < 8 || binary.LittleEndian.Uint32(bufs[0]) != journal.Magic {
		return 0
	}
	return journal.Type(binary.LittleEndian.Uint32(bufs[0][4:]))
}

// Put implements objstore.Store.
func (s *Store) Put(ctx context.Context, name string, data []byte) error {
	bufs := [][]byte{data}
	return s.do(Op{Kind: Put, Name: name, Len: int64(len(data)), Type: objectType(bufs)}, bufs,
		func() error { return s.inner.Put(ctx, name, data) })
}

// PutV implements objstore.VectorPutter, reaching the wrapped store's
// PutV when it has one, as an unwrapped caller would.
func (s *Store) PutV(ctx context.Context, name string, bufs [][]byte) error {
	return s.do(Op{Kind: Put, Name: name, Len: objstore.VecLen(bufs), Type: objectType(bufs)}, bufs,
		func() error { return objstore.PutVec(ctx, s.inner, name, bufs) })
}

// Get implements objstore.Store.
func (s *Store) Get(ctx context.Context, name string) ([]byte, error) {
	return read(s, Op{Kind: Get, Name: name}, func() ([]byte, error) { return s.inner.Get(ctx, name) })
}

// GetRange implements objstore.Store.
func (s *Store) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	return read(s, Op{Kind: GetRange, Name: name, Off: off, Len: length},
		func() ([]byte, error) { return s.inner.GetRange(ctx, name, off, length) })
}

// Delete implements objstore.Store.
func (s *Store) Delete(ctx context.Context, name string) error {
	return s.do(Op{Kind: Delete, Name: name}, nil, func() error { return s.inner.Delete(ctx, name) })
}

// List implements objstore.Store.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	return read(s, Op{Kind: List, Name: prefix}, func() ([]string, error) { return s.inner.List(ctx, prefix) })
}

// Size implements objstore.Store.
func (s *Store) Size(ctx context.Context, name string) (int64, error) {
	return read(s, Op{Kind: Size, Name: name}, func() (int64, error) { return s.inner.Size(ctx, name) })
}

// read records an operation that returns a value.
func read[T any](s *Store, op Op, fn func() (T, error)) (v T, err error) {
	err = s.do(op, nil, func() error {
		v, err = fn()
		return err
	})
	return v, err
}

// At returns a store holding what the PUTs and DELETEs that completed
// up to stamp left. It needs Keep.
func (s *Store) At(stamp uint64) *objstore.Mem { return s.Apply(objstore.NewMem(), stamp) }

// Apply makes on m, in order, the PUTs and DELETEs that completed up to
// stamp, and returns m. It needs Keep.
func (s *Store) Apply(m *objstore.Mem, stamp uint64) *objstore.Mem {
	if !s.Keep {
		panic("testrec: At and Apply need Store.Keep")
	}
	ctx := context.Background()
	for _, op := range s.upTo(stamp) {
		switch {
		case op.src != &s.recorder || !op.Done || op.Err != nil:
		case op.Kind == Put:
			_ = m.Put(ctx, op.Name, op.Data) // a Mem PUT cannot fail
		case op.Kind == Delete:
			_ = m.Delete(ctx, op.Name) // a delete of a missing object is a no-op
		}
	}
	return m
}
