package objstore

import (
	"context"
	"fmt"
	"path"
	"strings"
)

// Prefixed scopes a Store to a key namespace: every object name is
// stored under prefix, and List results come back with the prefix
// stripped, so a client holding a Prefixed store sees a private flat
// namespace inside a shared bucket. A multi-volume host gives each
// volume a Prefixed view ("vol/<name>/") of one backend store, so
// volumes can be created, deleted and listed independently without
// their object streams ever colliding.
//
// Names that would escape the namespace — absolute paths, "..",
// empty or "."-only names — are rejected with ErrBadName before they
// reach the inner store.
type Prefixed struct {
	inner  Store
	prefix string
}

// NewPrefixed scopes inner to prefix. The prefix itself must be a
// clean, relative, non-escaping path; a trailing "/" is appended if
// missing. An empty prefix returns a transparent wrapper (the identity
// namespace).
func NewPrefixed(inner Store, prefix string) (*Prefixed, error) {
	if prefix != "" {
		p := strings.TrimSuffix(prefix, "/")
		if err := checkScopedName(p); err != nil {
			return nil, fmt.Errorf("%w: prefix %q", ErrBadName, prefix)
		}
		prefix = p + "/"
	}
	return &Prefixed{inner: inner, prefix: prefix}, nil
}

// Inner returns the wrapped store (stats tooling unwraps to find the
// shared Retrier).
func (s *Prefixed) Inner() Store { return s.inner }

// checkScopedName rejects names that would address objects outside the
// namespace once joined with the prefix.
func checkScopedName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	clean := path.Clean(name)
	if clean != name || clean == "." || clean == ".." || strings.HasPrefix(clean, "../") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

func (s *Prefixed) join(name string) (string, error) {
	if err := checkScopedName(name); err != nil {
		return "", err
	}
	return s.prefix + name, nil
}

// Put implements Store.
func (s *Prefixed) Put(ctx context.Context, name string, data []byte) error {
	full, err := s.join(name)
	if err != nil {
		return err
	}
	return s.inner.Put(ctx, full, data)
}

// PutV implements VectorPutter.
func (s *Prefixed) PutV(ctx context.Context, name string, bufs [][]byte) error {
	full, err := s.join(name)
	if err != nil {
		return err
	}
	return PutVec(ctx, s.inner, full, bufs)
}

// Get implements Store.
func (s *Prefixed) Get(ctx context.Context, name string) ([]byte, error) {
	full, err := s.join(name)
	if err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, full)
}

// GetRange implements Store.
func (s *Prefixed) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	full, err := s.join(name)
	if err != nil {
		return nil, err
	}
	return s.inner.GetRange(ctx, full, off, length)
}

// Delete implements Store.
func (s *Prefixed) Delete(ctx context.Context, name string) error {
	full, err := s.join(name)
	if err != nil {
		return err
	}
	return s.inner.Delete(ctx, full)
}

// List implements Store: only objects inside the namespace are
// returned, with the namespace prefix stripped. The listing prefix
// itself may be empty ("everything in the namespace") but must not
// escape.
func (s *Prefixed) List(ctx context.Context, prefix string) ([]string, error) {
	if strings.HasPrefix(prefix, "/") || strings.Contains(prefix, "..") {
		return nil, fmt.Errorf("%w: list prefix %q", ErrBadName, prefix)
	}
	names, err := s.inner.List(ctx, s.prefix+prefix)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, s.prefix); ok {
			out = append(out, rest)
		}
	}
	return out, nil
}

// Size implements Store.
func (s *Prefixed) Size(ctx context.Context, name string) (int64, error) {
	full, err := s.join(name)
	if err != nil {
		return 0, err
	}
	return s.inner.Size(ctx, full)
}
