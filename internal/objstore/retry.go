package objstore

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Default retry policy: 4 attempts, 2 ms base backoff capped at 250 ms.
const (
	defaultRetryAttempts = 4
	defaultBaseDelay     = 2 * time.Millisecond
	defaultMaxDelay      = 250 * time.Millisecond
)

// RetryPolicy configures a Retrier. The zero value means "defaults".
type RetryPolicy struct {
	// MaxAttempts is the per-operation attempt budget. 0 means the
	// package default; negative disables retries entirely (a single
	// attempt, and blockstore skips wrapping the store).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay. Zero values mean the package defaults.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter sequence for deterministic tests. Jitter
	// only spreads load; it carries no correctness weight, so sharing
	// the default Seed 0 stream across Retriers is fine.
	Seed int64
}

// Attempts returns the effective per-operation attempt budget: the
// configured MaxAttempts, the package default when zero, and a single
// attempt when retries are disabled.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 0 {
		return 1
	}
	if p.MaxAttempts == 0 {
		return defaultRetryAttempts
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return defaultBaseDelay
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return defaultMaxDelay
	}
	return p.MaxDelay
}

// IsTerminal reports whether err cannot be fixed by retrying: missing
// objects, invalid names or ranges, and context cancellation.
func IsTerminal(err error) bool {
	return errors.Is(err, ErrNotFound) ||
		errors.Is(err, ErrBadName) ||
		errors.Is(err, ErrBadRange) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Retrier wraps a Store with retry/backoff on transient failures.
// Terminal errors (IsTerminal) pass through unchanged — errors.Is
// classification is preserved because the last attempt's error is
// returned as-is, never re-wrapped.
type Retrier struct {
	Inner Store

	policy RetryPolicy
	clock  Clock // the backoff's: the inner store's (ClockOf)

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64
}

// NewRetrier wraps inner with the given policy.
func NewRetrier(inner Store, policy RetryPolicy) *Retrier {
	return &Retrier{
		Inner:  inner,
		policy: policy,
		clock:  ClockOf(inner),
		rng:    rand.New(rand.NewSource(policy.Seed)),
	}
}

// AfterFunc implements Clock: the wrapped store's, so the stores built
// on a Retrier find the clock it backs off on.
func (s *Retrier) AfterFunc(what string, d time.Duration, f func()) func() bool {
	return s.clock.AfterFunc(what, d, f)
}

// Retries returns the number of retried attempts (attempts beyond each
// operation's first) so far.
func (s *Retrier) Retries() uint64 { return s.retries.Load() }

// Policy returns the wrapper's retry policy.
func (s *Retrier) Policy() RetryPolicy { return s.policy }

// jitter returns a random duration in [d/2, d].
func (s *Retrier) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return d/2 + time.Duration(s.rng.Int63n(int64(d)/2+1))
}

// do runs op, a kind of operation on the object name, up to Attempts()
// times with exponential backoff between tries; the backoff's timer is
// named after the operation, so a clock that holds timers tells the
// retries apart. It returns the LAST error unchanged so callers can
// classify it with errors.Is — including when the backoff sleep is cut
// short by context cancellation.
func (s *Retrier) do(ctx context.Context, kind, name string, op func() error) error {
	attempts := s.policy.Attempts()
	delay := s.policy.baseDelay()
	maxDelay := s.policy.maxDelay()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return err
			}
			return cerr
		}
		err = op()
		if err == nil || IsTerminal(err) || attempt >= attempts {
			return err
		}
		s.retries.Add(1)
		wake, stop := After(s.clock, "retry "+kind+" "+name, s.jitter(delay))
		select {
		case <-wake:
		case <-ctx.Done():
			stop()
			return err
		}
		if delay < maxDelay {
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		}
	}
}

// PutV implements VectorPutter.
func (s *Retrier) PutV(ctx context.Context, name string, bufs [][]byte) error {
	return s.do(ctx, "put", name, func() error { return PutVec(ctx, s.Inner, name, bufs) })
}

// Put implements Store.
func (s *Retrier) Put(ctx context.Context, name string, data []byte) error {
	return s.do(ctx, "put", name, func() error { return s.Inner.Put(ctx, name, data) })
}

// Get implements Store.
func (s *Retrier) Get(ctx context.Context, name string) ([]byte, error) {
	var out []byte
	err := s.do(ctx, "get", name, func() error {
		var e error
		out, e = s.Inner.Get(ctx, name)
		return e
	})
	return out, err
}

// GetRange implements Store.
func (s *Retrier) GetRange(ctx context.Context, name string, off, length int64) ([]byte, error) {
	var out []byte
	err := s.do(ctx, "get-range", name, func() error {
		var e error
		out, e = s.Inner.GetRange(ctx, name, off, length)
		return e
	})
	return out, err
}

// Delete implements Store.
func (s *Retrier) Delete(ctx context.Context, name string) error {
	return s.do(ctx, "delete", name, func() error { return s.Inner.Delete(ctx, name) })
}

// List implements Store.
func (s *Retrier) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := s.do(ctx, "list", prefix, func() error {
		var e error
		out, e = s.Inner.List(ctx, prefix)
		return e
	})
	return out, err
}

// Size implements Store.
func (s *Retrier) Size(ctx context.Context, name string) (int64, error) {
	var out int64
	err := s.do(ctx, "size", name, func() error {
		var e error
		out, e = s.Inner.Size(ctx, name)
		return e
	})
	return out, err
}
