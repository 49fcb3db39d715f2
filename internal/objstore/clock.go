package objstore

import "time"

// Clock schedules the product's timers: the paced GC service's idle
// trickle and its wake, the Retrier's backoff, the replica shipper's
// wake and wait and the destager's grace (DESIGN.md §11.4). Each timer
// is found through the backend it serves (ClockOf), so a test that hands
// the product a store that is also a Clock fires them as it chooses, and
// nothing else in the product names time.
type Clock interface {
	// AfterFunc calls f on a goroutine of its own once d has passed,
	// unless stop runs first; stop reports whether it stopped the call.
	// what names the timer.
	AfterFunc(what string, d time.Duration, f func()) (stop func() bool)
}

// realTime is the Clock of real time: the only one outside tests.
type realTime struct{}

func (realTime) AfterFunc(_ string, d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// ClockOf returns the Clock s is, or real time. A Retrier is the clock
// of the store it wraps.
func ClockOf(s Store) Clock {
	if c, ok := s.(Clock); ok {
		return c
	}
	return realTime{}
}

// After returns a channel closed once d has passed on c, and the stop
// that cancels it: a timer for a select.
func After(c Clock, what string, d time.Duration) (<-chan struct{}, func() bool) {
	ch := make(chan struct{})
	return ch, c.AfterFunc(what, d, func() { close(ch) })
}
