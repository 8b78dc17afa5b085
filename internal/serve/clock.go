package serve

import "time"

// Clock abstracts wall time for the scheduler so the batch-coalescing
// policy is testable deterministically: a partial batch waits on the clock
// only while requests are still in admission or every worker is busy, and
// under a fake clock such a batch flushes exactly when the test advances
// past MaxDelay (or a worker comes free), never earlier.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
}

// Timer is the subset of time.Timer the scheduler needs.
type Timer interface {
	// C returns the firing channel.
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the timer was still
	// pending (same contract as time.Timer.Stop).
	Stop() bool
}

// realClock is the production Clock backed by package time — the one
// place in this package allowed to touch the wall clock; everything else
// runs on an injected Clock so traces replay deterministically.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() } //pelta:allow noclock realClock IS the production Clock implementation

func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} } //pelta:allow noclock realClock IS the production Clock implementation

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }

func (t realTimer) Stop() bool { return t.t.Stop() }
