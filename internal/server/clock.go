package server

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock time so the batcher's T/2 window can be driven
// by a synthetic clock in tests (window formation, burst fallback and
// admission control are all asserted tick-by-tick without sleeping).
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Ticker returns a channel delivering window-boundary ticks every d,
	// and a stop function releasing its resources.
	Ticker(d time.Duration) (<-chan time.Time, func())
}

// RealClock returns the production clock backed by the runtime timer wheel —
// the same clock a nil Config.Clock defaults to, exported so other layers
// (the fleet coordinator) can share the injection seam.
func RealClock() Clock { return realClock{} }

// realClock is the production clock backed by the runtime timer wheel.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// FakeClock is a manually advanced clock for deterministic tests: Tick
// delivers exactly one window boundary and blocks until the consumer has
// finished the work that boundary triggers (AckTick), so a test can
// interleave Submit calls, window closes and reads of the server's state
// without races or sleeps.
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	c    chan time.Time
	done chan struct{}
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start, c: make(chan time.Time), done: make(chan struct{})}
}

// Now returns the fake current time.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Ticker hands out the shared manual tick channel; the interval is recorded
// by Tick, not by a timer.
func (f *FakeClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	return f.c, func() {}
}

// Advance moves the clock forward without delivering a tick (models time
// passing inside a window, e.g. processing latency).
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// Tick advances the clock by d and delivers one window boundary, returning
// once the consumer has processed it: for the batcher, the window is closed,
// its decision taken and its batch handed to the scheduler.
func (f *FakeClock) Tick(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	f.mu.Unlock()
	f.c <- now
	<-f.done
}

// AckTick reports that the work triggered by the tick just received from c's
// Ticker is done. Every consumer of a Ticker calls it once per tick; it
// releases a FakeClock's Tick and does nothing on any other clock.
func AckTick(c Clock) {
	if f, ok := c.(*FakeClock); ok {
		f.done <- struct{}{}
	}
}
