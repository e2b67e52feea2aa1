// Package clock abstracts time so that the Bifrost engine and the
// simulation substrates can run deterministically in tests and benches.
// The real engine runs on wall-clock time; evaluations that would take
// hours on the authors' testbed run on a simulated clock that advances
// instantaneously between timer firings.
package clock

import (
	"container/heap"
	"errors"
	"sync"
	"time"
)

// Clock is the minimal time source the framework depends on.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the (then-current) time once
	// d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Sim is a deterministic simulated clock. Time only advances through
// Advance (or AdvanceTo); goroutines blocked in After/Sleep are released
// in timestamp order. The zero value is not usable; construct with NewSim.
type Sim struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    int // tiebreaker to keep firing order stable
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at the given instant.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock. Non-positive durations fire immediately.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	when := s.now.Add(d)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.seq++
	heap.Push(&s.timers, &simTimer{when: when, seq: s.seq, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline.
func (s *Sim) Sleep(d time.Duration) {
	<-s.After(d)
}

// Advance moves the clock forward by d, firing all timers whose deadline
// is reached, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves the clock to instant t (no-op if t is in the past),
// firing due timers in order.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(s.now) {
		return
	}
	for len(s.timers) > 0 && !s.timers[0].when.After(t) {
		tm := heap.Pop(&s.timers).(*simTimer)
		s.now = tm.when
		tm.ch <- tm.when
	}
	s.now = t
}

// PendingTimers reports how many timers are waiting to fire. Useful for
// tests that need to know a goroutine has parked on the clock.
func (s *Sim) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// parkTimeout bounds AwaitPark: a goroutine that neither parks nor
// finishes within it is stuck.
const parkTimeout = 10 * time.Second

// AwaitPark blocks until done is closed (finished = true) or a goroutine
// is parked on the clock. Code that advances the clock calls it before
// each advance and before each batch of traffic, so neither races the
// work the previous advance released: that lockstep is what makes a
// simulated run repeatable. It fails after 10s of wall time.
func (s *Sim) AwaitPark(done <-chan struct{}) (finished bool, err error) {
	deadline := time.Now().Add(parkTimeout)
	for {
		select {
		case <-done:
			return true, nil
		default:
		}
		if s.PendingTimers() > 0 {
			return false, nil
		}
		if time.Now().After(deadline) {
			return false, errors.New("clock: nothing parked within " + parkTimeout.String())
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// NextDeadline returns the earliest pending timer deadline and true, or
// the zero time and false when no timers are pending.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.timers) == 0 {
		return time.Time{}, false
	}
	return s.timers[0].when, true
}

type simTimer struct {
	when time.Time
	seq  int
	ch   chan time.Time
}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*simTimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
