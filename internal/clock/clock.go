// Package clock abstracts time so that the Bifrost engine and the
// simulation substrates can run deterministically in tests and benches.
// The real engine runs on wall-clock time; evaluations that would take
// hours on the authors' testbed run on a simulated clock that advances
// instantaneously between timer firings.
package clock

import (
	"errors"
	"sync"
	"sync/atomic"
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
	mu sync.Mutex
	// now is the clock's instant, written under mu and read without it:
	// the runs an advance wakes read the time while it is still firing.
	now    atomic.Pointer[time.Time]
	timers timerHeap
	seq    int // tiebreaker to keep firing order stable
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at the given instant.
func NewSim(start time.Time) *Sim {
	s := &Sim{}
	s.now.Store(&start)
	return s
}

// Now implements Clock. It takes no lock.
func (s *Sim) Now() time.Time { return *s.now.Load() }

// After implements Clock. Non-positive durations fire immediately.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	now := *s.now.Load()
	if d <= 0 {
		ch <- now
		return ch
	}
	s.seq++
	s.timers.push(simTimer{when: now.Add(d), seq: s.seq, ch: ch})
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
//
// It publishes t as the clock's instant, then sends on the channel of
// every timer due by t, in (deadline, arming order) order, each its own
// deadline. A woken receiver's Now returns t, until a later advance,
// and does not wait for the rest of the sends. Arming a timer waits for
// them, and one armed after them is due after t. The clock's mutex is
// held throughout, so two advances never interleave their sends.
func (s *Sim) AdvanceTo(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(*s.now.Load()) {
		return
	}
	s.now.Store(&t)
	// Each channel has room for its one value, so no send blocks.
	for len(s.timers) > 0 && !s.timers[0].when.After(t) {
		tm := s.timers.pop()
		tm.ch <- tm.when
	}
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

// timerHeap is a min-heap of timers ordered by (when, seq).
type timerHeap []simTimer

func (h timerHeap) less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h *timerHeap) push(t simTimer) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest timer; the heap must not be empty.
func (h *timerHeap) pop() simTimer {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = simTimer{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}
