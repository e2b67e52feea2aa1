package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestRealClockAfter(t *testing.T) {
	c := Real{}
	start := time.Now()
	<-c.After(5 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("After fired too early: %v", elapsed)
	}
}

func TestSimAdvanceFiresTimers(t *testing.T) {
	start := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	s := NewSim(start)

	ch1 := s.After(10 * time.Second)
	ch2 := s.After(20 * time.Second)

	s.Advance(15 * time.Second)
	select {
	case ts := <-ch1:
		if want := start.Add(10 * time.Second); !ts.Equal(want) {
			t.Errorf("timer 1 fired at %v, want %v", ts, want)
		}
	default:
		t.Fatal("timer 1 did not fire")
	}
	select {
	case <-ch2:
		t.Fatal("timer 2 fired early")
	default:
	}

	s.Advance(10 * time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("timer 2 did not fire")
	}
	if got, want := s.Now(), start.Add(25*time.Second); !got.Equal(want) {
		t.Errorf("Now = %v, want %v", got, want)
	}
}

func TestSimFiringOrder(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range durations {
		wg.Add(1)
		ch := s.After(d)
		go func(i int) {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
	}
	// Fire one at a time so goroutine scheduling cannot reorder appends.
	for s.PendingTimers() > 0 {
		next, _ := s.NextDeadline()
		s.AdvanceTo(next)
		// Wait for the released goroutine to record itself.
		deadline := time.Now().Add(time.Second)
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n == 3-s.PendingTimers() || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	want := []int{1, 2, 0} // 10s, 20s, 30s
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

func TestSimAfterNonPositive(t *testing.T) {
	s := NewSim(time.Unix(100, 0))
	select {
	case <-s.After(0):
	default:
		t.Error("After(0) should fire immediately")
	}
	select {
	case <-s.After(-time.Second):
	default:
		t.Error("After(negative) should fire immediately")
	}
}

func TestSimAdvanceToPast(t *testing.T) {
	s := NewSim(time.Unix(100, 0))
	s.AdvanceTo(time.Unix(50, 0))
	if got := s.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Errorf("AdvanceTo(past) moved clock backwards to %v", got)
	}
}

func TestSimSleepBlocksUntilAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		s.Sleep(time.Minute)
		close(done)
	}()
	// Wait until the sleeper has parked.
	for s.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	s.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestSimNextDeadline(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	if _, ok := s.NextDeadline(); ok {
		t.Error("NextDeadline on empty clock should report false")
	}
	s.After(42 * time.Second)
	d, ok := s.NextDeadline()
	if !ok || !d.Equal(time.Unix(42, 0)) {
		t.Errorf("NextDeadline = %v, %v", d, ok)
	}
}

func TestSimAwaitPark(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	// A goroutine that parks on the clock a little later, then finishes
	// once released.
	go func() {
		time.Sleep(time.Millisecond)
		s.Sleep(time.Second)
		close(done)
	}()
	if finished, err := s.AwaitPark(done); err != nil || finished {
		t.Fatalf("AwaitPark = %v, %v; want parked", finished, err)
	}
	s.Advance(time.Second)
	if finished, err := s.AwaitPark(done); err != nil || !finished {
		t.Fatalf("AwaitPark after release = %v, %v; want finished", finished, err)
	}
}
