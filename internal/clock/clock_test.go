package clock

import (
	"math/rand/v2"
	"slices"
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

// TestTimerHeapOrder pops timers in (deadline, arming order) order,
// with many deadlines shared, pushes interleaved with pops.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h timerHeap
	var want []simTimer
	seq := 0
	push := func() {
		seq++
		tm := simTimer{when: time.Unix(int64(rng.IntN(8)), 0), seq: seq}
		h.push(tm)
		want = append(want, tm)
	}
	for round := 0; round < 50; round++ {
		for i := rng.IntN(20); i >= 0; i-- {
			push()
		}
		slices.SortFunc(want, func(a, b simTimer) int {
			if c := a.when.Compare(b.when); c != 0 {
				return c
			}
			return a.seq - b.seq
		})
		for i := rng.IntN(len(want) + 1); i > 0; i-- {
			got := h.pop()
			if !got.when.Equal(want[0].when) || got.seq != want[0].seq {
				t.Fatalf("round %d: popped (%v, %d); want (%v, %d)", round, got.when, got.seq, want[0].when, want[0].seq)
			}
			want = want[1:]
		}
		if len(h) != len(want) {
			t.Fatalf("round %d: heap holds %d; want %d", round, len(h), len(want))
		}
	}
}

// TestSimAdvanceTable arms timers at equal and distinct instants and
// walks the clock through a list of advances. After each, exactly the
// timers due by then have fired, each with its own deadline, and a
// receiver woken by it reads the advance's target from Now.
func TestSimAdvanceTable(t *testing.T) {
	start := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		timers []time.Duration
		to     []time.Duration // advance targets, relative to start
	}{
		{"distinct", []time.Duration{3 * time.Second, time.Second, 2 * time.Second}, []time.Duration{time.Second, 5 * time.Second}},
		{"equal", []time.Duration{time.Second, time.Second, time.Second, time.Second}, []time.Duration{time.Second}},
		{"mixed", []time.Duration{2 * time.Second, time.Second, 2 * time.Second, 4 * time.Second, time.Second}, []time.Duration{1500 * time.Millisecond, 2 * time.Second, 3 * time.Second, 4 * time.Second}},
		{"backwards", []time.Duration{time.Second, 2 * time.Second}, []time.Duration{2 * time.Second, time.Second, 2 * time.Second}},
		{"none due", []time.Duration{time.Minute}, []time.Duration{time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(start)
			type woken struct {
				i        int
				got, now time.Time
			}
			wake := make(chan woken, len(tc.timers))
			for i, d := range tc.timers {
				ch := s.After(d)
				go func() {
					got := <-ch
					wake <- woken{i, got, s.Now()}
				}()
			}
			fired := make([]bool, len(tc.timers))
			now := start
			for _, to := range tc.to {
				if at := start.Add(to); at.After(now) {
					now = at
				}
				s.AdvanceTo(start.Add(to))
				if got := s.Now(); !got.Equal(now) {
					t.Fatalf("after AdvanceTo(+%v): Now = %v; want %v", to, got, now)
				}
				var due int
				for i, d := range tc.timers {
					if !fired[i] && !start.Add(d).After(now) {
						due++
					}
				}
				for ; due > 0; due-- {
					w := <-wake
					if fired[w.i] {
						t.Fatalf("timer %d fired twice", w.i)
					}
					fired[w.i] = true
					if want := start.Add(tc.timers[w.i]); !w.got.Equal(want) || w.got.After(now) {
						t.Errorf("timer %d delivered %v; want %v", w.i, w.got, want)
					}
					if !w.now.Equal(now) {
						t.Errorf("timer %d's receiver read Now = %v; want %v", w.i, w.now, now)
					}
				}
			}
			select {
			case w := <-wake:
				t.Fatalf("timer %d (+%v) fired past the last advance to %v", w.i, tc.timers[w.i], now)
			case <-time.After(5 * time.Millisecond):
			}
			left := len(tc.timers) - countTrue(fired)
			if n := s.PendingTimers(); n != left {
				t.Errorf("%d timers pending; want %d", n, left)
			}
			// Release the receivers still waiting.
			s.Advance(time.Hour)
			for ; left > 0; left-- {
				<-wake
			}
		})
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// TestSimRearmDuringFiring has every woken receiver re-arm at once, as
// a run's loop does, while the advance may still be firing later
// timers. It must not fire the new ones, which are due a full period
// after the advance's target.
func TestSimRearmDuringFiring(t *testing.T) {
	const n = 64
	start := time.Unix(0, 0)
	s := NewSim(start)
	type rearm struct {
		now time.Time
		ch  <-chan time.Time
	}
	out := make(chan rearm, n)
	for i := 0; i < n; i++ {
		ch := s.After(time.Second)
		go func() {
			<-ch
			out <- rearm{s.Now(), s.After(time.Second)}
		}()
	}
	s.Advance(time.Second)
	for i := 0; i < n; i++ {
		r := <-out
		if want := start.Add(time.Second); !r.now.Equal(want) {
			t.Fatalf("woken receiver read Now = %v; want %v", r.now, want)
		}
		select {
		case got := <-r.ch:
			t.Fatalf("a timer re-armed during the sends fired at %v", got)
		default:
		}
	}
	if got, ok := s.NextDeadline(); !ok || !got.Equal(start.Add(2*time.Second)) || s.PendingTimers() != n {
		t.Fatalf("next deadline %v (%v) with %d pending; want %v with %d", got, ok, s.PendingTimers(), start.Add(2*time.Second), n)
	}
}

// TestSimConcurrentAdvances has two goroutines advance at once over
// many due timers: every timer fires exactly once with its deadline,
// each receiver reads one of the two targets (never an instant before
// its own deadline), and the clock ends at the later target.
func TestSimConcurrentAdvances(t *testing.T) {
	const n = 200
	start := time.Unix(0, 0)
	for round := 0; round < 20; round++ {
		s := NewSim(start)
		t1, t2 := start.Add(n/2*time.Millisecond), start.Add(n*time.Millisecond)
		chans := make([]<-chan time.Time, n)
		for i := range chans {
			chans[i] = s.After(time.Duration(i+1) * time.Millisecond)
		}
		nows := make([]time.Time, n)
		var wg sync.WaitGroup
		for i, ch := range chans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, want := <-ch, start.Add(time.Duration(i+1)*time.Millisecond); !got.Equal(want) {
					t.Errorf("timer %d delivered %v; want %v", i, got, want)
				}
				nows[i] = s.Now()
			}()
		}
		var adv sync.WaitGroup
		for _, to := range []time.Time{t1, t2} {
			adv.Add(1)
			go func() {
				defer adv.Done()
				s.AdvanceTo(to)
			}()
		}
		adv.Wait()
		wg.Wait()
		for i, now := range nows {
			if deadline := start.Add(time.Duration(i+1) * time.Millisecond); now.Before(deadline) || (!now.Equal(t1) && !now.Equal(t2)) {
				t.Fatalf("round %d: timer %d's receiver read Now = %v", round, i, now)
			}
		}
		if got := s.Now(); !got.Equal(t2) {
			t.Fatalf("round %d: Now = %v; want %v", round, got, t2)
		}
		if s.PendingTimers() != 0 {
			t.Fatalf("round %d: %d timers left", round, s.PendingTimers())
		}
	}
}

// BenchmarkSimTick is one evaluation tick's clock traffic: 200
// goroutines each wait one virtual second, read Now and re-arm. One op
// is one Advance and the wait until every goroutine has re-armed.
func BenchmarkSimTick(b *testing.B) {
	const waiters = 200
	s := NewSim(time.Unix(0, 0))
	stop := make(chan struct{})
	var armed, done sync.WaitGroup
	last := make([]time.Time, waiters)
	armed.Add(waiters)
	for i := range waiters {
		done.Add(1)
		go func() {
			defer done.Done()
			for {
				ch := s.After(time.Second)
				armed.Done()
				select {
				case <-ch:
					last[i] = s.Now()
				case <-stop:
					return
				}
			}
		}()
	}
	armed.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		armed.Add(waiters)
		s.Advance(time.Second)
		armed.Wait()
	}
	b.StopTimer()
	close(stop)
	done.Wait()
	for i, at := range last {
		if !at.Equal(s.Now()) {
			b.Fatalf("waiter %d last read Now = %v; want %v", i, at, s.Now())
		}
	}
}
