package bifrost

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

func numberedEvent(i int) Event {
	return Event{At: t0.Add(time.Duration(i) * time.Second), Type: EventCheckResult, Phase: "canary",
		Check: "latency", Outcome: OutcomePass, Detail: fmt.Sprintf("value=%d", i)}
}

// TestTrailAppendsInPlace holds the trail to what replaced the growing
// slice: chunk capacities 16, 32, … 256 and 256 from there on, no chunk
// ever moved by a later append, and from(i) equal to the flat slice's
// [i:] at every length that starts, fills or straddles a chunk.
func TestTrailAppendsInPlace(t *testing.T) {
	var tr trail
	var flat []Event
	firstOf := make(map[int]*Event) // chunk index → its first event's address when it was first seen
	check := func() {
		t.Helper()
		n := len(flat)
		for _, i := range []int{-3, 0, 1, n / 2, n - 17, n - 1, n, n + 5} {
			want := flat[min(max(i, 0), n):]
			got := tr.from(i)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d: from(%d) returned %d events, want flat[%d:] (%d events)", n, i, len(got), i, len(want))
			}
			if cap(got) != len(want) {
				t.Fatalf("n=%d: from(%d) allocated %d events for %d", n, i, cap(got), len(want))
			}
		}
	}
	check()
	for i := 0; i < 2000; i++ {
		ev := numberedEvent(i)
		tr.append(ev)
		flat = append(flat, ev)
		for c, chunk := range tr.chunks {
			if first, seen := firstOf[c]; !seen {
				firstOf[c] = &chunk[0]
			} else if first != &chunk[0] {
				t.Fatalf("append %d moved chunk %d", i, c)
			}
		}
		if n := len(flat); n <= 20 || n%97 == 0 || n == 240 || n == 241 || n == 496 || n == 497 {
			check()
		}
	}
	var caps []int
	for _, chunk := range tr.chunks[:6] {
		caps = append(caps, cap(chunk))
	}
	if want := []int{16, 32, 64, 128, 256, 256}; !reflect.DeepEqual(caps, want) {
		t.Errorf("chunk capacities %v, want %v", caps, want)
	}
	if tr.n != len(flat) {
		t.Errorf("n = %d, want %d", tr.n, len(flat))
	}

	// A recovered run's trail starts from the fold's flat slice, which the
	// trail must extend without writing into.
	recovered := make([]Event, 9, 64)
	for i := range recovered {
		recovered[i] = numberedEvent(i)
	}
	rt := trailOf(recovered)
	rt.append(numberedEvent(9))
	if got := recovered[:10][9]; got != (Event{}) {
		t.Errorf("the trail appended into the adopted slice's spare capacity: %+v", got)
	}
	if got := rt.from(8); len(got) != 2 || got[0] != numberedEvent(8) || got[1] != numberedEvent(9) {
		t.Errorf("from(8) after adopting 9 events and appending one = %+v", got)
	}
	if empty := trailOf(nil); empty.n != 0 || len(empty.from(0)) != 0 {
		t.Errorf("trailOf(nil) = %+v", empty)
	}
}

// longTrailRun is a bare run whose trail already holds n events,
// journaling to jnl (nil for none).
func longTrailRun(tb testing.TB, n int, jnl journal.Journal) *Run {
	tb.Helper()
	eng, err := NewEngine(Config{Clock: clock.NewSim(t0), Table: router.NewTable(), Store: metrics.NewStore(0), Journal: jnl})
	if err != nil {
		tb.Fatal(err)
	}
	r := &Run{strategy: twoPhaseStrategy(), engine: eng}
	for i := 0; i < n; i++ {
		r.record(numberedEvent(i))
	}
	return r
}

// TestEventsFromCopiesOnlyTheTail is the SSE tail's cost: on a run with
// 10⁴ events and one more recorded, a reader that has seen the 10⁴ is
// handed one event in a one-event slice, having walked one chunk.
func TestEventsFromCopiesOnlyTheTail(t *testing.T) {
	const seen = 10_000
	r := longTrailRun(t, seen, nil)
	if got := r.EventsFrom(seen); len(got) != 0 {
		t.Fatalf("EventsFrom(%d) on a %d-event trail returned %d events", seen, seen, len(got))
	}
	r.record(numberedEvent(seen))
	got := r.EventsFrom(seen)
	if len(got) != 1 || cap(got) != 1 || got[0] != numberedEvent(seen) {
		t.Fatalf("EventsFrom(%d) = %d events (cap %d) %+v, want exactly the new one", seen, len(got), cap(got), got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.EventsFrom(seen) }); allocs != 1 {
		t.Errorf("EventsFrom(%d) made %.0f allocations, want 1 (the one-event slice)", seen, allocs)
	}
	if r.EventCount() != seen+1 || len(r.Events()) != seen+1 {
		t.Errorf("EventCount = %d, len(Events()) = %d, want %d", r.EventCount(), len(r.Events()), seen+1)
	}
	if all := r.Events(); all[0] != numberedEvent(0) || all[seen] != numberedEvent(seen) || all[4321] != numberedEvent(4321) {
		t.Error("Events() does not hold the events in record order")
	}
}
