package bifrost

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// numberedEvent is the i-th check-result of a five-check ladder: five
// events share an instant, as a tick's do, and every 5 000 a phase name
// the trail has not seen.
func numberedEvent(i int) Event {
	return Event{At: t0.Add(time.Duration(i/5) * time.Second), Type: EventCheckResult, Phase: fmt.Sprintf("phase-%d", i/5000),
		Check: fmt.Sprintf("c%d", i%5), Outcome: OutcomePass, Detail: fmt.Sprintf("value=%d", i)}
}

// diffEvents holds decoded events to the recorded ones: every field, the
// instant and its RFC 3339 text, and == for a UTC stamp. It returns the
// first difference, "" for none.
func diffEvents(got, want []Event) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Type != w.Type || g.Phase != w.Phase || g.Check != w.Check || g.Outcome != w.Outcome || g.Detail != w.Detail {
			return fmt.Sprintf("event %d = %+v, want %+v", i, g, w)
		}
		if gs, ws := g.At.Format(time.RFC3339Nano), w.At.Format(time.RFC3339Nano); !g.At.Equal(w.At) || gs != ws {
			return fmt.Sprintf("event %d at %s, want %s", i, gs, ws)
		}
		if w.At.Location() == time.UTC && g.At != w.At.Round(0) {
			return fmt.Sprintf("event %d: UTC stamp %#v does not compare == to %#v", i, g.At, w.At)
		}
	}
	return ""
}

// checkTrail compares tr.from(i) with flat[i:] at every i that starts,
// ends or straddles a chunk, and past both ends.
func checkTrail(t *testing.T, tr *trail, flat []Event) {
	t.Helper()
	n := len(flat)
	if tr.n != n {
		t.Fatalf("trail counts %d events, want %d", tr.n, n)
	}
	at := []int{-3, 0, 1, n / 2, n - 1, n, n + 5}
	for _, c := range tr.chunks {
		at = append(at, c.first-1, c.first, c.first+1)
	}
	for _, i := range at {
		want := flat[min(max(i, 0), n):]
		got := tr.from(i)
		if d := diffEvents(got, want); d != "" {
			t.Fatalf("n=%d: from(%d): %s", n, i, d)
		}
		if cap(got) != len(want) {
			t.Fatalf("n=%d: from(%d) allocated %d events for %d", n, i, cap(got), len(want))
		}
	}
}

// TestTrailAppendsInPlace holds the trail to its storage contract: chunk
// sizes 256, 512, … 4 096 and 4 096 from there on, a chunk of its own
// for an event no chunk would hold, no chunk ever moved, no written byte
// ever changed, never a byte written past a chunk's capacity, and
// from(i) equal to the flat slice's [i:] at every chunk boundary.
func TestTrailAppendsInPlace(t *testing.T) {
	var tr trail
	var flat []Event
	checkTrail(t, &tr, flat)
	const oversized = 2000 // this event and the next carry a detail longer than a chunk
	var firstByte []*byte  // chunk index → where its first byte was when it was listed
	for i := 0; i < 5000; i++ {
		ev := numberedEvent(i)
		if i == oversized || i == oversized+1 {
			ev.Detail = strings.Repeat("x", 5000)
		}
		chunks, written := len(tr.chunks), bytes.Clone(tr.tail)
		tr.append(ev)
		flat = append(flat, ev)

		last := tr.chunks[len(tr.chunks)-1]
		if &tr.tail[0] != &last.b[0] || cap(tr.tail) != len(last.b) {
			t.Fatalf("append %d: the written bytes are not the last chunk's (tail cap %d, chunk %d B)", i, cap(tr.tail), len(last.b))
		}
		if chunks > 0 && !bytes.HasPrefix(tr.chunks[chunks-1].b, written) {
			t.Fatalf("append %d rewrote bytes chunk %d already held", i, chunks-1)
		}
		if len(tr.chunks) > chunks {
			firstByte = append(firstByte, &last.b[0])
		}
		for c, chunk := range tr.chunks {
			if firstByte[c] != &chunk.b[0] {
				t.Fatalf("append %d moved chunk %d", i, c)
			}
		}
		if n := len(flat); n <= 40 || n%97 == 0 || len(tr.chunks) > chunks || (n >= oversized && n <= oversized+3) {
			checkTrail(t, &tr, flat)
		}
	}
	checkTrail(t, &tr, flat)

	var sizes []int
	total := 0
	for c, chunk := range tr.chunks {
		total += len(chunk.b)
		switch chunk.first {
		case oversized, oversized + 1:
			if want := trailEventMax + 5000; len(chunk.b) != want || tr.chunks[c+1].first != chunk.first+1 {
				t.Errorf("event %d, %d B long, sits in a chunk of %d B with %d others; want %d B of its own",
					chunk.first, 5000, len(chunk.b), tr.chunks[c+1].first-chunk.first-1, want)
			}
		default:
			sizes = append(sizes, len(chunk.b))
		}
	}
	if want := []int{256, 512, 1024, 2048, 4096}; !slices.Equal(sizes[:5], want) || slices.Min(sizes[4:]) != 4096 || slices.Max(sizes) != 4096 {
		t.Errorf("chunk sizes %v, want %v and 4096 from there on", sizes, want)
	}
	if tr.bytes != total {
		t.Errorf("trail accounts %d chunk bytes, holds %d", tr.bytes, total)
	}

	// A recovered run's trail is packed from the fold's flat slice, which
	// it must neither keep nor write into.
	recovered := make([]Event, 9, 64)
	for i := range recovered {
		recovered[i] = numberedEvent(i)
	}
	rt := trailOf(recovered)
	rt.append(numberedEvent(9))
	if got := recovered[:10][9]; got != (Event{}) {
		t.Errorf("the trail appended into the recovered slice's spare capacity: %+v", got)
	}
	if got := rt.from(8); len(got) != 2 || got[0] != numberedEvent(8) || got[1] != numberedEvent(9) {
		t.Errorf("from(8) after packing 9 events and appending one = %+v", got)
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
	r := &Run{strategy: twoPhaseStrategy(), engine: eng, log: new(runLog)}
	for i := 0; i < n; i++ {
		r.record(numberedEvent(i))
	}
	return r
}

// TestEventsFromCopiesOnlyTheTail is the SSE tail's cost: on a run with
// 10⁴ events and one more recorded, a reader that has seen the 10⁴ is
// handed one event in a one-event slice, having read one chunk — every
// earlier chunk can be taken away without the read noticing.
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
	if allocs := testing.AllocsPerRun(100, func() { r.EventsFrom(seen) }); allocs != 2 {
		t.Errorf("EventsFrom(%d) made %.0f allocations, want 2 (the one-event slice and its detail)", seen, allocs)
	}

	blind := r.log.events
	blind.chunks = slices.Clone(blind.chunks)
	last := len(blind.chunks) - 1
	if first := blind.chunks[last].first; last < 10 || first >= seen {
		t.Fatalf("the trail's %d chunks end in one starting at event %d; the test wants event %d inside a late chunk", last+1, first, seen)
	}
	for c := range blind.chunks[:last] {
		blind.chunks[c].b = nil
	}
	for _, i := range []int{blind.chunks[last].first, seen - 1, seen, seen + 1} {
		if d := diffEvents(blind.from(i), r.Events()[min(i, seen+1):]); d != "" {
			t.Errorf("from(%d) with only the last chunk readable: %s", i, d)
		}
	}

	if r.EventCount() != seen+1 || len(r.Events()) != seen+1 {
		t.Errorf("EventCount = %d, len(Events()) = %d, want %d", r.EventCount(), len(r.Events()), seen+1)
	}
	if all := r.Events(); all[0] != numberedEvent(0) || all[seen] != numberedEvent(seen) || all[4321] != numberedEvent(4321) {
		t.Error("Events() does not hold the events in record order")
	}
}

// TestTrailReadersDecodeOutsideTheLock: four readers tail the trail with
// EventsFrom and hold on to copies of it taken under the lock while the
// run records 10⁵ events. Under -race any byte, table entry or chunk
// header a decode touches that the writer still writes is a report; and
// every held copy must decode afterwards to exactly the events it had
// when it was taken.
func TestTrailReadersDecodeOutsideTheLock(t *testing.T) {
	const total, readers = 100_000, 4
	r := longTrailRun(t, 0, nil)
	held := make([][]trail, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := 0
			for poll := 0; ; poll++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range r.EventsFrom(seen) {
					if ev != numberedEvent(seen) {
						t.Errorf("reader %d: event %d read as %+v", g, seen, ev)
						return
					}
					seen++
				}
				if poll%64 == g {
					r.mu.Lock()
					view := r.log.events
					r.mu.Unlock()
					held[g] = append(held[g], view)
					if d := diffEvents(view.from(view.n-700), flatNumbered(view.n-700, view.n)); d != "" {
						t.Errorf("reader %d, view of %d events: %s", g, view.n, d)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < total; i++ {
		r.record(numberedEvent(i))
	}
	close(stop)
	wg.Wait()
	for g, views := range held {
		for k, view := range views {
			from := view.n - 700
			if k%16 == 0 {
				from = 0
			}
			if d := diffEvents(view.from(from), flatNumbered(from, view.n)); d != "" {
				t.Fatalf("reader %d's view of %d events, decoded after %d were recorded: %s", g, view.n, total, d)
			}
		}
	}
	if d := diffEvents(r.Events(), flatNumbered(0, total)); d != "" {
		t.Error(d)
	}
}

// flatNumbered is numberedEvent(from) … numberedEvent(to-1).
func flatNumbered(from, to int) []Event {
	from = max(from, 0)
	out := make([]Event, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, numberedEvent(i))
	}
	return out
}

// TestRecordHeadReuse: whatever order instants, types, phases, tenants
// and a time that cannot be encoded come in, every journaled record is
// the one a fresh appendRecord writes, and the unencodable ones count as
// journal errors and leave nothing behind.
func TestRecordHeadReuse(t *testing.T) {
	jnl := &journal.Memory{}
	plain := longTrailRun(t, 0, jnl)
	eng := plain.engine
	acme := &Run{strategy: twoPhaseStrategy(), engine: eng, log: new(runLog)}
	acme.strategy.Tenant = "acme"

	t1 := t0.Add(time.Second)
	y10k := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	cest := t1.In(time.FixedZone("CEST", 2*3600))
	wall := time.Now()
	check := func(at time.Time, phase, name string) Event {
		return Event{At: at, Type: EventCheckResult, Phase: phase, Check: name, Outcome: OutcomePass, Detail: "value=1"}
	}
	steps := []struct {
		run    *Run
		ev     Event
		dsl    string
		status RunStatus
	}{
		{plain, Event{At: t0, Type: EventRunLaunched, Detail: "service=catalog"}, "strategy \"happy\" {}", 0},
		{plain, Event{At: t0, Type: EventTrafficApplied, Detail: "baseline=100%"}, "", 0},
		{plain, check(t1, "canary", "c0"), "", 0},
		{plain, check(t1, "canary", "c1"), "", 0}, // the head is reused …
		{acme, check(t1, "canary", "c0"), "", 0},  // … per run …
		{plain, check(t1, "canary", "c2"), "", 0},
		{acme, check(t1, "canary", "c1"), "", 0},
		{plain, check(t1, "ab", "c2"), "", 0}, // … and not across a phase,
		{plain, check(t1, "canary", "c2"), "", 0},
		{plain, Event{At: t1, Type: EventTopologyVerdict, Phase: "canary", Check: "c2"}, "", 0}, // a type,
		{plain, check(t1.Add(time.Nanosecond), "canary", "c2"), "", 0},                          // an instant,
		{plain, check(cest, "canary", "c2"), "", 0},                                             // or a zone.
		{plain, check(y10k, "canary", "c0"), "", 0},                                             // A failed head is not kept:
		{plain, check(y10k, "canary", "c1"), "", 0},
		{plain, check(cest, "canary", "c3"), "", 0},
		{acme, check(y10k, "canary", "c0"), "", 0},
		{acme, check(t1, "canary", "c2"), "", 0},
		{plain, check(wall, "", ""), "", 0},
		{plain, check(wall, "", "c1"), "", 0},
		{plain, Event{At: t1, Type: EventRunFinished, Detail: "rolled-back"}, "", StatusRolledBack},
		{plain, Event{At: t1, Type: EventRunFinished, Detail: "rolled-back again"}, "again", StatusAborted},
	}
	var want [][]byte
	failed := int64(0)
	for _, st := range steps {
		rec, err := appendRecord(nil, st.run.strategy.RunKey(), st.run.strategy.Tenant, st.ev, st.dsl, st.status)
		if err != nil {
			failed++
		} else {
			want = append(want, rec)
		}
		st.run.recordWire(st.ev, st.dsl, st.status)
	}
	if failed != 3 || eng.JournalErrors() != failed {
		t.Errorf("%d journal errors counted, %d records refused by appendRecord, want 3 of each", eng.JournalErrors(), failed)
	}
	var got [][]byte
	if err := jnl.Replay(func(rec []byte) error {
		got = append(got, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records journaled, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
	if n := len(plain.Events()) + len(acme.Events()); n != len(steps) {
		t.Errorf("the trails hold %d events, want all %d: a journal error does not drop the event", n, len(steps))
	}
}

// rollbackTrail is the nine events of a canary whose first check trips:
// what every rollback_fleet run leaves behind.
func rollbackTrail(t *testing.T) (*Engine, []Event) {
	t.Helper()
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 2*time.Minute, 500)
	s := twoPhaseStrategy()
	s.Phases[0].OnFailure = Transition{Kind: TransitionRollback}
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	events := run.Events()
	if run.Status() != StatusRolledBack || len(events) != 9 {
		t.Fatalf("run %s with %d events, want a nine-event rollback: %+v", run.Status(), len(events), events)
	}
	return h.engine, events
}

// TestTrailFootprint gates what a held event costs, chunk slack, chunk
// headers and tables included: a ladder's check-results (five a second,
// a detail of eleven or twelve bytes) and the nine-event trail of a
// canary that rolls back. At the parent commit they cost 112 B an event
// and 1 536 B a trail before the detail strings.
func TestTrailFootprint(t *testing.T) {
	heapOf := func(n int, build func() trail) int64 {
		trails := make([]trail, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range trails {
			trails[i] = build()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(trails)
		return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	}

	const events = 10_000
	checks := []string{"p95-250", "p95-500", "p95-1000", "p95-2000", "regression"}
	perTrail := heapOf(20, func() trail {
		var tr trail
		for i := 0; i < events; i++ {
			tr.append(Event{At: t0.Add(time.Duration(i/5) * time.Second), Type: EventCheckResult, Phase: "canary",
				Check: checks[i%5], Outcome: OutcomePass, Detail: valueDetail(100+float64(i%900)/7, "")})
		}
		return tr
	})
	t.Logf("a ladder check-result costs %.1f B", float64(perTrail)/events)
	if perTrail > 24*events {
		t.Errorf("a ladder check-result costs %.1f B held, want <= 24", float64(perTrail)/events)
	}

	eng, nine := rollbackTrail(t)
	perTrail = heapOf(500, func() trail { return trailOf(nine) })
	t.Logf("a nine-event rollback trail costs %d B", perTrail)
	if perTrail > 1280 {
		t.Errorf("a nine-event rollback trail costs %d B, want <= 1280", perTrail)
	}
	packed := trailOf(nine)
	if st := eng.TrailStats(); st.Events != 9 || st.Bytes != int64(packed.bytes) || st.Bytes == 0 {
		t.Errorf("TrailStats = %+v, want the one run's 9 events in %d chunk bytes", st, packed.bytes)
	}
}

// longDetail is longer than any chunk the trail would otherwise make.
var longDetail = strings.Repeat("long detail ", 500)

// Instant operations of a scripted event: the low two bits move the
// previous instant, the next two rezone it.
const (
	scriptKeep, scriptShift, scriptSet       = 0, 1, 2
	scriptLocal, scriptParsedZone, scriptUTC = 1 << 2, 2 << 2, 3 << 2
)

// trailScript is the inverse of scriptedEvents for events whose strings
// are shorter than 200 bytes or longDetail: it turns a recorded trail
// into a seed.
func trailScript(events []Event) []byte {
	var b []byte
	str := func(s string) {
		if s == longDetail {
			b = append(b, 255)
			return
		}
		b = append(append(b, byte(len(s))), s...)
	}
	prev := time.Unix(0, 0).UTC()
	for _, ev := range events {
		str(string(ev.Type))
		str(ev.Phase)
		str(ev.Check)
		b = append(b, byte(ev.Outcome))
		if ev.At == prev {
			b = append(b, scriptKeep)
		} else {
			zone := byte(scriptParsedZone)
			switch ev.At.Location() {
			case time.UTC:
				zone = scriptUTC
			case time.Local:
				zone = scriptLocal
			}
			b = binary.BigEndian.AppendUint64(append(b, scriptSet|zone), uint64(ev.At.Unix()))
			b = binary.BigEndian.AppendUint32(b, uint32(ev.At.Nanosecond()))
			if zone == scriptParsedZone {
				_, offset := ev.At.Zone()
				b = binary.BigEndian.AppendUint16(b, uint16(int16(offset/60)))
			}
		}
		prev = ev.At
		str(ev.Detail)
	}
	return b
}

// scriptedEvents reads any bytes as a sequence of events. A string is a
// length byte and that many raw bytes (so empty, and any bytes at all),
// 200–254 a word of a run's vocabulary, 255 longDetail. An instant is
// the previous one, kept (==), shifted by up to ±9 h or set to any Unix
// second and nanosecond, and then left in its zone or put in time.Local,
// in the fixed zone a "+hh:mm" stamp parses to (a new *time.Location
// every time), or in UTC.
func scriptedEvents(data []byte) []Event {
	vocab := []string{"", "canary", "ab", "c0", "c1", "c2", "latency", "\xff\xfe", string(EventRunLaunched),
		string(EventPhaseEntered), string(EventCheckResult), string(EventPhaseOutcome), string(EventTransition),
		string(EventTrafficApplied), string(EventRunFinished), string(EventRolloutStep), string(EventTopologyVerdict),
		string(EventRunQueued), string(EventRunScheduled), string(EventRunDequeued)}
	take := func(n int) []byte { // the next n bytes, zeros once the script has run out
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	str := func() string {
		switch n := int(take(1)[0]); {
		case n == 255:
			return longDetail
		case n >= 200:
			return vocab[(n-200)%len(vocab)]
		default:
			return string(take(n))
		}
	}
	var events []Event
	at := time.Unix(0, 0).UTC()
	for len(data) > 0 && len(events) < 2000 {
		ev := Event{Type: EventType(str()), Phase: str(), Check: str(), Outcome: Outcome(int8(take(1)[0]))}
		op := take(1)[0]
		switch op & 3 {
		case scriptShift:
			at = at.Add(time.Duration(int16(binary.BigEndian.Uint16(take(2)))) * time.Second)
		case scriptSet:
			b := take(12)
			at = time.Unix(int64(binary.BigEndian.Uint64(b)), int64(binary.BigEndian.Uint32(b[8:])%1e9)).In(at.Location())
		}
		switch op & (3 << 2) {
		case scriptLocal:
			at = at.In(time.Local)
		case scriptParsedZone:
			offset := int(int16(binary.BigEndian.Uint16(take(2)))) % (24 * 60) * 60
			stamp := at.In(time.FixedZone("", offset)).Format(time.RFC3339Nano)
			if parsed, err := time.Parse(time.RFC3339Nano, stamp); err == nil {
				at = parsed
			}
		case scriptUTC:
			at = at.UTC()
		}
		ev.At = at
		ev.Detail = str()
		events = append(events, ev)
	}
	return events
}

// FuzzTrailRoundTrip: any sequence of events packs and decodes to the
// flat []Event it came from — field for field, instant for instant, RFC
// 3339 text for text, == for UTC stamps — read from every index that
// starts, ends or straddles a chunk; and a *time.Location parsed per
// stamp does not grow the zone table per event.
func FuzzTrailRoundTrip(f *testing.F) {
	golden, err := os.Open("testdata/trails_parent.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	var recorded []Event
	for lines := bufio.NewScanner(golden); lines.Scan(); {
		var ev Event
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			f.Fatal(err)
		}
		if ev.Type == EventRunLaunched && len(recorded) > 0 {
			f.Add(trailScript(recorded))
			recorded = nil
		}
		recorded = append(recorded, ev)
	}
	f.Add(trailScript(recorded))
	cest := time.FixedZone("", 2*3600)
	y9999 := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	f.Add(trailScript([]Event{ // time.Local is UTC by another pointer where TZ is unset
		{At: time.Date(2017, 12, 11, 9, 0, 1, 0, time.Local), Type: EventCheckResult, Detail: "local first"},
		{At: time.Date(2017, 12, 11, 9, 0, 1, 0, time.UTC), Type: EventCheckResult, Detail: "then UTC"},
	}))
	f.Add(trailScript([]Event{
		{At: time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC), Type: EventCheckResult, Detail: "pre-1970"},
		{At: time.Date(1901, 1, 1, 0, 0, 0, 1, time.UTC), Type: EventCheckResult, Check: "\xff\xfe", Detail: "decreasing"},
		{At: y9999, Type: "", Phase: "p", Detail: ""},
		{At: y9999, Type: EventTransition, Phase: "p", Outcome: -3, Detail: longDetail},
		{At: time.Date(2017, 12, 11, 11, 0, 0, 0, cest), Type: EventCheckResult, Detail: "+02:00"},
		{At: time.Date(2017, 12, 11, 11, 0, 1, 0, cest), Type: EventCheckResult, Detail: "+02:00 again"},
		{At: time.Date(2017, 12, 11, 9, 0, 1, 0, time.UTC), Type: EventCheckResult, Detail: "the same instant, in UTC"},
		{At: time.Date(2017, 12, 11, 9, 0, 1, 0, time.Local), Type: EventCheckResult, Detail: longDetail},
		{At: time.Date(2017, 12, 11, 9, 0, 1, 0, time.UTC), Type: EventCheckResult, Detail: "and in UTC again"},
	}))

	f.Fuzz(func(t *testing.T, script []byte) {
		flat := scriptedEvents(script)
		var tr trail
		zones := make(map[string]bool)
		for i, ev := range flat {
			tr.append(ev)
			name, offset := ev.At.Zone()
			zones[fmt.Sprint(name, offset)] = true
			if i < 8 || i%61 == 0 {
				checkTrail(t, &tr, flat[:i+1])
			}
		}
		checkTrail(t, &tr, flat)
		// A fixed zone shares the entry of the first with its name and
		// offset; UTC and time.Local are entries of their own.
		if len(tr.zones) > len(zones)+2 {
			t.Fatalf("%d zone-table entries for %d distinct zones over %d events", len(tr.zones), len(zones), len(flat))
		}
	})
}

// BenchmarkEventsFromTail is one SSE poll that finds one new event on a
// trail of 10⁴: the decode walks the last chunk up to it.
func BenchmarkEventsFromTail(b *testing.B) {
	const seen = 10_000
	r := longTrailRun(b, seen+1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.EventsFrom(seen); len(got) != 1 {
			b.Fatalf("%d events", len(got))
		}
	}
}
