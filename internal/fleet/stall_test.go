package fleet

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"contexp/internal/router"
	"contexp/internal/wire"
)

// queued is one frame the hub should have queued for a reader: its kind
// and the version it leaves the reader's table at.
type queued struct {
	kind    byte
	version uint64
}

// reader is one subscriber of a stall schedule and the model of its
// queue: a reader with room gets each publish's delta and each
// heartbeat, a full one finds everything replaced by one snapshot of
// the current table, and a reconnecting one gets a heartbeat if its
// table is current and one snapshot otherwise.
type reader struct {
	sub     *Subscription
	table   *router.Table
	stalled bool
	want    []queued
}

func (r *reader) expect(f queued, buffer int, current uint64) {
	if len(r.want) < buffer {
		r.want = append(r.want, f)
		return
	}
	r.want = []queued{{wire.KindSnapshot, current}}
}

// TestStallSchedule drives a hub and three readers through seeded
// schedules of publishes, heartbeats, one-frame deliveries, reader
// stalls and reconnects. After every step each reader's table is one
// the hub published and its version has not gone down, and every
// reader's queue holds exactly the frames the model predicts, so a
// reader that drains gets every publish's frame however long another
// stalls. Once the schedule quiesces, every reader holds the current
// table.
func TestStallSchedule(t *testing.T) {
	for seed := range uint64(200) {
		runStallSchedule(t, seed)
	}
}

func runStallSchedule(t *testing.T, seed uint64) {
	const buffer = 4
	rng := rand.New(rand.NewPCG(seed, 0))
	src := router.NewTable()
	if err := src.Set(testRoute("svc-0")); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Table: src, HeartbeatInterval: time.Hour, SendBuffer: buffer})
	defer h.Close()
	published := map[uint64]string{src.Version(): src.String()}

	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	readers := make([]*reader, 3)
	for i := range readers {
		sub, err := h.Watch(fmt.Sprintf("r%d", i), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = &reader{sub: sub, table: router.NewTable(), want: []queued{{wire.KindSnapshot, src.Version()}}}
	}
	deliver := func(r *reader) {
		t.Helper()
		var frame []byte
		select {
		case f, ok := <-r.sub.Frames():
			if !ok {
				fail("stream closed")
			}
			frame = f
		default:
			fail("no frame queued, want %d", len(r.want))
		}
		want := r.want[0]
		r.want = r.want[1:]
		if got := wire.Kind(frame); got != want.kind {
			fail("frame kind %d, want %d", got, want.kind)
		}
		prev := r.table.Version()
		applyFrame(t, r.table, frame)
		if v := r.table.Version(); v < prev {
			fail("a reader went back from version %d to %d", prev, v)
		}
		if want.kind == wire.KindHeartbeat {
			if v, err := wire.DecodeHeartbeat(frame); err != nil || v != want.version {
				fail("heartbeat version %d (%v), want %d", v, err, want.version)
			}
			return
		}
		if v := r.table.Version(); v != want.version {
			fail("table at version %d after a frame, want %d", v, want.version)
		}
		// A reader's table changes only here, so these checks hold
		// after every step.
		if tbl, ok := published[r.table.Version()]; !ok || tbl != r.table.String() {
			fail("a reader holds a table the hub did not publish at version %d:\n%s", r.table.Version(), r.table.String())
		}
	}
	check := func() {
		t.Helper()
		for i, r := range readers {
			if n := len(r.sub.frames); n != len(r.want) {
				fail("reader %d has %d frames queued, want %d", i, n, len(r.want))
			}
		}
	}

	for ; step < 300; step++ {
		switch op := rng.IntN(11); {
		case op < 4:
			w := float64(rng.IntN(11)) / 10
			route := router.Route{
				Service:  fmt.Sprintf("svc-%d", rng.IntN(4)),
				Backends: []router.Backend{{Version: "v1", Weight: w}, {Version: "v2", Weight: 1 - w}},
			}
			if err := src.Set(route); err != nil {
				t.Fatal(err)
			}
			h.publish()
			published[src.Version()] = src.String()
			for _, r := range readers {
				r.expect(queued{wire.KindDelta, src.Version()}, buffer, src.Version())
			}
		case op < 5:
			h.heartbeat()
			for _, r := range readers {
				r.expect(queued{wire.KindHeartbeat, src.Version()}, buffer, src.Version())
			}
		case op < 9:
			if r := readers[rng.IntN(len(readers))]; !r.stalled && len(r.want) > 0 {
				deliver(r)
			}
		case op < 10:
			r := readers[rng.IntN(len(readers))]
			r.stalled = !r.stalled
		default:
			// Cut a reader's stream, losing what it had queued, and
			// reopen it at the version its table holds or as an agent
			// of another epoch.
			i := rng.IntN(len(readers))
			r := readers[i]
			h.Unwatch(r.sub)
			from := r.table.Version()
			if rng.IntN(2) == 0 {
				from = NoVersion
			}
			sub, err := h.Watch(fmt.Sprintf("r%d", i), "", from)
			if err != nil {
				t.Fatal(err)
			}
			r.sub = sub
			r.want = []queued{{wire.KindSnapshot, src.Version()}}
			if from == src.Version() {
				r.want = []queued{{wire.KindHeartbeat, src.Version()}}
			}
		}
		check()
	}

	for i, r := range readers {
		for len(r.want) > 0 {
			deliver(r)
		}
		check()
		if r.table.Version() != src.Version() || r.table.String() != src.String() {
			fail("reader %d quiesced at version %d, want %d", i, r.table.Version(), src.Version())
		}
	}
	if st := h.Stats(); st.Watchers != len(readers) || st.Lagged != 0 || st.CatchUps != 0 {
		fail("stats = %+v", st)
	}
}
