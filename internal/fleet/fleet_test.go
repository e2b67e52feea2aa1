package fleet

import (
	"fmt"
	"testing"
	"time"

	"contexp/internal/router"
	"contexp/internal/wire"
)

func testRoute(service string) router.Route {
	return router.Route{
		Service:  service,
		Backends: []router.Backend{{Version: "v1", Weight: 0.8}, {Version: "v2", Weight: 0.2}},
	}
}

func newTestHub(t *testing.T, tbl *router.Table) *Hub {
	t.Helper()
	h := New(Config{Table: tbl, HeartbeatInterval: time.Hour})
	t.Cleanup(h.Close)
	return h
}

// recvFrame pulls one frame off a subscription with a deadline.
func recvFrame(t *testing.T, sub *Subscription) []byte {
	t.Helper()
	select {
	case frame, ok := <-sub.Frames():
		if !ok {
			t.Fatal("stream closed while waiting for a frame")
		}
		return frame
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a frame")
		return nil
	}
}

func applyFrame(t *testing.T, tbl *router.Table, frame []byte) {
	t.Helper()
	switch wire.Kind(frame) {
	case wire.KindSnapshot:
		var d wire.SnapshotDecoder
		snap, err := d.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.ApplySnapshot(snap); err != nil {
			t.Fatal(err)
		}
	case wire.KindDelta:
		var d wire.DeltaDecoder
		delta, err := d.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
	case wire.KindHeartbeat:
		// no table effect
	default:
		t.Fatalf("unexpected frame kind %d", wire.Kind(frame))
	}
}

// waitVersion drains frames into tbl until it reaches version v.
func waitVersion(t *testing.T, sub *Subscription, tbl *router.Table, v uint64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for tbl.Version() < v {
		select {
		case frame, ok := <-sub.Frames():
			if !ok {
				t.Fatalf("stream closed at version %d, want %d", tbl.Version(), v)
			}
			applyFrame(t, tbl, frame)
		case <-deadline:
			t.Fatalf("timed out at version %d, want %d", tbl.Version(), v)
		}
	}
}

func TestWatchFreshAgentGetsSnapshotThenDeltas(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)

	sub, err := h.Watch("a1", "127.0.0.1:9", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)

	frame := recvFrame(t, sub)
	if wire.Kind(frame) != wire.KindSnapshot {
		t.Fatalf("first frame kind = %d, want snapshot", wire.Kind(frame))
	}
	replica := router.NewTable()
	applyFrame(t, replica, frame)
	if replica.Version() != src.Version() || replica.String() != src.String() {
		t.Fatalf("replica out of sync after snapshot:\n%s\nwant\n%s", replica.String(), src.String())
	}

	// Mutations arrive as deltas and converge the replica.
	if err := src.Set(testRoute("frontend")); err != nil {
		t.Fatal(err)
	}
	if err := src.SetWeights("catalog", []router.Backend{{Version: "v1", Weight: 0.5}, {Version: "v2", Weight: 0.5}}); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, sub, replica, src.Version())
	if replica.String() != src.String() {
		t.Fatalf("replica diverged:\n%s\nwant\n%s", replica.String(), src.String())
	}

	st := h.Stats()
	if st.Snapshots != 1 || st.Watchers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWatchCurrentAgentGetsHeartbeat(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)

	sub, err := h.Watch("a1", "", src.Version())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	frame := recvFrame(t, sub)
	if wire.Kind(frame) != wire.KindHeartbeat {
		t.Fatalf("frame kind = %d, want heartbeat", wire.Kind(frame))
	}
	if v, err := wire.DecodeHeartbeat(frame); err != nil || v != src.Version() {
		t.Fatalf("heartbeat version = %d (%v), want %d", v, err, src.Version())
	}
}

func TestWatchCatchUpFromRing(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)

	// First agent follows live so we can both drive publishes and know
	// when they have happened.
	live, err := h.Watch("live", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(live)
	replica := router.NewTable()
	applyFrame(t, replica, recvFrame(t, live))
	joinAt := src.Version()

	for i := 0; i < 3; i++ {
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
		waitVersion(t, live, replica, src.Version())
	}

	// A reconnecting agent that applied joinAt catches up from deltas
	// alone — no full snapshot.
	late, err := h.Watch("late", "", joinAt)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(late)
	// Seed the late table with the state it had at joinAt (catalog only).
	lateTbl := router.NewTable()
	seed := router.TableSnapshot{Version: joinAt, Routes: []router.Route{testRoute("catalog")}}
	if err := lateTbl.ApplySnapshot(seed); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, late, lateTbl, src.Version())
	if lateTbl.String() != src.String() {
		t.Fatalf("catch-up diverged:\n%s\nwant\n%s", lateTbl.String(), src.String())
	}
	if st := h.Stats(); st.CatchUps != 1 {
		t.Fatalf("CatchUps = %d, want 1 (stats %+v)", st.CatchUps, st)
	}
}

func TestWatchStaleVersionFallsBackToSnapshot(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Table: src, HeartbeatInterval: time.Hour, DeltaRing: 2})
	defer h.Close()

	live, err := h.Watch("live", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(live)
	replica := router.NewTable()
	applyFrame(t, replica, recvFrame(t, live))

	// Push enough versions that version-1 deltas fall off the 2-entry ring.
	for i := 0; i < 5; i++ {
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
		waitVersion(t, live, replica, src.Version())
	}

	late, err := h.Watch("late", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(late)
	frame := recvFrame(t, late)
	if wire.Kind(frame) != wire.KindSnapshot {
		t.Fatalf("frame kind = %d, want full snapshot after ring eviction", wire.Kind(frame))
	}
}

func TestLaggedSubscriberIsDropped(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Table: src, HeartbeatInterval: time.Hour, SendBuffer: 2})
	defer h.Close()

	sub, err := h.Watch("slow", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Never drain: buffer holds the snapshot + 1 delta, the next delta
	// overflows and the hub must cut the stream rather than block.
	deadline := time.After(5 * time.Second)
	for i := 0; !sub.Lagged(); i++ {
		select {
		case <-deadline:
			t.Fatal("slow subscriber never dropped")
		default:
		}
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// The stream must be closed (drained frames then closed channel).
	for range sub.Frames() {
	}
	if st := h.Stats(); st.Lagged != 1 || st.Watchers != 0 {
		t.Fatalf("stats after lag drop = %+v", st)
	}
	// Registry keeps the agent, marked disconnected.
	agents := h.Agents()
	if len(agents) != 1 || agents[0].Connected {
		t.Fatalf("agents = %+v", agents)
	}
}

func TestAckAndAgentsLag(t *testing.T) {
	src := router.NewTable()
	for i := 0; i < 3; i++ {
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h := newTestHub(t, src)
	// Hub exported at construction; version is 3.
	h.Ack("a1", "10.0.0.1:8080", h.Epoch(), 3, 1000, false)
	h.Ack("a2", "10.0.0.2:8080", h.Epoch(), 1, 50, true)
	// Versions another process numbered, above and below the hub's: none
	// of them is one of this hub's tables.
	h.Ack("a3", "", "restarted", 7, 0, false)
	h.Ack("a4", "", "restarted", 2, 0, false)

	agents := h.Agents()
	if len(agents) != 4 {
		t.Fatalf("agents = %+v", agents)
	}
	if agents[0].ID != "a1" || agents[0].Lag != 0 || agents[0].Resolves != 1000 || agents[0].Stale {
		t.Fatalf("a1 = %+v", agents[0])
	}
	if agents[1].ID != "a2" || agents[1].Lag != 2 || !agents[1].Stale {
		t.Fatalf("a2 = %+v", agents[1])
	}
	for _, a := range agents[2:] {
		if a.Lag != 3 || a.Epoch != "restarted" {
			t.Fatalf("%s = %+v, want lag 3: a version of another epoch counts as none applied", a.ID, a)
		}
	}
	if agents[0].LastAck.IsZero() {
		t.Fatal("LastAck not recorded")
	}
}

// TestWatchNoVersionIsSnapshot: an agent whose table is not one of the
// hub's gets a snapshot, also from a hub at version 0, whose table is
// empty, and also when it holds that version number.
func TestWatchNoVersionIsSnapshot(t *testing.T) {
	h := newTestHub(t, router.NewTable())
	sub, err := h.Watch("a1", "", NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	frame := recvFrame(t, sub)
	if wire.Kind(frame) != wire.KindSnapshot {
		t.Fatalf("frame kind %d, want a snapshot", wire.Kind(frame))
	}
	held := router.NewTable()
	if err := held.Set(testRoute("from-another-epoch")); err != nil {
		t.Fatal(err)
	}
	applyFrame(t, held, frame)
	if v, services := held.Version(), held.Services(); v != 0 || len(services) != 0 {
		t.Fatalf("after the snapshot: version %d, services %v; want the hub's empty table", v, services)
	}
}

func TestHeartbeatCarriesVersion(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Table: src, HeartbeatInterval: 10 * time.Millisecond})
	defer h.Close()

	sub, err := h.Watch("a1", "", src.Version())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	recvFrame(t, sub) // initial confirmation heartbeat
	deadline := time.After(5 * time.Second)
	for {
		select {
		case frame := <-sub.Frames():
			if wire.Kind(frame) == wire.KindHeartbeat {
				if v, err := wire.DecodeHeartbeat(frame); err != nil || v != src.Version() {
					t.Fatalf("heartbeat = %d (%v), want %d", v, err, src.Version())
				}
				return
			}
		case <-deadline:
			t.Fatal("no periodic heartbeat")
		}
	}
}

func TestCloseEndsStreams(t *testing.T) {
	src := router.NewTable()
	h := New(Config{Table: src, HeartbeatInterval: time.Hour})
	sub, err := h.Watch("a1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Frames():
			if !ok {
				if sub.Lagged() {
					t.Fatal("clean shutdown marked subscriber as lagged")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream not closed by hub shutdown")
		}
	}
}
