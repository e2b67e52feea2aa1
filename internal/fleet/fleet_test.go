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

// TestWatchBehindAgentGetsSnapshot: an agent of the hub's epoch that is
// behind the current version gets exactly one frame, a snapshot that
// takes it to the current table; the deltas it missed are not replayed.
func TestWatchBehindAgentGetsSnapshot(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)
	joinAt := src.Version()
	for i := range 3 {
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
		h.publish()
	}

	late, err := h.Watch("late", "", joinAt)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(late)
	frames := drain(t, late)
	if len(frames) != 1 || wire.Kind(frames[0]) != wire.KindSnapshot {
		t.Fatalf("got %d frames, want one snapshot", len(frames))
	}
	// The late table holds what it had at joinAt (catalog only).
	lateTbl := router.NewTable()
	seed := router.TableSnapshot{Version: joinAt, Routes: []router.Route{testRoute("catalog")}}
	if err := lateTbl.ApplySnapshot(seed); err != nil {
		t.Fatal(err)
	}
	applyFrame(t, lateTbl, frames[0])
	if lateTbl.Version() != src.Version() || lateTbl.String() != src.String() {
		t.Fatalf("after the snapshot, version %d:\n%s\nwant version %d:\n%s", lateTbl.Version(), lateTbl.String(), src.Version(), src.String())
	}
	if st := h.Stats(); st.Snapshots != 1 || st.CatchUps != 0 {
		t.Fatalf("stats = %+v, want one snapshot and no catch-up", st)
	}
}

// drain takes every frame queued on sub without waiting, failing if
// the stream is closed.
func drain(t *testing.T, sub *Subscription) [][]byte {
	t.Helper()
	var frames [][]byte
	for {
		select {
		case frame, ok := <-sub.Frames():
			if !ok {
				t.Fatalf("stream closed after %d frames", len(frames))
			}
			frames = append(frames, frame)
		default:
			return frames
		}
	}
}

// TestSlowSubscriberIsCaughtUp: a subscriber that reads nothing while
// the table moves on keeps its stream, and what it finds queued when it
// reads again takes it to the current table in at most one buffer.
func TestSlowSubscriberIsCaughtUp(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	const buffer = 2
	h := New(Config{Table: src, HeartbeatInterval: time.Hour, SendBuffer: buffer})
	defer h.Close()

	sub, err := h.Watch("slow", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	for i := range 10_000 {
		w := float64(i%100) / 100
		if err := src.SetWeights("catalog", []router.Backend{{Version: "v1", Weight: w}, {Version: "v2", Weight: 1 - w}}); err != nil {
			t.Fatal(err)
		}
		h.publish()
	}
	frames := drain(t, sub)
	if len(frames) > buffer {
		t.Fatalf("drained %d frames, want at most %d", len(frames), buffer)
	}
	replica := router.NewTable()
	for _, frame := range frames {
		applyFrame(t, replica, frame)
	}
	want := h.table.Export()
	if replica.Version() != want.Version || replica.String() != src.String() {
		t.Fatalf("replica at version %d:\n%s\nwant version %d:\n%s", replica.Version(), replica.String(), want.Version, src.String())
	}
	if st := h.Stats(); st.Lagged != 0 || st.Watchers != 1 {
		t.Fatalf("stats after a slow reader = %+v", st)
	}
	if agents := h.Agents(); len(agents) != 1 || !agents[0].Connected {
		t.Fatalf("agents = %+v", agents)
	}
}

// TestSentVersionFollowsPublishes: a connected agent's sent version is
// the last version queued on its stream, not the one it connected at.
func TestSentVersionFollowsPublishes(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)
	sub, err := h.Watch("a1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	replica := router.NewTable()
	for i := range 3 {
		if err := src.Set(testRoute(fmt.Sprintf("svc-%d", i))); err != nil {
			t.Fatal(err)
		}
		h.publish()
	}
	waitVersion(t, sub, replica, src.Version())
	if agents := h.Agents(); agents[0].SentVersion != h.Version() {
		t.Fatalf("sentVersion = %d, want %d", agents[0].SentVersion, h.Version())
	}
}

// TestSupersededStreamKeepsAgentConnected: an agent that redials before
// the server notices its old stream died has two streams; the old one
// ending does not mark the agent disconnected.
func TestSupersededStreamKeepsAgentConnected(t *testing.T) {
	h := newTestHub(t, router.NewTable())
	old, err := h.Watch("a1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := h.Watch("a1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unwatch(old)
	if agents := h.Agents(); len(agents) != 1 || !agents[0].Connected {
		t.Fatalf("agents after the old stream ended = %+v", agents)
	}
	h.Unwatch(cur)
	if agents := h.Agents(); agents[0].Connected {
		t.Fatalf("agents after the current stream ended = %+v", agents)
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

// customMatcher is a rule matcher the wire format cannot encode.
type customMatcher struct{}

func (customMatcher) Match(*router.Request) bool { return false }
func (customMatcher) String() string             { return "custom" }

// TestUndistributableTableShowsAsLag: a table the hub cannot encode is
// not published, and every agent that acked the last published version
// shows as behind the table, not as current.
func TestUndistributableTableShowsAsLag(t *testing.T) {
	src := router.NewTable()
	if err := src.Set(testRoute("catalog")); err != nil {
		t.Fatal(err)
	}
	h := newTestHub(t, src)
	for _, id := range []string{"a1", "a2"} {
		h.Ack(id, "", h.Epoch(), h.Version(), 0, false)
	}
	if st := h.Stats(); st.MaxLag != 0 {
		t.Fatalf("maxLag %d before the table moved, want 0", st.MaxLag)
	}

	odd := testRoute("odd")
	odd.Rules = []router.Rule{{Name: "odd", Match: customMatcher{}, Version: "v1"}}
	if err := src.Set(odd); err != nil {
		t.Fatal(err)
	}
	h.publish()
	if h.Version() == src.Version() {
		t.Fatalf("the hub published version %d, which it cannot encode", src.Version())
	}
	for _, a := range h.Agents() {
		if a.Lag < 1 {
			t.Fatalf("%s = %+v, want lag >= 1 behind table version %d", a.ID, a, src.Version())
		}
	}
	if st := h.Stats(); st.MaxLag < 1 {
		t.Fatalf("stats = %+v, want maxLag >= 1", st)
	}
}

// TestRegistryForgetsLongGoneAgents: a new agent's heartbeat forgets the
// agents that have had no stream, heartbeat or connect for agentExpiry,
// and keeps the others.
func TestRegistryForgetsLongGoneAgents(t *testing.T) {
	h := newTestHub(t, router.NewTable())
	sub, err := h.Watch("streaming", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unwatch(sub)
	gone, err := h.Watch("reconnected", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Unwatch(gone)
	for _, id := range []string{"streaming", "reconnected", "gone", "acked"} {
		h.Ack(id, "", h.Epoch(), 0, 0, false)
	}

	old := time.Now().Add(-agentExpiry - time.Minute)
	h.mu.Lock()
	for id, st := range h.agents {
		st.LastAck = old
		if id != "reconnected" {
			st.ConnectedAt = old
		}
	}
	h.agents["acked"].LastAck = time.Now()
	h.mu.Unlock()

	h.Ack("gone", "", h.Epoch(), 0, 0, false) // a known ID forgets no one
	if n := len(h.Agents()); n != 4 {
		t.Fatalf("%d agents after a known agent's heartbeat, want 4", n)
	}
	h.mu.Lock()
	h.agents["gone"].LastAck = old
	h.mu.Unlock()

	h.Ack("new", "", h.Epoch(), 0, 0, false)
	var ids []string
	for _, a := range h.Agents() {
		ids = append(ids, a.ID)
	}
	if got, want := fmt.Sprint(ids), "[acked new reconnected streaming]"; got != want {
		t.Fatalf("registry holds %s, want %s", got, want)
	}
	if st := h.Stats(); st.Agents != 4 || st.ConnectedAgents != 1 {
		t.Fatalf("stats = %+v", st)
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
				return
			}
		case <-deadline:
			t.Fatal("stream not closed by hub shutdown")
		}
	}
}
