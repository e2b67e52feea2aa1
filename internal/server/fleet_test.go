package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/wire"
)

// newFleetEnv is newEnv plus a fleet hub mounted on the server.
func newFleetEnv(t *testing.T) (*env, *fleet.Hub) {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := fleet.New(fleet.Config{Table: table, HeartbeatInterval: time.Hour})
	t.Cleanup(hub.Close)
	s, err := New(Config{
		Engine: engine,
		Table:  table,
		Store:  store,
		Fleet:  hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}, hub
}

func TestRoutingWatchStreamsFrames(t *testing.T) {
	e, _ := newFleetEnv(t)
	if err := e.table.Set(router.Route{
		Service:  "svc",
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(e.ts.URL + "/v1/routing/watch?agent=a1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.StreamContentType {
		t.Fatalf("Content-Type = %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	frame, err := wire.ReadFrame(br, nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Kind(frame) != wire.KindSnapshot {
		t.Fatalf("first frame kind = %d, want snapshot", wire.Kind(frame))
	}
	replica := router.NewTable()
	var sd wire.SnapshotDecoder
	snap, err := sd.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if replica.String() != e.table.String() {
		t.Fatalf("replica = %q, want %q", replica.String(), e.table.String())
	}

	// A table mutation shows up as a delta frame on the live stream.
	if err := e.table.SetWeights("svc", []router.Backend{
		{Version: "v1", Weight: 0.5}, {Version: "v2", Weight: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	frame, err = wire.ReadFrame(br, frame, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Kind(frame) != wire.KindDelta {
		t.Fatalf("second frame kind = %d, want delta", wire.Kind(frame))
	}
	var dd wire.DeltaDecoder
	delta, err := dd.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if replica.String() != e.table.String() || replica.Version() != e.table.Version() {
		t.Fatalf("replica diverged after delta:\n%s\nwant\n%s", replica.String(), e.table.String())
	}
}

func TestRoutingWatchRequiresAgentID(t *testing.T) {
	e, _ := newFleetEnv(t)
	resp, err := http.Get(e.ts.URL + "/v1/routing/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}

func TestAgentHeartbeatAndRegistry(t *testing.T) {
	e, hub := newFleetEnv(t)
	if err := e.table.Set(router.Route{
		Service:  "svc",
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// Wait for the hub to publish version 1 so lag math is stable.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Version() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hub never published")
		}
		time.Sleep(time.Millisecond)
	}

	// A heartbeat names the epoch its version is from: the version
	// counts only as one of this process's tables.
	hb := Heartbeat{ID: "edge-1", Addr: "10.0.0.1:7080", Version: 1, Epoch: hub.Epoch(), Resolves: 42}
	body, _ := json.Marshal(hb)
	resp, err := http.Post(e.ts.URL+"/v1/agents/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("heartbeat status = %s", resp.Status)
	}
	var ack struct {
		CurrentVersion uint64 `json:"currentVersion"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.CurrentVersion != 1 {
		t.Fatalf("ack currentVersion = %d", ack.CurrentVersion)
	}

	resp2, err := http.Get(e.ts.URL + "/v1/agents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var listing struct {
		CurrentVersion uint64             `json:"currentVersion"`
		Agents         []fleet.AgentState `json:"items"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.CurrentVersion != 1 || len(listing.Agents) != 1 {
		t.Fatalf("listing = %+v", listing)
	}
	a := listing.Agents[0]
	if a.ID != "edge-1" || a.AppliedVersion != 1 || a.Epoch != hub.Epoch() || a.Lag != 0 || a.Resolves != 42 {
		t.Fatalf("agent = %+v", a)
	}
}

func TestHeartbeatRejectsMissingID(t *testing.T) {
	e, _ := newFleetEnv(t)
	resp, err := http.Post(e.ts.URL+"/v1/agents/heartbeat", "application/json",
		bytes.NewReader([]byte(`{"version": 3}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp.Status)
	}
}

func TestHealthReportsFleet(t *testing.T) {
	e, _ := newFleetEnv(t)
	hb := Heartbeat{ID: "edge-1", Version: 0, Stale: true}
	body, _ := json.Marshal(hb)
	resp, err := http.Post(e.ts.URL+"/v1/agents/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp2, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h Health
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Fleet == nil {
		t.Fatal("healthz missing fleet section")
	}
	if h.Fleet.Agents != 1 || h.Fleet.StaleAgents != 1 {
		t.Fatalf("fleet health = %+v", h.Fleet)
	}
}

// TestFleetEndpointsAbsentWithoutHub pins the optional wiring: a server
// built without a hub must not expose the fleet surface.
func TestFleetEndpointsAbsentWithoutHub(t *testing.T) {
	e := newEnv(t)
	resp, err := http.Get(e.ts.URL + "/v1/agents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %s, want 404", resp.Status)
	}
}
