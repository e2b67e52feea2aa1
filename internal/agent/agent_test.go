package agent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/wire"
)

// canaryDSL promotes svc v2 after a 200ms canary phase with a passing
// latency check — the phase transition whose fleet-wide propagation the
// e2e test observes.
const canaryDSL = `
strategy "edge-canary" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 50%
        duration = 200ms
        check "latency" {
            metric    = response_time
            aggregate = mean
            max       = 100
            window    = 1m
            interval  = 100ms
        }
        on success -> promote
        on failure -> rollback
    }
}
`

type plane struct {
	t      *testing.T
	ts     *httptest.Server
	table  *router.Table
	store  *metrics.Store
	engine *bifrost.Engine
	hub    *fleet.Hub
}

// newPlane boots a control plane (engine + table + fleet hub behind a
// real HTTP server) the agents under test connect to.
func newPlane(t *testing.T) *plane {
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
	hub := fleet.New(fleet.Config{Table: table, HeartbeatInterval: 50 * time.Millisecond})
	t.Cleanup(hub.Close)
	s, err := server.New(server.Config{Engine: engine, Table: table, Store: store, Fleet: hub})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &plane{t: t, ts: ts, table: table, store: store, engine: engine, hub: hub}
}

func (p *plane) newAgent(id string) *Agent {
	p.t.Helper()
	a, err := New(Config{
		ID:                id,
		ControlPlane:      p.ts.URL,
		HeartbeatInterval: 25 * time.Millisecond,
		LeaseTTL:          250 * time.Millisecond,
		ReconnectMin:      10 * time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
	})
	if err != nil {
		p.t.Fatal(err)
	}
	a.Start()
	p.t.Cleanup(func() { _ = a.Close() })
	return a
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func svcRoute(weightV1 float64) router.Route {
	return router.Route{
		Service: "svc",
		Backends: []router.Backend{
			{Version: "v1", Weight: weightV1},
			{Version: "v2", Weight: 1 - weightV1},
		},
	}
}

func TestThreeAgentsConvergeOnMutations(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	agents := []*Agent{p.newAgent("a1"), p.newAgent("a2"), p.newAgent("a3")}

	converged := func(v uint64) func() bool {
		return func() bool {
			for _, a := range agents {
				if a.Version() != v || a.Table().String() != p.table.String() {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, "initial sync", converged(p.table.Version()))

	// A stream of mutations — each one a phase-transition-shaped change.
	for i := 0; i < 5; i++ {
		if err := p.table.SetWeights("svc", []router.Backend{
			{Version: "v1", Weight: float64(10-i) / 10},
			{Version: "v2", Weight: float64(i) / 10},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.table.Set(router.Route{
		Service:  "checkout",
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
		Mirrors:  []string{"v2"},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-mutation convergence", converged(p.table.Version()))

	// The registry sees all three connected, lag 0, once heartbeats land.
	waitFor(t, "registry lag settle", func() bool {
		agents := p.hub.Agents()
		if len(agents) != 3 {
			return false
		}
		for _, st := range agents {
			if !st.Connected || st.Lag != 0 || st.Stale {
				return false
			}
		}
		return true
	})
}

func TestAgentFailsStaticWhenControlPlaneDies(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(0.7)); err != nil {
		t.Fatal(err)
	}
	a := p.newAgent("edge-1")
	waitFor(t, "sync", func() bool { return a.Version() == p.table.Version() })
	wantTable := a.Table().String()

	// Kill the control plane mid-lease.
	p.hub.Close()
	p.ts.CloseClientConnections()
	p.ts.Close()

	// The agent keeps serving its last snapshot: Resolve still answers
	// from the applied table even though the brain is gone.
	waitFor(t, "disconnect", func() bool { return !a.Connected() })
	if got := a.Table().String(); got != wantTable {
		t.Fatalf("table changed after partition:\n%s\nwant\n%s", got, wantTable)
	}
	for i := 0; i < 100; i++ {
		d, err := a.Table().Resolve("svc", &router.Request{UserID: fmt.Sprintf("u%d", i)})
		if err != nil {
			t.Fatalf("resolve %d failed while partitioned: %v", i, err)
		}
		if d.Version != "v1" && d.Version != "v2" {
			t.Fatalf("resolve %d: version %q", i, d.Version)
		}
	}
	// And it surfaces the staleness on its own health endpoint once the
	// lease (250ms here) expires.
	waitFor(t, "stale flag", a.Stale)
	h := a.Health()
	if !h.Stale || h.Connected || h.Version != p.table.Version() {
		t.Fatalf("health = %+v", h)
	}
}

// TestFiftyAgentsFollowEveryTransition holds fleet-scale propagation:
// twenty phase-transition-shaped weight shifts, each of which all fifty
// agents must apply within a second (a shared-runner bound; locally a
// round takes a few milliseconds).
func TestFiftyAgentsFollowEveryTransition(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, 50)
	for i := range agents {
		agents[i] = p.newAgent(fmt.Sprintf("edge-%02d", i))
	}
	waitFor(t, "initial sync", func() bool {
		for _, a := range agents {
			if a.Version() != p.table.Version() {
				return false
			}
		}
		return true
	})
	for round := 0; round < 20; round++ {
		w := float64(round%10+1) / 20 // 0.05 .. 0.50 candidate share
		start := time.Now()
		if err := p.table.SetWeights("svc", []router.Backend{
			{Version: "v1", Weight: 1 - w}, {Version: "v2", Weight: w},
		}); err != nil {
			t.Fatal(err)
		}
		want := p.table.Version()
		for _, a := range agents {
			for a.Version() != want {
				if time.Since(start) > time.Second {
					t.Fatalf("round %d: agent %s at version %d, want %d after 1s",
						round, a.Health().ID, a.Version(), want)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
}

func TestAgentReconnectsAndCatchesUp(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	a := p.newAgent("edge-1")
	waitFor(t, "sync", func() bool { return a.Version() == p.table.Version() })

	// Cut the TCP connections (server stays up): the agent must
	// reconnect and converge on mutations made while it was dark.
	p.ts.CloseClientConnections()
	if err := p.table.SetWeights("svc", []router.Backend{
		{Version: "v1", Weight: 0.4}, {Version: "v2", Weight: 0.6},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reconnect convergence", func() bool {
		return a.Version() == p.table.Version() && a.Table().String() == p.table.String()
	})
}

// TestCanaryTransitionPropagates is the in-process e2e: a real Bifrost
// run enacts a canary strategy on the control plane's table, and the
// fleet converges on every phase of it — the distributed version of the
// paper's "middleware reconfigures the proxies" loop.
func TestCanaryTransitionPropagates(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 10; i++ {
		p.store.Record("response_time", metrics.Scope{Service: "svc", Version: "v1"}, now, 20)
		p.store.Record("response_time", metrics.Scope{Service: "svc", Version: "v2"}, now, 25)
	}
	agents := []*Agent{p.newAgent("a1"), p.newAgent("a2"), p.newAgent("a3")}
	waitFor(t, "initial sync", func() bool {
		for _, a := range agents {
			if a.Version() != p.table.Version() {
				return false
			}
		}
		return true
	})

	strategy, err := bifrost.ParseStrategy(canaryDSL)
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.engine.Launch(strategy)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "run completion", func() bool { return run.Status() != bifrost.StatusRunning })
	if run.Status() != bifrost.StatusSucceeded {
		t.Fatalf("run status = %s, events: %+v", run.Status(), run.Events())
	}

	// Promotion happened on the control plane; the whole fleet must land
	// on the same final table (candidate promoted).
	waitFor(t, "post-promotion convergence", func() bool {
		for _, a := range agents {
			if a.Version() != p.table.Version() || a.Table().String() != p.table.String() {
				return false
			}
		}
		return true
	})
	d, err := agents[0].Table().Resolve("svc", &router.Request{UserID: "u1"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != "v2" {
		t.Fatalf("post-promotion resolve = %q, want v2", d.Version)
	}
}

func TestAgentResolveEndpointAndHealth(t *testing.T) {
	p := newPlane(t)
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	a := p.newAgent("edge-1")
	waitFor(t, "sync", func() bool { return a.Version() == p.table.Version() })

	as := httptest.NewServer(a.Handler())
	defer as.Close()

	resp, err := http.Get(as.URL + "/v1/resolve?service=svc&user=u1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rv struct {
		Version      string `json:"version"`
		TableVersion uint64 `json:"tableVersion"`
		Stale        bool   `json:"stale"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		t.Fatal(err)
	}
	if rv.Version != "v1" || rv.TableVersion != p.table.Version() || rv.Stale {
		t.Fatalf("resolve view = %+v", rv)
	}
	if a.resolves.Load() != 1 {
		t.Fatalf("resolves = %d", a.resolves.Load())
	}

	// Unknown service is a gateway error, not a counter bump.
	resp2, err := http.Get(as.URL + "/v1/resolve?service=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown service status = %s", resp2.Status)
	}
	if a.resolves.Load() != 1 {
		t.Fatalf("resolves = %d after failed resolve", a.resolves.Load())
	}

	resp3, err := http.Get(as.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var h HealthView
	if err := json.NewDecoder(resp3.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.ID != "edge-1" || !h.Connected || h.Stale || h.Resolves != 1 {
		t.Fatalf("health = %+v", h)
	}
}

func TestAgentProxyForwards(t *testing.T) {
	p := newPlane(t)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "v1:%s", r.URL.Path)
	}))
	defer upstream.Close()
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	a := p.newAgent("edge-1")
	waitFor(t, "sync", func() bool { return a.Version() == p.table.Version() })
	if _, err := a.RegisterProxy("svc", map[string]string{"v1": upstream.URL, "v2": upstream.URL}); err != nil {
		t.Fatal(err)
	}

	as := httptest.NewServer(a.Handler())
	defer as.Close()
	resp, err := http.Get(as.URL + "/proxy/svc/items/42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "v1:/items/42" {
		t.Fatalf("proxied body = %q", body)
	}
	if a.resolves.Load() == 0 {
		t.Fatal("proxy path did not count resolves")
	}

	resp2, err := http.Get(as.URL + "/proxy/ghost/x")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted proxy status = %s", resp2.Status)
	}
}

// TestAgentNoRouteAnswers502: a service the agent's table has no route
// for — never routed, or removed by the control plane, as a restarted
// control plane without --data-dir removes everything — is a gateway
// error at the edge. The mounted proxy and /v1/resolve both answer 502
// naming router.ErrNoRoute, the upstream is never called, and neither
// counts a resolve.
func TestAgentNoRouteAnswers502(t *testing.T) {
	p := newPlane(t)
	var hits atomic.Int32
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer upstream.Close()
	if err := p.table.Set(svcRoute(1)); err != nil {
		t.Fatal(err)
	}
	a := p.newAgent("edge-1")
	waitFor(t, "sync", func() bool { return a.Version() == p.table.Version() })
	for _, service := range []string{"svc", "unrouted"} {
		if _, err := a.RegisterProxy(service, map[string]string{"v1": upstream.URL, "v2": upstream.URL}); err != nil {
			t.Fatal(err)
		}
	}
	v := p.table.Version()
	if err := p.table.ApplyDelta(router.TableDelta{FromVersion: v, ToVersion: v + 1, Removes: []string{"svc"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the removal", func() bool { return a.Version() == p.table.Version() })

	as := httptest.NewServer(a.Handler())
	defer as.Close()
	for _, path := range []string{"/proxy/svc/items/42", "/proxy/unrouted/x", "/v1/resolve?service=svc"} {
		resp, err := http.Get(as.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), router.ErrNoRoute.Error()) {
			t.Errorf("GET %s = %s %q, want 502 naming %q", path, resp.Status, body, router.ErrNoRoute)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("upstream called %d times for services without a route", n)
	}
}

// TestReconnectBackoff checks the backoff without waiting it out: the
// cap defaults to no less than the floor, the delay doubles over
// attempts that applied nothing, and a stream that applied a frame
// starts it again from the floor.
func TestReconnectBackoff(t *testing.T) {
	defaults := []struct {
		min, max         time.Duration
		wantMin, wantMax time.Duration
	}{
		{0, 0, 100 * time.Millisecond, 5 * time.Second},
		{time.Second, 0, time.Second, 5 * time.Second},
		{10 * time.Second, 0, 10 * time.Second, 10 * time.Second},
		{3 * time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second},
		{time.Second, 2 * time.Second, time.Second, 2 * time.Second},
	}
	for _, tt := range defaults {
		a, err := New(Config{ID: "a", ControlPlane: "http://127.0.0.1:1", ReconnectMin: tt.min, ReconnectMax: tt.max})
		if err != nil {
			t.Fatal(err)
		}
		if a.cfg.ReconnectMin != tt.wantMin || a.cfg.ReconnectMax != tt.wantMax {
			t.Errorf("ReconnectMin %s, ReconnectMax %s: bounds %s..%s, want %s..%s",
				tt.min, tt.max, a.cfg.ReconnectMin, a.cfg.ReconnectMax, tt.wantMin, tt.wantMax)
		}
	}

	a, err := New(Config{ID: "a", ControlPlane: "http://127.0.0.1:1",
		ReconnectMin: 100 * time.Millisecond, ReconnectMax: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	steps := []struct {
		applied bool
		want    time.Duration
	}{
		{false, ms(100)}, {false, ms(200)}, {false, ms(400)}, {false, ms(800)},
		{false, ms(1000)}, {false, ms(1000)},
		{true, ms(100)}, // a healthy stream ended: back to the floor
		{false, ms(200)},
		{true, ms(100)},
	}
	var delay time.Duration
	for i, s := range steps {
		if delay = a.reconnectDelay(delay, s.applied); delay != s.want {
			t.Fatalf("attempt %d (applied %v): delay %s, want %s", i+1, s.applied, delay, s.want)
		}
	}
}

// TestFollowReportsApplied: a watch stream counts as healthy, and so
// resets the backoff, once it applied any frame; one that broke before
// its first frame applied did not.
func TestFollowReportsApplied(t *testing.T) {
	encodeSnapshot := func(version uint64) []byte {
		var e wire.SnapshotEncoder
		frame, err := e.Encode(router.TableSnapshot{Version: version, Routes: []router.Route{svcRoute(0.9)}})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(frame)
	}
	encodeDelta := func(from uint64) []byte {
		var e wire.DeltaEncoder
		frame, err := e.Encode(router.TableDelta{FromVersion: from, ToVersion: from + 1, Upserts: []router.Route{svcRoute(0.5)}})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(frame)
	}
	tests := []struct {
		name        string
		stream      []byte
		wantApplied bool
		wantVersion uint64
		wantSkews   uint64
	}{
		{"snapshot, then the stream ends", encodeSnapshot(7), true, 7, 0},
		{"snapshot and delta", append(encodeSnapshot(7), encodeDelta(7)...), true, 8, 0},
		{"heartbeat only", wire.EncodeHeartbeat(3), true, 0, 0},
		{"snapshot, then a skewed delta", append(encodeSnapshot(7), encodeDelta(9)...), true, 7, 1},
		{"a skewed delta first", encodeDelta(9), false, 0, 1},
		{"cut in the first frame", encodeSnapshot(7)[:20], false, 0, 0},
		{"nothing", nil, false, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := New(Config{ID: "a", ControlPlane: "http://127.0.0.1:1"})
			if err != nil {
				t.Fatal(err)
			}
			applied, err := a.follow(bytes.NewReader(tt.stream), "", time.NewTimer(time.Hour))
			if err == nil {
				t.Fatal("follow returned without an error")
			}
			if applied != tt.wantApplied || a.Version() != tt.wantVersion || a.skews.Load() != tt.wantSkews {
				t.Errorf("applied %v, version %d, skews %d (%v); want %v, %d, %d",
					applied, a.Version(), a.skews.Load(), err, tt.wantApplied, tt.wantVersion, tt.wantSkews)
			}
		})
	}
}

// TestAgentResyncsAfterControlPlaneRestart: a restarted control plane
// numbers its tables from zero again, so the version an agent holds can
// name a different table there. The agent must take the new process's
// table, not keep routes it no longer has.
func TestAgentResyncsAfterControlPlaneRestart(t *testing.T) {
	before, after := newPlane(t), newPlane(t)
	if err := before.table.Set(router.Route{Service: "x", Backends: []router.Backend{{Version: "v1", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := after.table.Set(router.Route{Service: "y", Backends: []router.Backend{{Version: "v1", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if before.table.Version() != 1 || after.table.Version() != 1 {
		t.Fatalf("versions %d and %d, want both 1", before.table.Version(), after.table.Version())
	}
	var current atomic.Pointer[http.Handler]
	current.Store(&before.ts.Config.Handler)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	p := &plane{t: t, ts: ts}
	a := p.newAgent("edge")
	waitFor(t, "the agent to hold the first table", func() bool { return a.Version() == 1 })

	current.Store(&after.ts.Config.Handler)
	ts.CloseClientConnections()
	waitFor(t, "the agent to hold the restarted table", func() bool {
		services := a.Table().Services()
		return len(services) == 1 && services[0] == "y"
	})
}

// TestAgentTakesRestartedEmptyTable: a restarted control plane that has
// installed no route sits at version 0, its table empty. Its snapshot is
// authoritative: an agent holding the old process's routes takes the
// empty table, and the new process's registry shows the agent at its
// own epoch's version 0, not at the old process's version 2 with no lag.
func TestAgentTakesRestartedEmptyTable(t *testing.T) {
	before, after := newPlane(t), newPlane(t)
	for _, weight := range []float64{1, 0.5} {
		if err := before.table.Set(router.Route{Service: "svc-a", Backends: []router.Backend{
			{Version: "v1", Weight: weight}, {Version: "v2", Weight: 1 - weight}}}); err != nil {
			t.Fatal(err)
		}
	}
	var current atomic.Pointer[http.Handler]
	current.Store(&before.ts.Config.Handler)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	p := &plane{t: t, ts: ts}
	a := p.newAgent("edge")
	waitFor(t, "the agent to hold svc-a at version 2", func() bool { return a.Version() == 2 })

	current.Store(&after.ts.Config.Handler)
	ts.CloseClientConnections()
	waitFor(t, "the agent to hold the restarted control plane's empty table", func() bool {
		return len(a.Table().Services()) == 0
	})
	if v := a.Version(); v != 0 {
		t.Fatalf("agent at version %d, want the restarted control plane's 0", v)
	}
	waitFor(t, "/v1/agents to show the agent on the restarted control plane's table", func() bool {
		resp, err := http.Get(ts.URL + "/v1/agents")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Items []fleet.AgentState }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return len(out.Items) == 1 && out.Items[0].ID == "edge" && out.Items[0].AppliedVersion == 0 &&
			out.Items[0].Epoch == after.hub.Epoch() && out.Items[0].Lag == 0
	})
}

// TestAgentDropsSilentStream: a watch stream that stays open but sends
// nothing for a lease is cut, and the agent watches again.
func TestAgentDropsSilentStream(t *testing.T) {
	var e wire.SnapshotEncoder
	frame, err := e.Encode(router.TableSnapshot{Version: 1, Routes: []router.Route{svcRoute(0.9)}})
	if err != nil {
		t.Fatal(err)
	}
	var watches atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/routing/watch" {
			return
		}
		watches.Add(1)
		w.Write(frame)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	a, err := New(Config{ID: "edge", ControlPlane: ts.URL, LeaseTTL: 200 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(func() { _ = a.Close() })
	for deadline := time.Now().Add(2 * time.Second); watches.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d watch requests in 2s; a silent stream must be dropped after its 200ms lease", watches.Load())
		}
	}
}
