package demo

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tracing"
)

// TestDemoEnact covers the --demo default path: Start itself
// launches the bundled strategy.
func TestDemoEnact(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real HTTP servers")
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// A strategy that aborts immediately keeps the test fast: we only
	// verify the enact path wires parse + launch.
	demo, err := Start(engine, table, store, Config{
		RPS:            10,
		LatencyScale:   0.02,
		PopulationSize: 20,
		Seed:           1,
		Enact:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Stop()

	run, ok := engine.Get("demo-canary-rollout")
	if !ok {
		t.Fatal("enact did not launch the demo strategy")
	}
	if run.Status() != bifrost.StatusRunning {
		t.Errorf("demo run status = %v", run.Status())
	}
	run.Abort()
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("aborted demo run never finished")
	}
}

// TestDemoFaultSurface verifies injected chaos is both effective (an
// error storm on the recommender really fails user requests) and
// observable: /healthz's demo section reports each configured fault
// with its window, live-vs-pending state, and how many calls it has
// perturbed.
func TestDemoFaultSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real HTTP servers")
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	injector, err := microsim.NewInjector(time.Now(), []microsim.Fault{
		{
			Kind: microsim.FaultErrorStorm, Service: "recommendation",
			Start: 0, Duration: time.Hour, ErrorRate: 1,
		},
		{
			Kind: microsim.FaultBlackout, Service: "catalog",
			Start: 2 * time.Hour, Duration: time.Hour,
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var logLines []string
	demo, err := Start(engine, table, store, Config{
		RPS:            60,
		LatencyScale:   0.02,
		PopulationSize: 50,
		Seed:           3,
		Faults:         injector,
		Logf:           func(format string, args ...any) { logLines = append(logLines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Stop()

	deadline := time.Now().Add(15 * time.Second)
	var h *Health
	for {
		h = demo.Health()
		if len(h.Faults) == 2 && h.Faults[0].Applied > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault never surfaced in health: %+v", h.Faults)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Snapshot orders active faults first: the storm is live, the
	// blackout is hours away.
	if h.Faults[0].Kind != "error-storm" || !h.Faults[0].Active {
		t.Errorf("first fault should be the active storm: %+v", h.Faults[0])
	}
	if h.Faults[1].Kind != "blackout" || h.Faults[1].Active {
		t.Errorf("second fault should be the pending blackout: %+v", h.Faults[1])
	}
	if h.Faults[0].Target != "recommendation" {
		t.Errorf("storm target = %q", h.Faults[0].Target)
	}

	// The forced failures are user-visible: the entry endpoint depends on
	// the recommender, so requests 500.
	resp, err := http.Get(demo.EntryURL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Errorf("entry request during a total recommender error storm returned %d", resp.StatusCode)
	}

	// The load generator announced its seed (satellite visibility).
	found := false
	for _, line := range logLines {
		if strings.Contains(line, "seed=3") {
			found = true
		}
	}
	if !found {
		t.Errorf("no seed line in demo logs: %q", logLines)
	}
}

// TestDemoWireTelemetry boots the demo with TelemetryURL aimed at the
// control plane's own API: the shop's metrics and spans must arrive in
// the store and collector exclusively through the binary ingestion
// endpoints, and /healthz must report the wire client's flushes.
func TestDemoWireTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real HTTP servers")
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	collector := tracing.NewLiveCollector(100_000)
	monitor := health.NewMonitor(collector, -1)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 500 * time.Millisecond,
		Topology:             monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{
		Engine: engine,
		Table:  table,
		Store:  store,
		Traces: collector,
		Health: monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	demo, err := Start(engine, table, store, Config{
		RPS:            60,
		LatencyScale:   0.02,
		PopulationSize: 50,
		Seed:           11,
		Enact:          false,
		Traces:         collector,
		TelemetryURL:   ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Stop()
	s.SetDemo(func() any { return demo.Health() })

	// The backends buffer telemetry into the wire client and flush at
	// the batch threshold (or at each 2s load chunk). Wait until both
	// telemetry kinds have crossed the wire.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if store.SeriesCount() > 0 && collector.SpanCount() > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if store.SeriesCount() == 0 {
		t.Fatal("no metric series arrived over the wire")
	}
	if collector.SpanCount() == 0 {
		t.Fatal("no spans arrived over the wire")
	}

	h := demo.Health()
	if h.Telemetry == nil {
		t.Fatal("demo health should report the wire-telemetry client")
	}
	if h.Telemetry.Flushes == 0 {
		t.Error("wire client reported zero flushes despite delivered telemetry")
	}
	if h.Telemetry.Errors != 0 {
		t.Errorf("wire client reported %d transport errors", h.Telemetry.Errors)
	}
}
