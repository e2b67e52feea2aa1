package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/demo"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// shopCanaryDSL is a demo-scale version of the quickstart strategy:
// canary the personalized recommender at 25%, then roll it out in two
// steps. Durations are compressed so the test finishes in seconds.
const shopCanaryDSL = `
strategy "shop-canary" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice    = canary
        traffic     = 25%
        duration    = 2s
        min-samples = 5
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 500
            window    = 4s
            interval  = 500ms
        }
        on success      -> phase "rollout"
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 4
    }
    phase "rollout" {
        practice      = gradual-rollout
        steps         = 50%, 100%
        step-duration = 1s
        check "latency" {
            metric    = response_time
            aggregate = p95
            max       = 500
            window    = 2s
            interval  = 500ms
        }
        on success -> promote
        on failure -> rollback
    }
}
`

// TestDemoEndToEnd is the acceptance-path smoke test: boot demo mode,
// submit a canary → gradual-rollout strategy over HTTP, watch it reach
// promotion through the API, and verify the routing table, the SSE
// stream, and the health report reflect the live system.
func TestDemoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("demo smoke test runs real wall-clock phases")
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	shop, err := demo.Start(engine, table, store, demo.Config{
		RPS:            40,
		LatencyScale:   0.02,
		PopulationSize: 100,
		Seed:           7,
		Enact:          false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shop.Stop()
	s.SetDemo(func() any { return shop.Health() })

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	e := &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}

	// Let the load driver warm up so the canary has traffic to observe.
	time.Sleep(500 * time.Millisecond)

	code, body := e.do(http.MethodPost, "/v1/strategies", shopCanaryDSL)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	e.waitStatus("shop-canary", "succeeded", 45*time.Second)

	// Promotion must be visible in the routing table.
	_, body = e.do(http.MethodGet, "/v1/routes", "")
	var routes struct {
		Services map[string]RouteView `json:"services"`
	}
	if err := json.Unmarshal([]byte(body), &routes); err != nil {
		t.Fatal(err)
	}
	rec, ok := routes.Services["recommendation"]
	if !ok {
		t.Fatalf("no recommendation route: %s", body)
	}
	if len(rec.Backends) != 1 || rec.Backends[0].Version != "v2" {
		t.Errorf("post-promotion recommendation backends = %+v, want v2 only", rec.Backends)
	}

	// The SSE stream replays the whole run: both phases, rollout steps,
	// and the terminal status.
	resp, err := ts.Client().Get(ts.URL + "/v1/runs/shop-canary/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, terminal := readSSE(t, resp.Body, 10*time.Second)
	if terminal != `{"status":"succeeded"}` {
		t.Errorf("terminal frame = %s", terminal)
	}
	if events["phase-entered"] < 2 {
		t.Errorf("expected both phases in the stream, got %v", events)
	}
	if events["rollout-step"] < 2 {
		t.Errorf("expected rollout steps in the stream, got %v", events)
	}

	// Health reports the demo environment and its traffic.
	_, body = e.do(http.MethodGet, "/healthz", "")
	var h struct {
		Demo *demo.Health `json:"demo"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Demo == nil {
		t.Fatal("healthz should report the demo")
	}
	if h.Demo.RequestsServed == 0 {
		t.Error("demo served no requests")
	}
	if len(h.Demo.Services) == 0 || !strings.Contains(strings.Join(h.Demo.Services, ","), "recommendation") {
		t.Errorf("demo services = %v", h.Demo.Services)
	}
}
