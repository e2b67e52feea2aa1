package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/demo"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

// newTracingEnv is newEnv with the live topology pipeline wired in:
// bounded collector, monitor, engine assessor, and the span/health API.
func newTracingEnv(t *testing.T, settle time.Duration) (*env, *tracing.LiveCollector, *health.Monitor) {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	collector := tracing.NewLiveCollector(10_000)
	monitor := health.NewMonitor(collector, settle)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 50 * time.Millisecond,
		Topology:             monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 20 * time.Millisecond,
		Traces:            collector,
		Health:            monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}, collector, monitor
}

// spanBatch renders one trace (root plus callees) as a /v1/spans body.
func spanBatch(trace uint64, rootSvc, rootVer string, callees ...[2]string) string {
	var b strings.Builder
	b.WriteString(`{"spans":[`)
	fmt.Fprintf(&b, `{"traceId":%d,"spanId":%d,"service":%q,"version":%q,"endpoint":"GET /","durationMs":12}`,
		trace, trace*100, rootSvc, rootVer)
	for i, c := range callees {
		fmt.Fprintf(&b, `,{"traceId":%d,"spanId":%d,"parentId":%d,"service":%q,"version":%q,"endpoint":"GET /dep","durationMs":4}`,
			trace, trace*100+uint64(i)+1, trace*100, c[0], c[1])
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestIngestSpansAndRunHealth(t *testing.T) {
	e, _, _ := newTracingEnv(t, -1)
	e.seedMetrics()
	if code, body := e.do(http.MethodPost, "/v1/strategies", longDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	defer func() {
		e.do(http.MethodDelete, "/v1/runs/long", "")
		e.waitStatus("long", "aborted", 5*time.Second)
	}()

	// Two baseline users and one experimental user whose trace shows a
	// new downstream dependency of svc@v2.
	for i, batch := range []string{
		spanBatch(1, "svc", "v1"),
		spanBatch(2, "svc", "v1"),
		spanBatch(3, "svc", "v2", [2]string{"billing", "v1"}),
	} {
		code, body := e.do(http.MethodPost, "/v1/spans", batch)
		if code != http.StatusAccepted {
			t.Fatalf("spans %d: %d: %s", i, code, body)
		}
		var resp map[string]int
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		if resp["dropped"] != 0 {
			t.Fatalf("spans %d dropped: %+v", i, resp)
		}
	}

	code, body := e.do(http.MethodGet, "/v1/runs/long/health", "")
	if code != http.StatusOK {
		t.Fatalf("health: %d: %s", code, body)
	}
	var view health.AssessmentView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.BaselineTraces != 2 || view.CandidateTraces != 1 {
		t.Fatalf("traces = %d/%d, want 2/1", view.BaselineTraces, view.CandidateTraces)
	}
	if view.ChangesByClass["call-new-endpoint"] == 0 {
		t.Fatalf("no call-new-endpoint change: %+v", view.ChangesByClass)
	}

	// Rendered report form.
	code, body = e.do(http.MethodGet, "/v1/runs/long/health?format=report", "")
	if code != http.StatusOK || !strings.Contains(body, "topological difference") {
		t.Fatalf("report: %d: %s", code, body)
	}

	// Unknown runs 404.
	if code, _ := e.do(http.MethodGet, "/v1/runs/nope/health", ""); code != http.StatusNotFound {
		t.Fatalf("unknown run health: %d", code)
	}

	// /healthz reports the tracing pipeline.
	code, body = e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Tracing == nil {
		t.Fatal("healthz missing tracing section")
	}
	if h.Tracing.FoldedTraces != 3 || h.Tracing.MonitoredRuns != 1 {
		t.Errorf("tracing health = %+v", h.Tracing)
	}
	if h.Tracing.SpanCap != 10_000 {
		t.Errorf("span cap = %d", h.Tracing.SpanCap)
	}
}

func TestIngestSpansValidation(t *testing.T) {
	e, _, _ := newTracingEnv(t, -1)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty batch", `{"spans":[]}`, http.StatusBadRequest},
		{"not json", `]`, http.StatusBadRequest},
		{"missing ids", `{"spans":[{"service":"s","version":"v","endpoint":"e","durationMs":1}]}`, http.StatusBadRequest},
		{"missing service", `{"spans":[{"traceId":1,"spanId":2,"version":"v","endpoint":"e"}]}`, http.StatusBadRequest},
		{"ok", `{"spans":[{"traceId":1,"spanId":2,"service":"s","version":"v","endpoint":"e","durationMs":1}]}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		if code, body := e.do(http.MethodPost, "/v1/spans", tc.body); code != tc.want {
			t.Errorf("%s: %d (want %d): %s", tc.name, code, tc.want, body)
		}
	}
}

func TestSpansEndpointAbsentWithoutCollector(t *testing.T) {
	e := newEnv(t)
	code, _ := e.do(http.MethodPost, "/v1/spans", `{"spans":[]}`)
	if code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Fatalf("spans endpoint responded %d without a collector", code)
	}
	if code, _ := e.do(http.MethodGet, "/v1/runs/x/health", ""); code != http.StatusNotFound {
		t.Fatalf("health endpoint responded %d without a monitor", code)
	}
}

// demoTopologyDSL gates the recommendation v2 release on the structural
// comparison: version updates are expected, anything else — like v2's
// new dependency on the users service — trips the check and rolls the
// release back.
const demoTopologyDSL = `
strategy "rec-v2-structural" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice    = canary
        traffic     = 50%
        duration    = 20s
        check "structure" {
            kind       = topology
            min-traces = 5
            allow      = updated-callee-version, updated-caller-version, updated-version
            interval   = 250ms
        }
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 3
    }
}
`

// demoMetricDSL is the scalar twin: same release, same traffic, gated
// only on latency — blind to the structural change.
const demoMetricDSL = `
strategy "rec-v2-metric" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 50%
        duration = 1s
        check "latency" {
            metric    = response_time
            aggregate = mean
            max       = 1000
            window    = 10s
            interval  = 200ms
        }
        on success      -> promote
        on inconclusive -> retry
        max-retries = 10
    }
}
`

// TestDemoTopologyCheckRollsBack is the acceptance flow: under demo
// traffic, the strategy gating on `kind = topology` detects the
// candidate recommender's new users-service dependency and rolls back,
// while the metric-only strategy promotes the same release because its
// latency holds. Structural signals catch what scalar metrics miss.
func TestDemoTopologyCheckRollsBack(t *testing.T) {
	e, collector, _ := newTracingEnv(t, 50*time.Millisecond)
	shop, err := demo.Start(e.engine, e.table, e.store, demo.Config{
		RPS:          120,
		LatencyScale: 0.02,
		Seed:         7,
		Enact:        false,
		Traces:       collector,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shop.Stop()
	e.server.SetDemo(func() any { return shop.Health() })

	// Structural gate: rolls back on the new dependency.
	if code, body := e.do(http.MethodPost, "/v1/strategies", demoTopologyDSL); code != http.StatusCreated {
		t.Fatalf("submit structural: %d: %s", code, body)
	}
	e.waitStatus("rec-v2-structural", "rolled-back", 20*time.Second)

	run, _ := e.engine.Get("rec-v2-structural")
	var verdictDetail string
	for _, ev := range run.Events() {
		if ev.Type == bifrost.EventTopologyVerdict && ev.Outcome == bifrost.OutcomeFail {
			verdictDetail = ev.Detail
		}
	}
	if !strings.Contains(verdictDetail, "call-new-endpoint") ||
		!strings.Contains(verdictDetail, "users@v1") {
		t.Fatalf("failing verdict does not name the new dependency: %q", verdictDetail)
	}

	// The run's health surface shows the assessment that tripped it.
	code, body := e.do(http.MethodGet, "/v1/runs/rec-v2-structural/health", "")
	if code != http.StatusOK {
		t.Fatalf("health: %d: %s", code, body)
	}
	var view health.AssessmentView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if !view.Frozen || view.ChangesByClass["call-new-endpoint"] == 0 {
		t.Fatalf("assessment after rollback = %+v", view.ChangesByClass)
	}

	// Metric twin: same release passes the scalar gate.
	if code, body := e.do(http.MethodPost, "/v1/strategies", demoMetricDSL); code != http.StatusCreated {
		t.Fatalf("submit metric: %d: %s", code, body)
	}
	e.waitStatus("rec-v2-metric", "succeeded", 20*time.Second)
}
