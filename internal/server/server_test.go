package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// fastDSL finishes in well under a second when response_time data for
// svc/v1 and svc/v2 is present.
const fastDSL = `
strategy "fast" {
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

// longDSL holds its phase for 30s so tests can observe and abort a live
// run.
const longDSL = `
strategy "long" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 50%
        duration = 30s
        on success -> promote
    }
}
`

type env struct {
	t      *testing.T
	ts     *httptest.Server
	table  *router.Table
	store  *metrics.Store
	engine *bifrost.Engine
	server *Server
}

func newEnv(t *testing.T) *env {
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
	s, err := New(Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}
}

// seedMetrics records healthy response times for both versions of svc
// so fastDSL's check passes.
func (e *env) seedMetrics() {
	now := time.Now()
	for i := 0; i < 10; i++ {
		e.store.Record("response_time", metrics.Scope{Service: "svc", Version: "v1"}, now, 20)
		e.store.Record("response_time", metrics.Scope{Service: "svc", Version: "v2"}, now, 25)
	}
}

func (e *env) do(method, path, body string) (int, string) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, strings.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// waitStatus polls the run until it reports the wanted status.
func (e *env) waitStatus(name, want string, timeout time.Duration) {
	e.t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		code, body := e.do(http.MethodGet, "/v1/runs/"+name, "")
		if code != http.StatusOK {
			e.t.Fatalf("GET run %s: status %d: %s", name, code, body)
		}
		var detail RunDetail
		if err := json.Unmarshal([]byte(body), &detail); err != nil {
			e.t.Fatal(err)
		}
		last = detail.Status
		if last == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	e.t.Fatalf("run %s never reached %q (last status %q)", name, want, last)
}

func TestSubmitStrategy(t *testing.T) {
	tests := []struct {
		name     string
		setup    func(e *env)
		body     string
		wantCode int
		wantSub  string
	}{
		{
			name:     "happy path",
			setup:    func(e *env) { e.seedMetrics() },
			body:     fastDSL,
			wantCode: http.StatusCreated,
			wantSub:  `"name": "fast"`,
		},
		{
			name:     "bad DSL",
			body:     `strategy "broken" {`,
			wantCode: http.StatusBadRequest,
			wantSub:  "bifrost",
		},
		{
			name:     "empty body",
			body:     "",
			wantCode: http.StatusBadRequest,
			wantSub:  "error",
		},
		{
			name:     "semantically invalid",
			body:     `strategy "x" { service="s" baseline="v1" candidate="v1" }`,
			wantCode: http.StatusBadRequest,
			wantSub:  "baseline and candidate",
		},
		{
			name:     "oversized body",
			body:     `strategy "big" { # ` + strings.Repeat("x", 1<<20) + "\n}",
			wantCode: http.StatusRequestEntityTooLarge,
			wantSub:  "larger than",
		},
		{
			name: "duplicate live run",
			setup: func(e *env) {
				if code, body := e.do(http.MethodPost, "/v1/strategies", longDSL); code != http.StatusCreated {
					e.t.Fatalf("priming submit: %d: %s", code, body)
				}
			},
			body:     longDSL,
			wantCode: http.StatusConflict,
			wantSub:  "already running",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := newEnv(t)
			if tt.setup != nil {
				tt.setup(e)
			}
			code, body := e.do(http.MethodPost, "/v1/strategies", tt.body)
			if code != tt.wantCode {
				t.Fatalf("status = %d, want %d; body: %s", code, tt.wantCode, body)
			}
			if !strings.Contains(body, tt.wantSub) {
				t.Errorf("body %q missing %q", body, tt.wantSub)
			}
		})
	}
}

func TestRunLifecycleToPromotion(t *testing.T) {
	e := newEnv(t)
	e.seedMetrics()
	code, body := e.do(http.MethodPost, "/v1/strategies", fastDSL)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	e.waitStatus("fast", "succeeded", 5*time.Second)

	// The audit trail includes phase entry and the finish marker.
	_, body = e.do(http.MethodGet, "/v1/runs/fast", "")
	for _, want := range []string{"phase-entered", "run-finished", `"canary"`} {
		if !strings.Contains(body, want) {
			t.Errorf("run detail missing %q: %s", want, body)
		}
	}

	// Promotion routes 100% of svc to the candidate.
	code, body = e.do(http.MethodGet, "/v1/routes", "")
	if code != http.StatusOK {
		t.Fatalf("routes: %d", code)
	}
	var routes struct {
		TableVersion uint64               `json:"tableVersion"`
		Services     map[string]RouteView `json:"services"`
	}
	if err := json.Unmarshal([]byte(body), &routes); err != nil {
		t.Fatal(err)
	}
	rv, ok := routes.Services["svc"]
	if !ok {
		t.Fatalf("no route for svc in %s", body)
	}
	if len(rv.Backends) != 1 || rv.Backends[0].Version != "v2" || rv.Backends[0].Weight != 1 {
		t.Errorf("post-promotion backends = %+v, want v2 at weight 1", rv.Backends)
	}
	if routes.TableVersion == 0 {
		t.Error("table version should have advanced")
	}

	// The run list includes the finished run.
	_, body = e.do(http.MethodGet, "/v1/runs", "")
	if !strings.Contains(body, `"fast"`) || !strings.Contains(body, `"succeeded"`) {
		t.Errorf("run list missing finished run: %s", body)
	}
}

func TestUnknownRun(t *testing.T) {
	e := newEnv(t)
	for _, tt := range []struct{ method, path string }{
		{http.MethodGet, "/v1/runs/ghost"},
		{http.MethodDelete, "/v1/runs/ghost"},
		{http.MethodGet, "/v1/runs/ghost/events"},
	} {
		code, body := e.do(tt.method, tt.path, "")
		if code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404; body: %s", tt.method, tt.path, code, body)
		}
		if !strings.Contains(body, "ghost") {
			t.Errorf("%s %s error should name the run: %s", tt.method, tt.path, body)
		}
	}
}

func TestAbortAndDoubleAbort(t *testing.T) {
	e := newEnv(t)
	if code, body := e.do(http.MethodPost, "/v1/strategies", longDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	code, body := e.do(http.MethodDelete, "/v1/runs/long", "")
	if code != http.StatusAccepted {
		t.Fatalf("abort = %d, want 202; body: %s", code, body)
	}
	e.waitStatus("long", "aborted", 5*time.Second)

	code, body = e.do(http.MethodDelete, "/v1/runs/long", "")
	if code != http.StatusConflict {
		t.Fatalf("double abort = %d, want 409; body: %s", code, body)
	}
	if !strings.Contains(body, "aborted") {
		t.Errorf("conflict body should report the terminal status: %s", body)
	}
}

func TestIngestMetrics(t *testing.T) {
	tests := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string
	}{
		{
			name: "happy path",
			body: `{"observations":[
				{"metric":"response_time","service":"api","version":"v1","value":12.5},
				{"metric":"response_time","service":"api","version":"v2","variant":"dark","value":14.0}]}`,
			wantCode: http.StatusAccepted,
			wantSub:  `"accepted": 2`,
		},
		{
			name:     "missing fields",
			body:     `{"observations":[{"metric":"","service":"api","version":"v1","value":1}]}`,
			wantCode: http.StatusBadRequest,
			wantSub:  "observation 0",
		},
		{
			name:     "malformed JSON",
			body:     `{"observations": [`,
			wantCode: http.StatusBadRequest,
			wantSub:  "decoding body",
		},
		{
			name:     "empty batch",
			body:     `{"observations": []}`,
			wantCode: http.StatusBadRequest,
			wantSub:  "no observations",
		},
		{
			name: "oversized batch",
			body: `{"observations":[{"metric":"` + strings.Repeat("m", 1<<20) +
				`","service":"api","version":"v1","value":1}]}`,
			wantCode: http.StatusRequestEntityTooLarge,
			wantSub:  "larger than",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := newEnv(t)
			code, body := e.do(http.MethodPost, "/v1/metrics", tt.body)
			if code != tt.wantCode {
				t.Fatalf("status = %d, want %d; body: %s", code, tt.wantCode, body)
			}
			if !strings.Contains(body, tt.wantSub) {
				t.Errorf("body %q missing %q", body, tt.wantSub)
			}
			if tt.wantCode == http.StatusAccepted {
				got, err := e.store.Query("response_time",
					metrics.Scope{Service: "api", Version: "v1"},
					time.Now().Add(-time.Minute), metrics.AggMean)
				if err != nil || got != 12.5 {
					t.Errorf("stored value = %v, %v; want 12.5", got, err)
				}
				got, err = e.store.Query("response_time",
					metrics.Scope{Service: "api", Version: "v2", Variant: "dark"},
					time.Now().Add(-time.Minute), metrics.AggMean)
				if err != nil || got != 14.0 {
					t.Errorf("dark-variant value = %v, %v; want 14", got, err)
				}
			}
		})
	}
}

func TestRoutesRendersRulesAndMirrors(t *testing.T) {
	e := newEnv(t)
	err := e.table.Set(router.Route{
		Service: "catalog",
		Rules: []router.Rule{
			{Name: "beta-users", Match: router.GroupMatcher{Group: "beta"}, Version: "v2"},
		},
		Backends:   []router.Backend{{Version: "v1", Weight: 0.9}, {Version: "v2", Weight: 0.1}},
		Mirrors:    []string{"v3"},
		StickySalt: "exp-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := e.do(http.MethodGet, "/v1/routes", "")
	if code != http.StatusOK {
		t.Fatalf("routes: %d", code)
	}
	for _, want := range []string{"beta-users", "group=beta", `"v3"`, "exp-1", "0.9"} {
		if !strings.Contains(body, want) {
			t.Errorf("routes body missing %q: %s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	e := newEnv(t)
	e.seedMetrics()
	// Thirty seconds late: older than the store's live seconds, buffered.
	e.store.Record("response_time", metrics.Scope{Service: "svc", Version: "v1"}, time.Now().Add(-30*time.Second), 20)
	code, body := e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Store.Series != 2 {
		t.Errorf("series = %d, want 2", h.Store.Series)
	}
	if st := h.Store; st.LiveBuckets < 6 || st.LateWrites != 1 || st.LateDropped != 0 || st != e.store.Stats() {
		t.Errorf("store = %+v, want two series of three buckets or more and one late write, as Store.Stats reports", st)
	}
	for _, key := range []string{`"liveBuckets"`, `"wideBuckets"`, `"sealedSeconds"`, `"lateWrites"`, `"lateFolds"`, `"lateDropped"`} {
		if !strings.Contains(body, key) {
			t.Errorf("healthz store object lacks %s: %s", key, body)
		}
	}
	if h.Router.TableVersion != e.table.Version() {
		t.Errorf("tableVersion = %d, want %d", h.Router.TableVersion, e.table.Version())
	}
	if strings.Contains(body, `"snapshotVersion"`) {
		t.Errorf("healthz reports the table version twice: %s", body)
	}
	if h.Demo != nil {
		t.Error("no demo attached, but demo health reported")
	}
}

// TestRoutesReportsSnapshotAndStoreCounts covers the data-plane
// introspection fields of /v1/routes: the published routing-snapshot
// version plus the metric store's series count.
func TestRoutesReportsSnapshotAndStoreCounts(t *testing.T) {
	e := newEnv(t)
	e.seedMetrics()
	if err := e.table.Set(router.Route{
		Service:  "catalog",
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	code, body := e.do(http.MethodGet, "/v1/routes", "")
	if code != http.StatusOK {
		t.Fatalf("routes: %d", code)
	}
	var view struct {
		TableVersion uint64 `json:"tableVersion"`
		StoreSeries  int    `json:"storeSeries"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.TableVersion != e.table.Version() || view.TableVersion == 0 {
		t.Errorf("tableVersion = %d, want %d", view.TableVersion, e.table.Version())
	}
	if strings.Contains(body, `"snapshotVersion"`) {
		t.Errorf("routes report the table version twice: %s", body)
	}
	if view.StoreSeries != e.store.SeriesCount() || view.StoreSeries == 0 {
		t.Errorf("storeSeries = %d, want %d", view.StoreSeries, e.store.SeriesCount())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New should reject a config without engine/table/store")
	}
}

// TestSSEStreamsRunEvents submits a run and reads its event stream to
// completion: phase entry, check results, and the terminal run-status
// frame must all arrive.
func TestSSEStreamsRunEvents(t *testing.T) {
	e := newEnv(t)
	e.seedMetrics()
	if code, body := e.do(http.MethodPost, "/v1/strategies", fastDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}

	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/runs/fast/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	events, terminal := readSSE(t, resp.Body, 10*time.Second)
	if terminal != `{"status":"succeeded"}` {
		t.Errorf("terminal frame = %s", terminal)
	}
	for _, want := range []string{"phase-entered", "check-result", "run-finished"} {
		if _, ok := events[want]; !ok {
			t.Errorf("stream missing event type %q (got %v)", want, events)
		}
	}
}

// readSSE consumes a server-sent event stream until the run-status
// frame, returning the observed event types and the terminal payload.
func readSSE(t *testing.T, body io.Reader, timeout time.Duration) (map[string]int, string) {
	t.Helper()
	type result struct {
		events   map[string]int
		terminal string
		err      error
	}
	ch := make(chan result, 1)
	go func() {
		events := make(map[string]int)
		scanner := bufio.NewScanner(body)
		current := ""
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				current = strings.TrimPrefix(line, "event: ")
				events[current]++
			case strings.HasPrefix(line, "data: ") && current == "run-status":
				ch <- result{events: events, terminal: strings.TrimPrefix(line, "data: ")}
				return
			}
		}
		ch <- result{events: events, err: fmt.Errorf("stream ended without run-status: %v", scanner.Err())}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.events, res.terminal
	case <-time.After(timeout):
		t.Fatal("timed out reading SSE stream")
		return nil, ""
	}
}
