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
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// newJournalEnv is newEnv with a write-ahead journal wired through
// engine and server.
func newJournalEnv(t *testing.T, jnl journal.Journal) *env {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table:                table,
		Store:                store,
		DefaultCheckInterval: 50 * time.Millisecond,
		Journal:              jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 20 * time.Millisecond,
		Journal:           jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}
}

func TestListRunsLaunchOrder(t *testing.T) {
	e := newEnv(t)
	e.seedMetrics()
	// Launch in an order that name-sorting would scramble. Each strategy
	// gets its own service: concurrent live runs on one service are
	// rejected (bifrost.ErrServiceBusy).
	for _, name := range []string{"zulu", "alpha", "mike"} {
		dsl := strings.Replace(longDSL, `strategy "long"`, fmt.Sprintf("strategy %q", name), 1)
		dsl = strings.Replace(dsl, `service   = "svc"`, fmt.Sprintf("service   = %q", "svc-"+name), 1)
		if code, body := e.do(http.MethodPost, "/v1/strategies", dsl); code != http.StatusCreated {
			t.Fatalf("submit %s: %d: %s", name, code, body)
		}
	}
	code, body := e.do(http.MethodGet, "/v1/runs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, body)
	}
	var resp struct {
		Runs []RunSummary `json:"items"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	want := []string{"zulu", "alpha", "mike"}
	if len(resp.Runs) != len(want) {
		t.Fatalf("listed %d runs", len(resp.Runs))
	}
	for i, r := range resp.Runs {
		if r.Name != want[i] {
			t.Errorf("runs[%d] = %q, want %q (launch order, not name order)", i, r.Name, want[i])
		}
	}
	for _, name := range want {
		e.do(http.MethodDelete, "/v1/runs/"+name, "")
	}
}

// TestServerServesRecoveredRun is the acceptance flow at the HTTP
// layer: a daemon dies mid-run; the next daemon recovers from the
// journal and serves the run's full pre-crash history — list, detail,
// and SSE replay — while the engine settles it without intervention.
func TestServerServesRecoveredRun(t *testing.T) {
	jnl := &journal.Memory{}
	e := newJournalEnv(t, jnl)
	e.seedMetrics()
	if code, body := e.do(http.MethodPost, "/v1/strategies", longDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	// Let the run journal its launch, phase entry, and some checks, then
	// "crash" (the first env is simply abandoned).
	deadline := time.Now().Add(5 * time.Second)
	for {
		run, ok := e.engine.Get("long")
		if ok && len(run.Events()) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never produced events")
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := jnl.Snapshot()
	preRun, _ := e.engine.Get("long")
	preEvents := len(preRun.Events())

	e2 := newJournalEnv(t, snap)
	e2.seedMetrics()
	rep, err := e2.engine.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Fatalf("report = %+v", rep)
	}

	// Detail view: full pre-crash history plus recovery events.
	code, body := e2.do(http.MethodGet, "/v1/runs/long", "")
	if code != http.StatusOK {
		t.Fatalf("get run: %d: %s", code, body)
	}
	var detail RunDetail
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatal(err)
	}
	if !detail.Recovered {
		t.Error("run not marked recovered")
	}
	if len(detail.EventLog) < preEvents {
		t.Errorf("served %d events, pre-crash log had %d", len(detail.EventLog), preEvents)
	}
	if detail.EventLog[0].Type != string(bifrost.EventRunLaunched) {
		t.Errorf("first event = %s, want run-launched", detail.EventLog[0].Type)
	}

	// SSE: the stream replays the recovered history before going live.
	req, err := http.NewRequest(http.MethodGet, e2.ts.URL+"/v1/runs/long/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e2.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	var stream strings.Builder
	streamDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(streamDeadline) &&
		!strings.Contains(stream.String(), string(bifrost.EventPhaseEntered)) {
		n, err := resp.Body.Read(buf)
		stream.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	for _, want := range []string{"run-launched", "phase-entered", "traffic-applied"} {
		if !strings.Contains(stream.String(), want) {
			t.Errorf("SSE replay missing %q", want)
		}
	}

	// Settle the run so the env tears down cleanly.
	e2.do(http.MethodDelete, "/v1/runs/long", "")
	e2.waitStatus("long", "aborted", 5*time.Second)
}

func TestHealthzReportsJournal(t *testing.T) {
	jnl := &journal.Memory{}
	e := newJournalEnv(t, jnl)
	e.seedMetrics()
	if code, body := e.do(http.MethodPost, "/v1/strategies", fastDSL); code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", code, body)
	}
	e.waitStatus("fast", "succeeded", 5*time.Second)

	code, body := e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Journal == nil {
		t.Fatal("healthz missing journal section")
	}
	if h.Journal.Records == 0 {
		t.Error("journal records = 0 after a full run")
	}
	if h.Engine.JournalErrors != 0 {
		t.Errorf("journal errors = %d", h.Engine.JournalErrors)
	}
}

// TestHealthzJournalObject pins /healthz's journal object byte for
// byte: its field names and order are the API, whatever type backs it.
func TestHealthzJournalObject(t *testing.T) {
	jnl := &journal.Memory{}
	for _, rec := range []string{"abc", "de"} {
		if err := jnl.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	e := newJournalEnv(t, jnl)
	code, body := e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d: %s", code, body)
	}
	var h struct{ Journal json.RawMessage }
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	const want = `{
    "records": 2,
    "bytes": 5,
    "segments": 1,
    "syncs": 0,
    "truncations": 0
  }`
	if string(h.Journal) != want {
		t.Errorf("journal object %s, want %s", h.Journal, want)
	}
}
