package main

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
)

const validStrategy = `
strategy "demo" {
    service = "svc"
    baseline = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic = 5%
        duration = 5m
        on success -> promote
    }
}
`

func writeStrategy(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.exp")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateAndShow(t *testing.T) {
	path := writeStrategy(t, validStrategy)
	if err := run([]string{"validate", path}, io.Discard); err != nil {
		t.Errorf("validate: %v", err)
	}
	if err := run([]string{"show", path}, io.Discard); err != nil {
		t.Errorf("show: %v", err)
	}
	if err := run([]string{"fmt", path}, io.Discard); err != nil {
		t.Errorf("fmt: %v", err)
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing args should fail")
	}
	if err := run([]string{"validate", "/nonexistent/file.exp"}, io.Discard); err == nil {
		t.Error("missing file should fail")
	}
	bad := writeStrategy(t, `strategy "x" {`)
	if err := run([]string{"validate", bad}, io.Discard); err == nil {
		t.Error("invalid DSL should fail")
	}
	good := writeStrategy(t, validStrategy)
	if err := run([]string{"frobnicate", good}, io.Discard); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{"events"}, io.Discard); err == nil {
		t.Error("events without a run name should fail")
	}
	if err := run([]string{"runs", "extra"}, io.Discard); err == nil {
		t.Error("runs with positional arguments should fail")
	}
}

// startDaemon boots an in-process control plane with one finished run
// and returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	table := router.NewTable()
	store := metrics.NewStore(0)
	jnl := &journal.Memory{}
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{Engine: engine, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Engine: engine, Table: table, Store: store, Journal: jnl, Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := bifrost.ParseStrategy(validStrategy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.Launch(strategy)
	if err != nil {
		t.Fatal(err)
	}
	run.Abort()
	<-run.Done()
	// One live run and one queued submission behind it, so the schedule
	// and queue subcommands have something to show.
	holding := func(name string) *bifrost.Strategy {
		s, err := bifrost.ParseStrategy(strings.Replace(validStrategy,
			`strategy "demo"`, fmt.Sprintf("strategy %q", name), 1))
		if err != nil {
			t.Fatal(err)
		}
		s.Phases[0].Duration = time.Hour
		return s
	}
	if res, err := sched.Submit(holding("live")); err != nil || res.Queued {
		t.Fatalf("submit live: %+v, %v", res, err)
	}
	if res, err := sched.Submit(holding("waiting")); err != nil || !res.Queued {
		t.Fatalf("submit waiting: %+v, %v", res, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunsAndEventsOverHTTP(t *testing.T) {
	url := startDaemon(t)

	var runsOut strings.Builder
	if err := run([]string{"runs", "--addr", url}, &runsOut); err != nil {
		t.Fatalf("runs: %v", err)
	}
	if !strings.Contains(runsOut.String(), "demo") || !strings.Contains(runsOut.String(), "aborted") {
		t.Errorf("runs output missing run row:\n%s", runsOut.String())
	}

	// The --addr=URL form must work too.
	if err := run([]string{"runs", "--addr=" + url}, io.Discard); err != nil {
		t.Errorf("runs with --addr= form: %v", err)
	}

	var eventsOut strings.Builder
	if err := run([]string{"events", "demo", "--addr=" + url}, &eventsOut); err != nil {
		t.Fatalf("events: %v", err)
	}
	for _, want := range []string{"run-launched", "traffic-applied", "run-finished"} {
		if !strings.Contains(eventsOut.String(), want) {
			t.Errorf("events output missing %q:\n%s", want, eventsOut.String())
		}
	}

	if err := run([]string{"events", "ghost", "--addr", url}, io.Discard); err == nil {
		t.Error("events for unknown run should fail")
	}
	if err := run([]string{"runs", "--addr", "http://127.0.0.1:1"}, io.Discard); err == nil {
		t.Error("unreachable daemon should fail")
	}
}

func TestScheduleAndQueueOverHTTP(t *testing.T) {
	url := startDaemon(t)

	var schedOut strings.Builder
	if err := run([]string{"schedule", "--addr", url}, &schedOut); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	for _, want := range []string{"capacity 80%, max-concurrent 4\n", "running (1)", "live", "queued (1)", "waiting", "svc"} {
		if !strings.Contains(schedOut.String(), want) {
			t.Errorf("schedule output missing %q:\n%s", want, schedOut.String())
		}
	}
	for _, gone := range []string{"slot", "fitness"} {
		if strings.Contains(schedOut.String(), gone) {
			t.Errorf("schedule output still mentions %q:\n%s", gone, schedOut.String())
		}
	}
	// The Gantt chart section charts both experiments.
	if !strings.Contains(schedOut.String(), "|") {
		t.Errorf("schedule output missing the Gantt chart:\n%s", schedOut.String())
	}

	var queueOut strings.Builder
	if err := run([]string{"queue", "--addr=" + url}, &queueOut); err != nil {
		t.Fatalf("queue: %v", err)
	}
	if !strings.Contains(queueOut.String(), "waiting") || !strings.Contains(queueOut.String(), "service") {
		t.Errorf("queue output missing the waiting entry or its reason:\n%s", queueOut.String())
	}
	if err := run([]string{"queue", "extra"}, io.Discard); err == nil {
		t.Error("queue with positional arguments should fail")
	}
	if err := run([]string{"schedule", "--addr", "http://127.0.0.1:1"}, io.Discard); err == nil {
		t.Error("unreachable daemon should fail")
	}
}

func TestAgentsOverHTTP(t *testing.T) {
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Set(router.Route{
		Service:  "svc",
		Backends: []router.Backend{{Version: "v1", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	hub := fleet.New(fleet.Config{Table: table, HeartbeatInterval: time.Hour})
	t.Cleanup(hub.Close)
	srv, err := server.New(server.Config{Engine: engine, Table: table, Store: store, Fleet: hub})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// One current agent, one lagging stale one.
	hub.Ack("edge-1", "10.0.0.1:7080", hub.Epoch(), table.Version(), 1234, false)
	hub.Ack("edge-2", "10.0.0.2:7080", hub.Epoch(), 0, 7, true)

	var out strings.Builder
	if err := run([]string{"agents", "--addr", ts.URL}, &out); err != nil {
		t.Fatalf("agents: %v", err)
	}
	got := out.String()
	for _, want := range []string{"routing snapshot version 1, 2 agents", "edge-1", "edge-2", "1234", "stale"} {
		if !strings.Contains(got, want) {
			t.Errorf("agents output missing %q:\n%s", want, got)
		}
	}

	if err := run([]string{"agents", "extra"}, io.Discard); err == nil {
		t.Error("agents with positional arguments should fail")
	}
	if err := run([]string{"agents", "--addr", "http://127.0.0.1:1"}, io.Discard); err == nil {
		t.Error("unreachable daemon should fail")
	}
}
