package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// newSchedulerEnv is newEnv with a live scheduler (and optionally a
// journal) wired through engine and server.
func newSchedulerEnv(t *testing.T, jnl journal.Journal) *env {
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
	sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{Engine: engine, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:            engine,
		Table:             table,
		Store:             store,
		EventPollInterval: 20 * time.Millisecond,
		Journal:           jnl,
		Scheduler:         sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts, table: table, store: store, engine: engine, server: s}
}

// serviceDSL renders a long-holding strategy on the given service.
func serviceDSL(name, service string) string {
	return fmt.Sprintf(`
strategy %q {
    service   = %q
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 10%%
        duration = 30s
        on success -> promote
    }
}
`, name, service)
}

// TestScheduleEndToEnd is the HTTP acceptance flow: disjoint services
// enact concurrently; a same-service submission queues (202), shows up
// in /v1/schedule and the Gantt rendering, and launches once the
// blocking run is aborted.
func TestScheduleEndToEnd(t *testing.T) {
	e := newSchedulerEnv(t, nil)

	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("a", "svc-a")); code != http.StatusCreated {
		t.Fatalf("submit a: %d: %s", code, body)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("b", "svc-b")); code != http.StatusCreated {
		t.Fatalf("submit b (disjoint service): %d: %s", code, body)
	}
	code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("c", "svc-a"))
	if code != http.StatusAccepted {
		t.Fatalf("submit c (same service as a): %d: %s", code, body)
	}
	var entry bifrost.QueueEntryView
	if err := json.Unmarshal([]byte(body), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.State != "queued" || !strings.Contains(entry.Reason, "svc-a") {
		t.Fatalf("queue entry = %+v", entry)
	}

	// /v1/schedule reflects two running, one queued.
	code, body = e.do(http.MethodGet, "/v1/schedule", "")
	if code != http.StatusOK {
		t.Fatalf("schedule: %d: %s", code, body)
	}
	var snap bifrost.ScheduleSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Running) != 2 || len(snap.Queue) != 1 || snap.Queue[0].Name != "c" {
		t.Fatalf("snapshot: %d running %d queued (%+v)", len(snap.Running), len(snap.Queue), snap.Queue)
	}
	sawQueued := false
	for _, ev := range snap.Recent {
		if ev.Type == bifrost.EventRunQueued && ev.Name == "c" {
			sawQueued = true
		}
	}
	if !sawQueued {
		t.Error("snapshot should expose c's run-queued lifecycle event")
	}

	code, body = e.do(http.MethodGet, "/v1/schedule?format=gantt", "")
	if code != http.StatusOK || !strings.Contains(body, "c") || !strings.Contains(body, "|") {
		t.Fatalf("gantt: %d:\n%s", code, body)
	}

	// Aborting the blocker frees svc-a; the queue launches c.
	if code, body := e.do(http.MethodDelete, "/v1/runs/a", ""); code != http.StatusAccepted {
		t.Fatalf("abort a: %d: %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if run, ok := e.engine.Get("c"); ok && run.Status() == bifrost.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued strategy never launched after the blocker was aborted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestScheduleDequeue(t *testing.T) {
	e := newSchedulerEnv(t, nil)
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("live", "svc")); code != http.StatusCreated {
		t.Fatalf("submit live: %d: %s", code, body)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("wait", "svc")); code != http.StatusAccepted {
		t.Fatalf("submit wait: %d: %s", code, body)
	}
	// Duplicate queued name conflicts.
	if code, _ := e.do(http.MethodPost, "/v1/strategies", serviceDSL("wait", "other")); code != http.StatusConflict {
		t.Fatalf("duplicate queued submit: %d", code)
	}
	// DELETE on the queued (never launched) name dequeues it.
	code, body := e.do(http.MethodDelete, "/v1/runs/wait", "")
	if code != http.StatusAccepted || !strings.Contains(body, "dequeued") {
		t.Fatalf("dequeue: %d: %s", code, body)
	}
	code, body = e.do(http.MethodGet, "/v1/schedule", "")
	if code != http.StatusOK {
		t.Fatalf("schedule after dequeue: %d: %s", code, body)
	}
	var snap bifrost.ScheduleSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Queue) != 0 {
		t.Fatalf("queue after dequeue = %+v", snap.Queue)
	}
	// healthz reports the scheduler.
	code, body = e.do(http.MethodGet, "/healthz", "")
	if code != http.StatusOK || !strings.Contains(body, `"scheduler"`) {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Scheduler == nil || h.Scheduler.Running != 1 || h.Scheduler.Queued != 0 {
		t.Fatalf("scheduler health = %+v", h.Scheduler)
	}
}

// TestScheduleIsTenantScoped: with auth on, what beta reads from
// /v1/schedule (everything but the clock and the change counter) does
// not depend on what acme has running or queued — even queued ahead of
// beta's own entry.
func TestScheduleIsTenantScoped(t *testing.T) {
	e := newCustomEnv(t, func(c *Config) {
		c.Auth = testResolver(t)
		sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{Engine: c.Engine})
		if err != nil {
			t.Fatal(err)
		}
		c.Scheduler = sched
	})
	submit := func(token, name string, want int) {
		t.Helper()
		if code, body, _ := e.doAs(http.MethodPost, "/v1/strategies", token, serviceDSL(name, "svc"), nil); code != want {
			t.Fatalf("%s submits %s: got %d, want %d: %s", token, name, code, want, body)
		}
	}
	betaView := func() map[string]any {
		t.Helper()
		code, body, _ := e.doAs(http.MethodGet, "/v1/schedule", "tok-b", "", nil)
		if code != http.StatusOK {
			t.Fatalf("schedule: %d: %s", code, body)
		}
		var view map[string]any
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatal(err)
		}
		delete(view, "now")
		delete(view, "version")
		return view
	}

	submit("tok-a", "live", http.StatusCreated)
	submit("tok-a", "wait", http.StatusAccepted)
	submit("tok-b", "live", http.StatusCreated)
	submit("tok-b", "wait", http.StatusAccepted)
	with := betaView()
	if q := with["queue"].([]any); len(q) != 1 || q[0].(map[string]any)["plannedStart"] == nil {
		t.Fatalf("beta should see its one queued entry, projected: %v", with["queue"])
	}

	for _, name := range []string{"wait", "live"} {
		if code, body, _ := e.doAs(http.MethodDelete, "/v1/runs/"+name, "tok-a", "", nil); code != http.StatusAccepted {
			t.Fatalf("acme withdraws %s: %d: %s", name, code, body)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(e.server.cfg.Scheduler.Snapshot().Running) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("acme's aborted run never left the schedule")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if without := betaView(); !reflect.DeepEqual(with, without) {
		t.Errorf("beta's schedule depends on acme's entries:\nwith:    %v\nwithout: %v", with, without)
	}
}

// TestSubmitStatusIgnoresStrategyName: 409 is for a name collision
// (already running, already queued), told from the error's identity.
// The message embeds the strategy's name, so a strategy called
// "already-canary" that merely exceeds the scheduler's capacity is a
// plain 400, and a genuine collision stays 409 with its body unchanged.
func TestSubmitStatusIgnoresStrategyName(t *testing.T) {
	e := newSchedulerEnv(t, nil)
	overCapacity := strings.Replace(serviceDSL("already-canary", "svc"), "traffic  = 10%", "traffic  = 90%", 1)
	code, body := e.do(http.MethodPost, "/v1/strategies", overCapacity)
	if code != http.StatusBadRequest || !strings.Contains(body, "above the scheduler capacity") {
		t.Fatalf("over-capacity submit of \"already-canary\": %d: %s", code, body)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("live", "svc")); code != http.StatusCreated {
		t.Fatalf("submit live: %d: %s", code, body)
	}
	code, body = e.do(http.MethodPost, "/v1/strategies", serviceDSL("live", "svc"))
	if code != http.StatusConflict || !strings.Contains(body, `strategy \"live\" is already running`) {
		t.Fatalf("duplicate running submit: %d: %s", code, body)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("wait", "svc")); code != http.StatusAccepted {
		t.Fatalf("submit wait: %d: %s", code, body)
	}
	code, body = e.do(http.MethodPost, "/v1/strategies", serviceDSL("wait", "svc"))
	if code != http.StatusConflict || !strings.Contains(body, `strategy \"wait\" is already queued`) {
		t.Fatalf("duplicate queued submit: %d: %s", code, body)
	}
}

// TestScheduleSSE reads the schedule change stream: the initial
// snapshot arrives immediately, and a new submission produces another
// event.
func TestScheduleSSE(t *testing.T) {
	e := newSchedulerEnv(t, nil)
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("one", "svc")); code != http.StatusCreated {
		t.Fatalf("submit one: %d: %s", code, body)
	}

	resp, err := http.Get(e.ts.URL + "/v1/schedule/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan string, 16)
	go func() {
		scanner := bufio.NewScanner(resp.Body)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "data: ") {
				events <- strings.TrimPrefix(line, "data: ")
			}
		}
	}()

	first := <-events
	var snap bifrost.ScheduleSnapshot
	if err := json.Unmarshal([]byte(first), &snap); err != nil {
		t.Fatalf("initial snapshot: %v in %q", err, first)
	}
	if len(snap.Running) != 1 {
		t.Fatalf("initial snapshot running = %d", len(snap.Running))
	}

	// A queueing submission bumps the scheduler version → new event.
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("two", "svc")); code != http.StatusAccepted {
		t.Fatalf("submit two: %d: %s", code, body)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case data := <-events:
			if err := json.Unmarshal([]byte(data), &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Queue) == 1 && snap.Queue[0].Name == "two" {
				return // change observed
			}
		case <-deadline:
			t.Fatal("schedule SSE never reported the queued submission")
		}
	}
}

// TestScheduleQueueSurvivesRestart is the acceptance criterion at the
// server layer: a queued submission outlives a daemon restart via the
// journal, stays queued behind the recovered blocker, and is
// launchable after the blocker concludes.
func TestScheduleQueueSurvivesRestart(t *testing.T) {
	jnl := &journal.Memory{}
	e := newSchedulerEnv(t, jnl)
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("blocker", "svc")); code != http.StatusCreated {
		t.Fatalf("submit blocker: %d: %s", code, body)
	}
	if code, body := e.do(http.MethodPost, "/v1/strategies", serviceDSL("pending", "svc")); code != http.StatusAccepted {
		t.Fatalf("submit pending: %d: %s", code, body)
	}

	// "Restart": replay the journal into a fresh engine + scheduler,
	// the boot sequence contexpd runs with --data-dir.
	snap := jnl.Snapshot()
	e2 := newSchedulerEnv(t, snap)
	rep, err := e2.engine.Recover(snap)
	if err != nil || rep.Skipped > 0 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	e2.server.cfg.Scheduler.Restore(rep.Queued)

	code, body := e2.do(http.MethodGet, "/v1/schedule", "")
	if code != http.StatusOK {
		t.Fatalf("schedule: %d: %s", code, body)
	}
	var view bifrost.ScheduleSnapshot
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Queue) != 1 || view.Queue[0].Name != "pending" || !view.Queue[0].Recovered {
		t.Fatalf("restored queue = %+v", view.Queue)
	}
	if len(view.Running) != 1 || view.Running[0].Name != "blocker" {
		t.Fatalf("restored running = %+v", view.Running)
	}

	// The recovered blocker concluding lets the restored entry launch.
	if code, body := e2.do(http.MethodDelete, "/v1/runs/blocker", ""); code != http.StatusAccepted {
		t.Fatalf("abort blocker: %d: %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if run, ok := e2.engine.Get("pending"); ok && run.Status() == bifrost.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restored submission never launched")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
