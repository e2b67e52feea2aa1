package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"contexp/internal/agent"
	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

func TestParseFlags(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		opt, err := parseFlags(nil)
		if err != nil {
			t.Fatal(err)
		}
		if opt.addr != ":8080" || opt.dataDir != "" || opt.authTokens != "" {
			t.Errorf("defaults = %+v", opt)
		}
		if opt.checkInterval != 5*time.Second {
			t.Errorf("check interval = %v", opt.checkInterval)
		}
	})

	t.Run("unknown flag", func(t *testing.T) {
		// The demo is cmd/contexp-demo; the daemon has no demo mode.
		for _, arg := range []string{"--wibble", "--demo", "--demo-faults=error-storm"} {
			if _, err := parseFlags([]string{arg}); err == nil {
				t.Errorf("expected error for unknown flag %s", arg)
			}
		}
	})

	t.Run("positional arguments rejected", func(t *testing.T) {
		_, err := parseFlags([]string{"serve"})
		if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("nonpositive check interval rejected", func(t *testing.T) {
		if _, err := parseFlags([]string{"--check-interval", "0s"}); err == nil {
			t.Error("expected error for zero check interval")
		}
	})

	t.Run("trace buffer", func(t *testing.T) {
		opt, err := parseFlags(nil)
		if err != nil || opt.traceBuffer != 100_000 {
			t.Errorf("default trace buffer = %d, %v", opt.traceBuffer, err)
		}
		if opt, _ := parseFlags([]string{"--trace-buffer", "0"}); opt.traceBuffer != 0 {
			t.Errorf("trace buffer = %d, want 0 (disabled)", opt.traceBuffer)
		}
		if _, err := parseFlags([]string{"--trace-buffer", "-1"}); err == nil {
			t.Error("expected error for negative trace buffer")
		}
	})

	t.Run("pprof flag", func(t *testing.T) {
		opt, err := parseFlags(nil)
		if err != nil || opt.pprofAddr != "" {
			t.Errorf("defaults = %+v, %v", opt, err)
		}
		opt, err = parseFlags([]string{"--pprof", "localhost:6060"})
		if err != nil {
			t.Fatal(err)
		}
		if opt.pprofAddr != "localhost:6060" {
			t.Errorf("opt = %+v", opt)
		}
	})

	t.Run("scheduler flags", func(t *testing.T) {
		opt, err := parseFlags([]string{"--max-concurrent", "8", "--capacity", "0.5"})
		if err != nil {
			t.Fatal(err)
		}
		if opt.maxConcurrent != 8 || opt.capacity != 0.5 {
			t.Errorf("opt = %+v", opt)
		}
		if opt, _ := parseFlags(nil); opt.maxConcurrent != 4 || opt.capacity != 0.8 {
			t.Errorf("defaults = %+v", opt)
		}
		if _, err := parseFlags([]string{"--max-concurrent", "0"}); err == nil {
			t.Error("expected error for zero max-concurrent")
		}
		if _, err := parseFlags([]string{"--capacity", "1.5"}); err == nil {
			t.Error("expected error for capacity above 1")
		}
	})
}

func TestParseDataDirFlag(t *testing.T) {
	opt, err := parseFlags([]string{"--data-dir", "/tmp/contexp-journal"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.dataDir != "/tmp/contexp-journal" {
		t.Errorf("dataDir = %q", opt.dataDir)
	}
	if opt, _ := parseFlags(nil); opt.dataDir != "" {
		t.Errorf("default dataDir = %q, want empty (in-memory)", opt.dataDir)
	}
}

// TestDataDirRecoveryOverHTTP is the daemon-level acceptance flow: a
// previous process journaled a run and died mid-phase; contexpd booted
// on the same --data-dir serves the run's full pre-crash event history
// over /v1/runs/{name} and settles it without manual intervention.
func TestDataDirRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()

	// Process one: enact a strategy against a file journal and die
	// mid-phase (abandoned, journal synced — the kill -9 moment).
	log1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table: table, Store: store, Journal: log1,
		DefaultCheckInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := bifrost.ParseStrategy(`
strategy "crashy" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 50%
        duration = 30s
        on inconclusive -> rollback
        on success -> promote
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := engine.Launch(strategy)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(liveRun.Events()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("run produced no events")
		}
		time.Sleep(10 * time.Millisecond)
	}
	preEvents := len(liveRun.Events())
	if err := log1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Release the directory flock as process death would; the on-disk
	// journal is exactly what the Sync left.
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process two: the real daemon on the same data dir.
	addr := freeAddr(t)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"--addr", addr, "--data-dir", dir})
	}()

	base := "http://" + addr
	var detail struct {
		Status    string `json:"status"`
		Recovered bool   `json:"recovered"`
		EventLog  []any  `json:"eventLog"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/runs/crashy")
		if err == nil {
			body := json.NewDecoder(resp.Body)
			decodeErr := body.Decode(&detail)
			resp.Body.Close()
			if decodeErr == nil && resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never served the recovered run")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !detail.Recovered {
		t.Error("run not marked recovered")
	}
	// "on inconclusive -> rollback" means the interrupted phase settles
	// the run to rolled-back at boot, with the pre-crash history intact.
	if detail.Status != "rolled-back" {
		t.Errorf("status = %q, want rolled-back (settled at boot)", detail.Status)
	}
	if len(detail.EventLog) < preEvents {
		t.Errorf("served %d events, pre-crash history had %d", len(detail.EventLog), preEvents)
	}

	// Shut the daemon down via its signal path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestDataDirMetricsSurviveRestart is the restart probe of the windowed
// metrics: contexpd boots on a --data-dir holding a rollup file of the
// old JSON format (which it ignores), takes samples spanning fifteen
// minutes over HTTP, and saves its tiers as it shuts down, over the old
// file. Booted again on the same directory, it reports the same series,
// leaves no temp file behind, and the saved file answers a p95 over the
// samples.
func TestDataDirMetricsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	rollups := filepath.Join(dir, "metrics-rollups.json")
	v1, err := os.ReadFile("../../internal/metrics/testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rollups, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	boot := func() (string, chan error) {
		addr := freeAddr(t)
		errc := make(chan error, 1)
		go func() { errc <- run([]string{"--addr", addr, "--data-dir", dir}) }()
		base := "http://" + addr
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(25 * time.Millisecond) {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return base, errc
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("daemon never served /healthz")
			}
		}
	}
	stop := func(errc chan error) {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down on SIGTERM")
		}
	}
	seriesCount := func(base string) int {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Store struct {
				Series int `json:"series"`
			} `json:"store"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return health.Store.Series
	}

	base, errc := boot()
	if n := seriesCount(base); n != 0 {
		t.Fatalf("booted on the v1 file with %d series, want none", n)
	}
	now := time.Now()
	var body strings.Builder
	body.WriteString(`{"observations": [`)
	for i := 0; i < 90; i++ { // every ten seconds for fifteen minutes, into three series
		if i > 0 {
			body.WriteString(",")
		}
		at := now.Add(-15*time.Minute + time.Duration(i)*10*time.Second).UTC().Format(time.RFC3339Nano)
		fmt.Fprintf(&body, `{"metric": "rt", "service": "svc-%d", "version": "v1", "value": %d, "at": %q}`, i%3, 10+i, at)
	}
	body.WriteString("]}")
	resp, err := http.Post(base+"/v1/metrics", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("ingest: %s", resp.Status)
	}
	time.Sleep(1100 * time.Millisecond) // past /healthz's cache
	if n := seriesCount(base); n != 3 {
		t.Fatalf("ingested into %d series, want 3", n)
	}
	stop(errc)

	base, errc = boot()
	if n := seriesCount(base); n != 3 {
		t.Errorf("restarted with %d series, want 3", n)
	}
	stop(errc)
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	saved := metrics.NewStore(0)
	if err := journal.ReadFile(rollups, saved.Restore); err != nil {
		t.Fatal(err)
	}
	scope := metrics.Scope{Service: "svc-0", Version: "v1"}
	if p95, err := saved.Query("rt", scope, now.Add(-20*time.Minute), metrics.AggP95); err != nil || p95 < 10 || p95 > 100*1.05 {
		t.Errorf("p95 from the saved file = %v, %v", p95, err)
	}
}

// TestDataDirQueueRecoveryOverHTTP is the scheduling acceptance flow:
// a previous process had one strategy running and a same-service
// strategy queued behind it, then died. The daemon booted on the same
// --data-dir restores the still-queued submission — visible in
// /v1/schedule — behind the resumed blocker.
func TestDataDirQueueRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()

	// Process one: a blocker run plus a queued submission, then death.
	log1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table: table, Store: store, Journal: log1,
		DefaultCheckInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bifrost.NewScheduler(bifrost.SchedulerConfig{Engine: engine, Journal: log1})
	if err != nil {
		t.Fatal(err)
	}
	holdDSL := func(name string) string {
		return `
strategy "` + name + `" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 50%
        duration = 30s
        on inconclusive -> retry
        max-retries = 10
        on success -> promote
    }
}
`
	}
	blocker, err := bifrost.ParseStrategy(holdDSL("blocker"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sched.Submit(blocker); err != nil || res.Queued {
		t.Fatalf("blocker: %+v, %v", res, err)
	}
	pending, err := bifrost.ParseStrategy(holdDSL("pending"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sched.Submit(pending); err != nil || !res.Queued {
		t.Fatalf("pending: %+v, %v", res, err)
	}
	if err := log1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process two: the real daemon on the same data dir.
	addr := freeAddr(t)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"--addr", addr, "--data-dir", dir})
	}()

	base := "http://" + addr
	var snap struct {
		Running []struct {
			Name string `json:"name"`
		} `json:"running"`
		Queue []struct {
			Name      string `json:"name"`
			Recovered bool   `json:"recovered"`
		} `json:"queue"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/schedule")
		if err == nil {
			decodeErr := json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if decodeErr == nil && resp.StatusCode == http.StatusOK && len(snap.Running) > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never served the schedule")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The blocker resumed (on inconclusive -> retry re-enters the
	// interrupted phase), so the restored submission waits behind it.
	if len(snap.Running) != 1 || snap.Running[0].Name != "blocker" {
		t.Errorf("running = %+v, want the resumed blocker", snap.Running)
	}
	if len(snap.Queue) != 1 || snap.Queue[0].Name != "pending" || !snap.Queue[0].Recovered {
		t.Errorf("queue = %+v, want the recovered pending submission", snap.Queue)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestDataDirTopologyVerdictRecoveryOverHTTP is the topology-gate
// crash-recovery flow: process one journals a topology verdict (the
// structural check trips, failing the phase into a goto'd hold phase),
// then dies mid-hold. The daemon booted on the same --data-dir replays
// the verdict from the journal instead of re-evaluating it — the traces
// that produced it died with the old process — and resumes the run in
// the hold phase without re-entering the concluded one.
func TestDataDirTopologyVerdictRecoveryOverHTTP(t *testing.T) {
	dir := t.TempDir()

	// Process one: engine with a live topology pipeline and a file
	// journal.
	log1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := router.NewTable()
	store := metrics.NewStore(0)
	collector := tracing.NewLiveCollector(10_000)
	monitor := health.NewMonitor(collector, -1) // harvest immediately
	engine, err := bifrost.NewEngine(bifrost.Config{
		Table: table, Store: store, Journal: log1, Topology: monitor,
		DefaultCheckInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := bifrost.ParseStrategy(`
strategy "topo-crashy" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "gate" {
        practice = canary
        traffic  = 50%
        duration = 30s
        check "structure" {
            kind       = topology
            min-traces = 1
            interval   = 50ms
        }
        on failure -> phase "hold"
    }
    phase "hold" {
        practice = canary
        traffic  = 50%
        duration = 30s
        on inconclusive -> retry
        max-retries = 10
        on success -> promote
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := engine.Launch(strategy)
	if err != nil {
		t.Fatal(err)
	}
	// Feed one baseline trace and one candidate trace whose topology
	// shows a disallowed structural change (a new dependency), so the
	// gate phase's check fails and the run transitions to "hold".
	mkSpan := func(trace, span, parent uint64, svc, ver, ep string) tracing.Span {
		return tracing.Span{
			TraceID: tracing.TraceID(trace), SpanID: tracing.SpanID(span),
			ParentID: tracing.SpanID(parent), Service: svc, Version: ver,
			Endpoint: ep, Start: time.Now(), Duration: time.Millisecond,
		}
	}
	collector.Record(mkSpan(1, 1, 0, "svc", "v1", "GET /x"))
	collector.Record(mkSpan(2, 2, 0, "svc", "v2", "GET /x"))
	collector.Record(mkSpan(2, 3, 2, "billing", "v1", "POST /charge"))

	// Wait until the verdict concluded the gate phase and the run sits
	// in the hold phase, then "die" mid-phase.
	deadline := time.Now().Add(5 * time.Second)
	verdicts := func(events []bifrost.Event) int {
		n := 0
		for _, ev := range events {
			if ev.Type == bifrost.EventTopologyVerdict {
				n++
			}
		}
		return n
	}
	for {
		if liveRun.CurrentPhase() == "hold" && verdicts(liveRun.Events()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached the hold phase (phase %q, events %d)",
				liveRun.CurrentPhase(), len(liveRun.Events()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	preVerdicts := verdicts(liveRun.Events())
	if err := log1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process two: the real daemon on the same data dir. Its collector
	// is empty — if recovery re-evaluated the gate's topology check it
	// could never reproduce the verdict.
	addr := freeAddr(t)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"--addr", addr, "--data-dir", dir})
	}()

	base := "http://" + addr
	var detail struct {
		Status    string `json:"status"`
		Phase     string `json:"phase"`
		Recovered bool   `json:"recovered"`
		EventLog  []struct {
			Type  string `json:"type"`
			Phase string `json:"phase"`
		} `json:"eventLog"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/runs/topo-crashy")
		if err == nil {
			decodeErr := json.NewDecoder(resp.Body).Decode(&detail)
			resp.Body.Close()
			if decodeErr == nil && resp.StatusCode == http.StatusOK && detail.Status == "running" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never served the recovered run")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !detail.Recovered {
		t.Error("run not marked recovered")
	}
	// The run resumed in the hold phase: the gate phase's journaled
	// outcome (decided by the topology verdict) was honored, not
	// re-evaluated.
	if detail.Phase != "hold" {
		t.Errorf("resumed phase = %q, want hold", detail.Phase)
	}
	var postVerdicts, gateEntries int
	for _, ev := range detail.EventLog {
		if ev.Type == string(bifrost.EventTopologyVerdict) {
			postVerdicts++
		}
		if ev.Type == string(bifrost.EventPhaseEntered) && ev.Phase == "gate" {
			gateEntries++
		}
	}
	if postVerdicts != preVerdicts {
		t.Errorf("verdicts after recovery = %d, want %d (the journaled verdict, not a re-evaluation)",
			postVerdicts, preVerdicts)
	}
	if gateEntries != 1 {
		t.Errorf("gate phase entered %d times, want 1 (concluded phase must not re-run)", gateEntries)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestDataDirAgentTakesRecoveredTable: a contexpd restarted on the same
// --data-dir recovers its runs and re-applies their routing, so an edge
// agent that reconnects to it is handed the recovered table under the
// new process's epoch — a canary split, not an empty table — and the new
// process's /v1/agents shows the agent on that table with no lag.
func TestDataDirAgentTakesRecoveredTable(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	first := startDaemon(t, addr, dir)
	dsl := `
strategy "canary" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 10%
        duration = 600s
        on inconclusive -> retry
        max-retries = 10
        on success -> promote
    }
}
`
	resp, err := http.Post(base+"/v1/strategies", "text/plain", strings.NewReader(dsl))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	a, err := agent.New(agent.Config{
		ID: "edge", ControlPlane: base,
		HeartbeatInterval: 25 * time.Millisecond, LeaseTTL: time.Second,
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()
	holdsCanary := func() bool {
		route, err := a.Table().Route("svc")
		return err == nil && len(route.Backends) == 2 && route.Backends[1].Version == "v2" &&
			route.Backends[1].Weight == 0.1
	}
	var firstEpoch string
	waitUntil(t, "the agent to hold the canary split and ack it", func() bool {
		firstEpoch = agentView(t, base).Epoch
		return holdsCanary() && firstEpoch != ""
	})
	stopDaemon(t, first)

	second := startDaemon(t, addr, dir)
	defer stopDaemon(t, second)
	epoch := watchEpoch(t, base)
	if epoch == "" || epoch == firstEpoch {
		t.Fatalf("restarted epoch %q, first process's %q", epoch, firstEpoch)
	}
	var routes struct {
		TableVersion uint64 `json:"tableVersion"`
	}
	getJSON(t, base+"/v1/routes", &routes)
	waitUntil(t, "the agent to hold the recovered table under the new epoch", func() bool {
		view := agentView(t, base)
		return holdsCanary() && a.Version() == routes.TableVersion &&
			view.Epoch == epoch && view.AppliedVersion == routes.TableVersion && view.Lag == 0
	})
}

// startDaemon runs contexpd on addr and dir until stopDaemon, once it
// answers /healthz.
func startDaemon(t *testing.T, addr, dir string) chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"--addr", addr, "--data-dir", dir})
	}()
	waitUntil(t, "contexpd to answer /healthz", func() bool {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return errc
}

// stopDaemon shuts a startDaemon process down through its signal path.
func stopDaemon(t *testing.T, errc chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// agentView is the registry entry /v1/agents holds for agent "edge".
func agentView(t *testing.T, base string) fleet.AgentState {
	t.Helper()
	var out struct{ Items []fleet.AgentState }
	getJSON(t, base+"/v1/agents", &out)
	for _, view := range out.Items {
		if view.ID == "edge" {
			return view
		}
	}
	return fleet.AgentState{}
}

// watchEpoch opens a watch stream, as agent "probe", only to read the
// epoch it is served under.
func watchEpoch(t *testing.T, base string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/routing/watch?agent=probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.Header.Get(wire.EpochHeader)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestCurlHost(t *testing.T) {
	if got := curlHost(":8080"); got != "localhost:8080" {
		t.Errorf("curlHost(:8080) = %q", got)
	}
	if got := curlHost("10.0.0.1:80"); got != "10.0.0.1:80" {
		t.Errorf("curlHost(10.0.0.1:80) = %q", got)
	}
}
