package bifrost

import (
	"strings"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

var t0 = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

// harness bundles an engine on a simulated clock.
type harness struct {
	sim    *clock.Sim
	table  *router.Table
	store  *metrics.Store
	engine *Engine
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{
		sim:   clock.NewSim(t0),
		table: router.NewTable(),
		store: metrics.NewStore(0),
	}
	eng, err := NewEngine(Config{Clock: h.sim, Table: h.table, Store: h.store})
	if err != nil {
		t.Fatal(err)
	}
	h.engine = eng
	return h
}

// seedMetrics records `value` for (metric, service, version, variant)
// once per second over the given virtual span starting at t0.
func (h *harness) seedMetrics(metric, service, version, variant string, span time.Duration, value float64) {
	scope := metrics.Scope{Service: service, Version: version, Variant: variant}
	for ts := time.Duration(0); ts <= span; ts += time.Second {
		h.store.Record(metric, scope, t0.Add(ts), value)
	}
}

// drive advances the simulated clock until the run finishes or the
// real-time deadline passes.
func (h *harness) drive(t *testing.T, run *Run) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-run.Done():
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("run did not finish; status=%v phase=%q events=%d",
				run.Status(), run.CurrentPhase(), len(run.Events()))
		}
		if d, ok := h.sim.NextDeadline(); ok {
			h.sim.AdvanceTo(d)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func twoPhaseStrategy() *Strategy {
	return &Strategy{
		Name: "happy", Service: "catalog", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{
			{
				Name: "canary", Practice: expmodel.PracticeCanary,
				Traffic:  TrafficSpec{CandidateWeight: 0.05},
				Duration: time.Minute,
				Checks: []Check{{
					Name: "latency", Metric: "response_time",
					Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
					Interval: 10 * time.Second,
				}},
			},
			{
				Name: "ab", Practice: expmodel.PracticeABTest,
				Traffic:  TrafficSpec{CandidateWeight: 0.5},
				Duration: time.Minute,
				Checks: []Check{{
					Name: "latency", Metric: "response_time",
					Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
					Interval: 10 * time.Second,
				}},
				OnSuccess: Transition{Kind: TransitionPromote},
			},
		},
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(Config{Store: metrics.NewStore(0)}); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := NewEngine(Config{Table: router.NewTable()}); err == nil {
		t.Error("missing store should fail")
	}
}

func TestHappyPathPromotion(t *testing.T) {
	h := newHarness(t)
	// Healthy metrics on the candidate for the whole run.
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)

	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v; events: %+v", run.Status(), run.Events())
	}
	// Routing ends 100% on the candidate.
	route, err := h.table.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backends) != 1 || route.Backends[0].Version != "v2" {
		t.Errorf("final route = %+v", route.Backends)
	}
	// Audit trail covers both phases.
	var entered []string
	for _, ev := range run.Events() {
		if ev.Type == EventPhaseEntered {
			entered = append(entered, ev.Phase)
		}
	}
	if len(entered) != 2 || entered[0] != "canary" || entered[1] != "ab" {
		t.Errorf("phases entered = %v", entered)
	}
}

func TestFailingCheckRollsBack(t *testing.T) {
	h := newHarness(t)
	// Candidate is unhealthy: latency way above threshold.
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 500)

	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusRolledBack {
		t.Fatalf("status = %v", run.Status())
	}
	route, _ := h.table.Route("catalog")
	if len(route.Backends) != 1 || route.Backends[0].Version != "v1" {
		t.Errorf("rollback route = %+v", route.Backends)
	}
	// The failure concluded the phase early: well before the 60s phase end
	// plus the second phase.
	elapsed := h.sim.Now().Sub(t0)
	if elapsed > 30*time.Second {
		t.Errorf("rollback took %v of virtual time, expected immediate trip", elapsed)
	}
	// No second phase was entered.
	for _, ev := range run.Events() {
		if ev.Type == EventPhaseEntered && ev.Phase == "ab" {
			t.Error("failing canary still advanced to ab phase")
		}
	}
}

func TestFailuresToTripRequiresConsecutive(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].OnSuccess = Transition{Kind: TransitionPromote}
	s.Phases[0].Checks[0].FailuresToTrip = 3
	// Unhealthy only during the first ~15s: two evaluations fail, then
	// recovery. 3 consecutive failures are never reached.
	scope := metrics.Scope{Service: "catalog", Version: "v2"}
	for ts := time.Duration(0); ts <= 2*time.Minute; ts += time.Second {
		v := 50.0
		if ts < 15*time.Second {
			v = 500
		}
		h.store.Record("response_time", scope, t0.Add(ts), v)
	}
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v, want succeeded (trip threshold not reached)", run.Status())
	}
}

func TestInconclusiveRetriesThenFails(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].MaxRetries = 2
	// No metrics at all: every evaluation is inconclusive.
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusRolledBack {
		t.Fatalf("status = %v, want rolled-back after retries exhausted", run.Status())
	}
	// The phase was entered 1 + 2 retries = 3 times.
	var entered int
	for _, ev := range run.Events() {
		if ev.Type == EventPhaseEntered {
			entered++
		}
	}
	if entered != 3 {
		t.Errorf("phase entered %d times, want 3", entered)
	}
}

func TestMinSamplesGate(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].MinSamples = 1000
	s.Phases[0].MaxRetries = 1
	s.Phases[0].OnInconclusive = Transition{Kind: TransitionAbort}
	// Healthy but sparse: only ~60 samples over the minute.
	h.seedMetrics("response_time", "catalog", "v2", "", 2*time.Minute, 50)
	h.seedMetrics("requests", "catalog", "v2", "", 2*time.Minute, 1)

	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusAborted {
		t.Fatalf("status = %v, want aborted via inconclusive transition", run.Status())
	}
}

func TestGradualRolloutSteps(t *testing.T) {
	h := newHarness(t)
	s := &Strategy{
		Name: "rollout", Service: "catalog", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "rollout", Practice: expmodel.PracticeGradualRollout,
			Traffic: TrafficSpec{
				Steps:        []float64{0.25, 0.5, 1.0},
				StepDuration: 30 * time.Second,
			},
			Checks: []Check{{
				Name: "latency", Metric: "response_time",
				Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
				Interval: 10 * time.Second,
			}},
			OnSuccess: Transition{Kind: TransitionPromote},
		}},
	}
	h.seedMetrics("response_time", "catalog", "v2", "", 5*time.Minute, 50)
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
	var steps []string
	for _, ev := range run.Events() {
		if ev.Type == EventRolloutStep {
			steps = append(steps, ev.Detail)
		}
	}
	want := []string{"weight=25%", "weight=50%", "weight=100%"}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i, steps[i], want[i])
		}
	}
}

func TestDarkLaunchRoutingAndScope(t *testing.T) {
	h := newHarness(t)
	s := &Strategy{
		Name: "dark", Service: "catalog", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "dark", Practice: expmodel.PracticeDarkLaunch,
			Traffic:  TrafficSpec{Mirror: true},
			Duration: time.Minute,
			Checks: []Check{{
				Name: "latency", Metric: "response_time",
				Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
				Interval: 10 * time.Second,
			}},
			OnSuccess: Transition{Kind: TransitionPromote},
		}},
	}
	// Metrics live under the "dark" variant, as microsim records mirrors.
	h.seedMetrics("response_time", "catalog", "v2", "dark", 5*time.Minute, 50)

	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	// While running, the route must keep users on baseline and mirror to
	// v2. The phase's routing lands asynchronously after launch.
	var route router.Route
	deadline := time.Now().Add(5 * time.Second)
	for {
		route, _ = h.table.Route("catalog")
		if len(route.Mirrors) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror route never installed: %+v", route)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if route.Mirrors[0] != "v2" {
		t.Errorf("mirrors during dark launch = %v", route.Mirrors)
	}
	if route.Backends[0].Version != "v1" || route.Backends[0].Weight != 1 {
		t.Errorf("backends during dark launch = %+v", route.Backends)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
}

func TestRelativeCheck(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].OnSuccess = Transition{Kind: TransitionPromote}
	s.Phases[0].Checks = []Check{{
		Name: "regression", Metric: "response_time",
		Aggregation: metrics.AggMean, Scope: ScopeRelative,
		Upper: true, Threshold: 1.25,
		Interval: 10 * time.Second,
	}}
	// Candidate 20% slower than baseline: within the 25% budget.
	h.seedMetrics("response_time", "catalog", "v1", "", 5*time.Minute, 100)
	h.seedMetrics("response_time", "catalog", "v2", "", 5*time.Minute, 120)

	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v (20%% regression within 25%% budget)", run.Status())
	}

	// Second run: candidate 50% slower -> rollback.
	h2 := newHarness(t)
	h2.seedMetrics("response_time", "catalog", "v1", "", 5*time.Minute, 100)
	h2.seedMetrics("response_time", "catalog", "v2", "", 5*time.Minute, 150)
	run2, err := h2.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h2.drive(t, run2)
	if run2.Status() != StatusRolledBack {
		t.Fatalf("status = %v (50%% regression should fail)", run2.Status())
	}
}

func TestLaunchErrors(t *testing.T) {
	h := newHarness(t)
	if _, err := h.engine.Launch(&Strategy{}); err == nil {
		t.Error("invalid strategy should fail")
	}
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.engine.Launch(twoPhaseStrategy()); err == nil {
		t.Error("duplicate live strategy should fail")
	}
	h.drive(t, run)
	// After completion the name can be reused.
	if _, err := h.engine.Launch(twoPhaseStrategy()); err != nil {
		t.Errorf("relaunch after completion failed: %v", err)
	}
}

func TestAbort(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	run.Abort()
	run.Abort() // idempotent
	h.drive(t, run)
	if run.Status() != StatusAborted {
		t.Fatalf("status = %v", run.Status())
	}
}

func TestEngineAccessors(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := h.engine.Get("happy")
	if !ok || got != run {
		t.Error("Get failed")
	}
	if _, ok := h.engine.Get("ghost"); ok {
		t.Error("Get of unknown run should fail")
	}
	if len(h.engine.Runs()) != 1 {
		t.Error("Runs() wrong")
	}
	if run.Strategy().Name != "happy" {
		t.Error("Strategy() wrong")
	}
	h.drive(t, run)
}

func TestEngineMetricsInstrumentation(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	m := h.engine.Metrics()
	if m.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
	if len(m.Delays) == 0 {
		t.Error("no delays recorded")
	}
}

// TestDelaySamplesKeepNewest overfills the delay ring by 500 samples:
// the 500 oldest are gone, the 500 newest are there, and Metrics lists
// what is kept oldest first.
func TestDelaySamplesKeepNewest(t *testing.T) {
	h := newHarness(t)
	const extra = 500
	// Batches of five, as a tick's due checks arrive: the ring must wrap
	// inside a batch as it does between them.
	for i := 0; i < maxDelaySamples+extra; i += 5 {
		var due []*checkState
		for d := i; d < i+5; d++ {
			due = append(due, &checkState{due: t0.Add(-time.Duration(d))})
		}
		h.engine.recordDelays(t0, due)
	}
	delays := h.engine.Metrics().Delays
	if len(delays) != maxDelaySamples {
		t.Fatalf("kept %d delays; want %d", len(delays), maxDelaySamples)
	}
	for i, d := range delays {
		if want := time.Duration(extra + i); d != want {
			t.Fatalf("delays[%d] = %d; want %d (newest %d samples, oldest first)", i, d, want, maxDelaySamples)
		}
	}
}

func TestGotoChaining(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	// canary success skips straight to promote via goto to ab, whose
	// failure goes back to canary... use abort to terminate instead:
	// canary -> goto "ab"; ab failure -> abort.
	s.Phases[0].OnSuccess = Transition{Kind: TransitionGoto, Target: "ab"}
	s.Phases[1].OnFailure = Transition{Kind: TransitionAbort}
	// Healthy in canary threshold but failing in ab: set latency between
	// — impossible with one series. Instead: healthy all through; expect
	// promote via goto path.
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
	var sawGoto bool
	for _, ev := range run.Events() {
		if ev.Type == EventTransition && strings.Contains(ev.Detail, "goto ab") {
			sawGoto = true
		}
	}
	if !sawGoto {
		t.Error("goto transition not recorded")
	}
}

func TestParallelStrategies(t *testing.T) {
	h := newHarness(t)
	const n = 20
	runs := make([]*Run, 0, n)
	for i := 0; i < n; i++ {
		svc := "svc-" + string(rune('a'+i))
		s := &Strategy{
			Name: "strat-" + svc, Service: svc, Baseline: "v1", Candidate: "v2",
			Phases: []Phase{{
				Name: "canary", Practice: expmodel.PracticeCanary,
				Traffic:  TrafficSpec{CandidateWeight: 0.1},
				Duration: time.Minute,
				Checks: []Check{{
					Name: "latency", Metric: "response_time",
					Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
					Interval: 5 * time.Second,
				}},
				OnSuccess: Transition{Kind: TransitionPromote},
			}},
		}
		h.seedMetrics("response_time", svc, "v2", "", 5*time.Minute, 50)
		run, err := h.engine.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		allDone := true
		for _, r := range runs {
			select {
			case <-r.Done():
			default:
				allDone = false
			}
		}
		if allDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parallel runs did not finish")
		}
		if d, ok := h.sim.NextDeadline(); ok {
			h.sim.AdvanceTo(d)
		}
		time.Sleep(200 * time.Microsecond)
	}
	for _, r := range runs {
		if r.Status() != StatusSucceeded {
			t.Errorf("run %s status = %v", r.Strategy().Name, r.Status())
		}
	}
}
