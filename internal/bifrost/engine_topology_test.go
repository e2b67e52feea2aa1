package bifrost

import (
	"strings"
	"sync"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// fakeAssessor is a scripted TopologyAssessor: it serves a fixed
// verdict and records the lifecycle calls the engine makes.
type fakeAssessor struct {
	mu         sync.Mutex
	registered []string
	frozen     []string
	verdict    health.LiveVerdict
}

func (f *fakeAssessor) Register(run, service, baseline, candidate string, _ time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.registered = append(f.registered, run+":"+service+":"+baseline+":"+candidate)
}

func (f *fakeAssessor) Freeze(run string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = append(f.frozen, run)
}

func (f *fakeAssessor) Verdict(run, heuristic string) (*health.LiveVerdict, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.verdict
	v.Run = run
	return &v, nil
}

func topoEngine(t *testing.T, assessor TopologyAssessor) *Engine {
	t.Helper()
	store := metrics.NewStore(0)
	// Healthy metrics so metric checks (if any) would pass.
	now := time.Now()
	for d := -time.Minute; d <= time.Minute; d += 100 * time.Millisecond {
		store.Record("response_time", metrics.Scope{Service: "rec", Version: "v2"}, now.Add(d), 10)
		store.Record("requests", metrics.Scope{Service: "rec", Version: "v2"}, now.Add(d), 1)
	}
	engine, err := NewEngine(Config{
		Table:                router.NewTable(),
		Store:                store,
		DefaultCheckInterval: 30 * time.Millisecond,
		Topology:             assessor,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func topoStrategy(allow []string, maxChanges, minTraces int) *Strategy {
	return &Strategy{
		Name: "topo-run", Service: "rec", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic: TrafficSpec{CandidateWeight: 0.2}, Duration: time.Second,
			Checks: []Check{{
				Name: "structure", Kind: CheckTopology,
				Allow: allow, MaxChanges: maxChanges, MinTraces: minTraces,
				Interval: 30 * time.Millisecond,
			}},
			OnSuccess:      Transition{Kind: TransitionPromote},
			OnInconclusive: Transition{Kind: TransitionAbort},
		}},
	}
}

func TestTopologyCheckTripsPhase(t *testing.T) {
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		Heuristic: "subtree-weighted", BaselineTraces: 50, CandidateTraces: 50,
		Changes: []health.RankedChange{
			{Class: "call-new-endpoint", Edge: "rec@v2:GET /r -> billing@v1:POST /charge", Score: 4.2},
			{Class: "updated-callee-version", Edge: "fe@v1:GET / -> rec@v2:GET /r", Score: 1.1},
		},
	}}
	engine := topoEngine(t, assessor)
	// Version updates are expected during a rollout; the new billing
	// dependency is not.
	run, err := engine.Launch(topoStrategy([]string{"updated-callee-version"}, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	if got := run.Status(); got != StatusRolledBack {
		t.Fatalf("status = %v, want rolled-back", got)
	}
	var verdictEvents int
	var detail string
	for _, ev := range run.Events() {
		if ev.Type == EventTopologyVerdict {
			verdictEvents++
			detail = ev.Detail
		}
	}
	if verdictEvents == 0 {
		t.Fatal("no topology-verdict events recorded")
	}
	if !strings.Contains(detail, "call-new-endpoint") || !strings.Contains(detail, "disallowed=1") {
		t.Errorf("verdict detail = %q", detail)
	}
	// Lifecycle: registered at launch, frozen at finish.
	assessor.mu.Lock()
	defer assessor.mu.Unlock()
	if len(assessor.registered) != 1 || assessor.registered[0] != "topo-run:rec:v1:v2" {
		t.Errorf("registered = %v", assessor.registered)
	}
	if len(assessor.frozen) != 1 || assessor.frozen[0] != "topo-run" {
		t.Errorf("frozen = %v", assessor.frozen)
	}
}

func TestTopologyCheckPassesWhenChangesAllowed(t *testing.T) {
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		Heuristic: "subtree-weighted", BaselineTraces: 50, CandidateTraces: 50,
		Changes: []health.RankedChange{
			{Class: "updated-callee-version", Edge: "fe@v1:GET / -> rec@v2:GET /r", Score: 1.1},
		},
	}}
	engine := topoEngine(t, assessor)
	run, err := engine.Launch(topoStrategy([]string{"updated-callee-version"}, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	if got := run.Status(); got != StatusSucceeded {
		t.Fatalf("status = %v, want succeeded", got)
	}
	// The phase concluded at its natural end: the conclude-time
	// topology evaluation must be journaled like the interval ones.
	events := run.Events()
	var lastVerdictIdx, outcomeIdx = -1, -1
	for i, ev := range events {
		switch ev.Type {
		case EventTopologyVerdict:
			lastVerdictIdx = i
		case EventPhaseOutcome:
			outcomeIdx = i
		}
	}
	if lastVerdictIdx == -1 || outcomeIdx == -1 || lastVerdictIdx != outcomeIdx-1 {
		t.Errorf("phase outcome at %d not preceded by its conclude-time verdict (last verdict at %d)",
			outcomeIdx, lastVerdictIdx)
	}
}

// TestRecoverSettlesTopologyRunWithoutAssessor mirrors Launch's guard:
// a journaled in-flight topology-gated run recovered into an engine
// with no assessor is settled with a clear reason, not left spinning
// inconclusive.
func TestRecoverSettlesTopologyRunWithoutAssessor(t *testing.T) {
	jnl := &journal.Memory{}
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		Heuristic: "subtree-weighted", // trace-starved: stays inconclusive
	}}
	store := metrics.NewStore(0)
	engine1, err := NewEngine(Config{
		Table: router.NewTable(), Store: store, Journal: jnl, Topology: assessor,
		DefaultCheckInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := topoStrategy(nil, 0, 10)
	s.Phases[0].Duration = 30 * time.Second // stays in flight
	run, err := engine1.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(run.Events()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("run produced no events")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// "Restart" without live tracing.
	engine2, err := NewEngine(Config{Table: router.NewTable(), Store: store, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine2.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	run.Abort() // let engine1's goroutine go
	if rep.Settled != 1 {
		t.Fatalf("report = %+v, want 1 settled", rep)
	}
	recovered, ok := engine2.Get("topo-run")
	if !ok {
		t.Fatal("run not recovered")
	}
	if got := recovered.Status(); got != StatusAborted {
		t.Fatalf("status = %v, want aborted", got)
	}
	if !strings.Contains(rep.Runs[0].Action, "topology assessor") {
		t.Errorf("action = %q, want assessor explanation", rep.Runs[0].Action)
	}
}

func TestTopologyCheckMaxRankedChangesBudget(t *testing.T) {
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		Heuristic: "subtree-weighted", BaselineTraces: 50, CandidateTraces: 50,
		Changes: []health.RankedChange{
			{Class: "call-existing-endpoint", Edge: "a -> b", Score: 2},
			{Class: "remove-call", Edge: "a -> c", Score: 1},
		},
	}}
	engine := topoEngine(t, assessor)
	// Two disallowed changes within a budget of two: passes.
	run, err := engine.Launch(topoStrategy(nil, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	if got := run.Status(); got != StatusSucceeded {
		t.Fatalf("status = %v, want succeeded (2 changes <= budget 2)", got)
	}
}

func TestTopologyCheckInconclusiveWithoutTraces(t *testing.T) {
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		Heuristic: "subtree-weighted", BaselineTraces: 3, CandidateTraces: 0,
		Changes: []health.RankedChange{
			{Class: "call-new-endpoint", Edge: "a -> b", Score: 9},
		},
	}}
	engine := topoEngine(t, assessor)
	run, err := engine.Launch(topoStrategy(nil, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	// Inconclusive transition is abort in topoStrategy: too little
	// evidence never trips a rollback.
	if got := run.Status(); got != StatusAborted {
		t.Fatalf("status = %v, want aborted (inconclusive)", got)
	}
	for _, ev := range run.Events() {
		if ev.Type == EventTopologyVerdict && ev.Outcome == OutcomeFail {
			t.Fatalf("trace-starved check failed instead of inconclusive: %+v", ev)
		}
	}
}

func TestLaunchRejectsTopologyChecksWithoutAssessor(t *testing.T) {
	store := metrics.NewStore(0)
	engine, err := NewEngine(Config{Table: router.NewTable(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Launch(topoStrategy(nil, 0, 1))
	if err == nil || !strings.Contains(err.Error(), "no topology assessor") {
		t.Fatalf("err = %v, want topology-assessor rejection", err)
	}
}

// TestMetricOnlyStrategyUnaffectedByAssessor pins the refactor: the
// evaluator seam must leave metric checks byte-identical in behavior.
func TestMetricOnlyStrategyUnaffectedByAssessor(t *testing.T) {
	assessor := &fakeAssessor{verdict: health.LiveVerdict{
		BaselineTraces: 50, CandidateTraces: 50,
		Changes: []health.RankedChange{{Class: "call-new-endpoint", Edge: "a -> b", Score: 9}},
	}}
	engine := topoEngine(t, assessor)
	s := &Strategy{
		Name: "metric-run", Service: "rec", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic: TrafficSpec{CandidateWeight: 0.2}, Duration: 500 * time.Millisecond,
			Checks: []Check{{
				Name: "latency", Metric: "response_time",
				Aggregation: metrics.AggMean, Upper: true, Threshold: 1000,
				Interval: 30 * time.Millisecond, Window: time.Minute,
			}},
			OnSuccess:      Transition{Kind: TransitionPromote},
			OnInconclusive: Transition{Kind: TransitionAbort},
		}},
	}
	run, err := engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	// The assessor's scripted structural regression must not leak into
	// a strategy that never asked for topology checks.
	if got := run.Status(); got != StatusSucceeded {
		t.Fatalf("status = %v, want succeeded", got)
	}
	for _, ev := range run.Events() {
		if ev.Type == EventTopologyVerdict {
			t.Fatal("metric-only run recorded a topology verdict")
		}
	}
}
