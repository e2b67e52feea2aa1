package bifrost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// --- per-run memo ---

// memoRun builds a bare run of one phase holding checks on an engine
// whose store is stub, so tests can evaluate batches at chosen instants
// and count what reaches the store.
func memoRun(t *testing.T, stub *stubQuerier, checks ...Check) (*Run, *Phase, []*Check) {
	t.Helper()
	eng, err := NewEngine(Config{Clock: clock.NewSim(t0), Table: router.NewTable(), Store: stub})
	if err != nil {
		t.Fatal(err)
	}
	s := &Strategy{
		Name: "memo", Service: "catalog", Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic:  TrafficSpec{CandidateWeight: 0.1},
			Duration: time.Minute, Checks: checks,
		}},
	}
	p := &s.Phases[0]
	ptrs := make([]*Check, len(p.Checks))
	for i := range p.Checks {
		ptrs[i] = &p.Checks[i]
	}
	return &Run{strategy: s, engine: eng, log: new(runLog)}, p, ptrs
}

// p95Ladder is n thresholds over one p95 signal: n checks, one query.
func p95Ladder(n int) []Check {
	checks := make([]Check, n)
	for i := range checks {
		checks[i] = Check{
			Name: fmt.Sprintf("p95-%d", i), Metric: "response_time",
			Aggregation: metrics.AggP95, Upper: true, Threshold: float64(100 * (i + 1)),
			Interval: 10 * time.Second,
		}
	}
	return checks
}

const (
	candidateRT = "response_time\x00catalog/v2"
	baselineRT  = "response_time\x00catalog/v1"
)

func TestMemoLadderCostsOneQueryPerTick(t *testing.T) {
	stub := &stubQuerier{values: map[string]float64{candidateRT: 40}}
	r, p, checks := memoRun(t, stub, p95Ladder(4)...)
	for tick := 1; tick <= 3; tick++ {
		for _, res := range r.evalBatch(p, checks, t0.Add(time.Duration(tick)*10*time.Second)) {
			if res.Outcome != OutcomePass || res.Value != 40 {
				t.Fatalf("tick %d: result %+v; want pass at 40", tick, res)
			}
		}
		if stub.queries != tick {
			t.Fatalf("after tick %d the store answered %d queries; want %d", tick, stub.queries, tick)
		}
	}
	if st := r.engine.EvalPlane(); st.CacheMisses != 3 || st.CacheHits != 9 {
		t.Fatalf("stats %+v; want 3 misses, 9 hits", st)
	}
}

func TestMemoSharesBaselineQueryWithRelativeCheck(t *testing.T) {
	stub := &stubQuerier{values: map[string]float64{candidateRT: 55, baselineRT: 50}}
	rel := Check{Name: "rel", Metric: "response_time", Aggregation: metrics.AggMean,
		Scope: ScopeRelative, Upper: true, Threshold: 1.2, Interval: 10 * time.Second}
	base := rel
	base.Name, base.Scope, base.Threshold = "base", ScopeBaseline, 100
	r, p, checks := memoRun(t, stub, rel, base)

	results := r.evalBatch(p, checks, t0.Add(10*time.Second))
	if results[0].Outcome != OutcomePass || results[0].Value != 55 ||
		results[1].Outcome != OutcomePass || results[1].Value != 50 {
		t.Fatalf("results %+v", results)
	}
	// Candidate and baseline once each; the baseline check asks nothing.
	if stub.queries != 2 {
		t.Fatalf("store answered %d queries; want 2", stub.queries)
	}
}

func TestMemoNeverAnswersAcrossInstants(t *testing.T) {
	stub := &stubQuerier{values: map[string]float64{candidateRT: 40}}
	r, p, checks := memoRun(t, stub, p95Ladder(1)...)
	t1, t2 := t0.Add(10*time.Second), t0.Add(20*time.Second)

	r.evalBatch(p, checks, t1)
	stub.values[candidateRT] = 70
	if got := r.evalBatch(p, checks, t1)[0].Value; got != 40 {
		t.Fatalf("same instant re-asked the store: value %v; want the memoized 40", got)
	}
	if got := r.evalBatch(p, checks, t2)[0].Value; got != 70 {
		t.Fatalf("next instant answered %v; want the store's 70", got)
	}
	// The memo holds one instant: going back to t1 asks again.
	if got := r.evalBatch(p, checks, t1)[0].Value; got != 70 {
		t.Fatalf("returning to an earlier instant answered %v; want a fresh query (70)", got)
	}
}

func TestMemoRemembersNoData(t *testing.T) {
	stub := &stubQuerier{values: map[string]float64{}}
	r, p, checks := memoRun(t, stub, p95Ladder(3)...)
	for i, res := range r.evalBatch(p, checks, t0.Add(10*time.Second)) {
		if res.Outcome != OutcomeInconclusive {
			t.Fatalf("check %d: %+v; want inconclusive", i, res)
		}
	}
	if stub.queries != 1 {
		t.Fatalf("store answered %d queries; want ErrNoData asked for once", stub.queries)
	}
}

func TestConcludePhaseAsksTheStoreNothing(t *testing.T) {
	stub := &stubQuerier{values: map[string]float64{candidateRT: 40, baselineRT: 50}}
	checks := p95Ladder(3)
	checks = append(checks, Check{Name: "rel", Metric: "response_time", Aggregation: metrics.AggMean,
		Scope: ScopeRelative, Upper: true, Threshold: 1.2, Interval: 10 * time.Second})
	r, p, ptrs := memoRun(t, stub, checks...)
	phaseEnd := t0.Add(p.Duration)

	r.evalBatch(p, ptrs, phaseEnd) // the last interval tick
	asked := stub.queries
	if got := r.concludePhase(p, t0, phaseEnd); got != OutcomePass {
		t.Fatalf("phase outcome %v; want pass", got)
	}
	if stub.queries != asked {
		t.Fatalf("concludePhase asked the store %d more queries; want 0", stub.queries-asked)
	}
}

// --- evaluation order ---

// scriptedEvaluator replaces the metric evaluator with a scripted one:
// per-check artificial latency (keyed by check name) and an optional
// block. Everything passes, so runs complete promptly.
type scriptedEvaluator struct {
	delays map[string]time.Duration
	block  chan struct{} // when non-nil, Evaluate waits for close
	calls  atomic.Int64
}

func (se *scriptedEvaluator) Evaluate(r *Run, p *Phase, c *Check, now time.Time) CheckResult {
	se.calls.Add(1)
	if se.block != nil {
		<-se.block
	}
	if d := se.delays[c.Name]; d > 0 {
		time.Sleep(d)
	}
	return CheckResult{Outcome: OutcomePass, Value: 1}
}

// multiCheckStrategy builds a one-phase strategy with n metric checks
// named c0..c(n-1), all on the same interval.
func multiCheckStrategy(tenant, service string, n int, interval, dur time.Duration) *Strategy {
	checks := make([]Check, n)
	for i := range checks {
		checks[i] = Check{
			Name: fmt.Sprintf("c%d", i), Metric: "response_time",
			Aggregation: metrics.AggMean, Upper: true, Threshold: 100,
			Interval: interval,
		}
	}
	return &Strategy{
		Name: "strat-" + service, Tenant: tenant, Service: service,
		Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic:  TrafficSpec{CandidateWeight: 0.1},
			Duration: dur,
			Checks:   checks,
			OnSuccess: Transition{
				Kind: TransitionPromote,
			},
		}},
	}
}

// TestDispatchPreservesEventOrder runs a multi-check phase with
// deliberately skewed per-check latencies and asserts the event trail
// lists every tick's results in check declaration order.
func TestDispatchPreservesEventOrder(t *testing.T) {
	h := newHarness(t)
	// c0 is the slowest, c2 the fastest: how long a check takes must
	// not leak into the trail.
	h.engine.evaluators[CheckMetric] = &scriptedEvaluator{delays: map[string]time.Duration{
		"c0": 4 * time.Millisecond,
		"c1": 2 * time.Millisecond,
		"c2": 0,
	}}

	run, err := h.engine.Launch(multiCheckStrategy("", "catalog", 3, 10*time.Second, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}

	var seq []string
	for _, ev := range run.Events() {
		if ev.Type == EventCheckResult {
			seq = append(seq, ev.Check)
		}
	}
	if len(seq) == 0 || len(seq)%3 != 0 {
		t.Fatalf("check-result count = %d; want a positive multiple of 3 (%v)", len(seq), seq)
	}
	for i := 0; i < len(seq); i += 3 {
		if seq[i] != "c0" || seq[i+1] != "c1" || seq[i+2] != "c2" {
			t.Fatalf("tick %d recorded out of order: %v", i/3, seq[i:i+3])
		}
	}
}

// TestDispatchStalledEvaluatorNoStarvation blocks two runs'
// evaluations indefinitely and verifies that unrelated runs still
// finish: a run evaluates on its own goroutine, so a blocked evaluator
// blocks only the run that called it.
func TestDispatchStalledEvaluatorNoStarvation(t *testing.T) {
	eng, err := NewEngine(Config{
		Clock: clock.Real{}, Table: router.NewTable(), Store: metrics.NewStore(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	stalled := &scriptedEvaluator{block: release}
	fast := &scriptedEvaluator{}
	eng.evaluators[CheckMetric] = evaluatorSwitch{stalled: stalled, fast: fast}

	// Two stalled runs, each blocked in its first evaluation.
	var slowRuns []*Run
	for i := 0; i < 2; i++ {
		s := multiCheckStrategy(fmt.Sprintf("t%d", i), "slow-svc", 2, 5*time.Millisecond, 30*time.Millisecond)
		run, err := eng.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		slowRuns = append(slowRuns, run)
	}
	// Give the stalled runs time to reach their first tick.
	time.Sleep(20 * time.Millisecond)

	var fastRuns []*Run
	for i := 0; i < 4; i++ {
		s := multiCheckStrategy(fmt.Sprintf("t%d", i), "fast-svc", 3, 5*time.Millisecond, 30*time.Millisecond)
		run, err := eng.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		fastRuns = append(fastRuns, run)
	}
	for i, run := range fastRuns {
		select {
		case <-run.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("fast run %d starved behind stalled evaluators", i)
		}
		if run.Status() != StatusSucceeded {
			t.Fatalf("fast run %d status = %v", i, run.Status())
		}
	}

	close(release)
	for i, run := range slowRuns {
		select {
		case <-run.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("slow run %d did not finish after release", i)
		}
	}
}

// evaluatorSwitch routes slow-svc checks to the stalled script and
// everything else to the fast one.
type evaluatorSwitch struct {
	stalled, fast *scriptedEvaluator
}

func (es evaluatorSwitch) Evaluate(r *Run, p *Phase, c *Check, now time.Time) CheckResult {
	if r.strategy.Service == "slow-svc" {
		return es.stalled.Evaluate(r, p, c, now)
	}
	return es.fast.Evaluate(r, p, c, now)
}

// TestDispatchManyRunsManyTenants drives 24 multi-check runs across 6
// tenants to completion on one simulated clock — under -race this is
// the evaluation plane's concurrency soak — and then checks every run's
// event trail independently: status, per-tick check order, and
// non-decreasing timestamps.
func TestDispatchManyRunsManyTenants(t *testing.T) {
	sim := clock.NewSim(t0)
	store := metrics.NewStore(0)
	eng, err := NewEngine(Config{
		Clock: sim, Table: router.NewTable(), Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}

	const tenants, perTenant = 6, 4
	var runs []*Run
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for si := 0; si < perTenant; si++ {
			svc := fmt.Sprintf("svc-%d", si)
			// Healthy candidate metrics for every run's scope.
			scope := metrics.Scope{Tenant: tenant, Service: svc, Version: "v2"}
			for ts := time.Duration(0); ts <= 2*time.Minute; ts += time.Second {
				store.Record("response_time", scope, t0.Add(ts), 50)
			}
			run, err := eng.Launch(multiCheckStrategy(tenant, svc, 3, 5*time.Second, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
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
			t.Fatal("runs did not finish")
		}
		if d, ok := sim.NextDeadline(); ok {
			sim.AdvanceTo(d)
		}
		time.Sleep(200 * time.Microsecond)
	}

	for _, r := range runs {
		if r.Status() != StatusSucceeded {
			t.Errorf("run %s status = %v", r.Strategy().RunKey(), r.Status())
		}
		events := r.Events()
		var seq []string
		for i, ev := range events {
			if i > 0 && ev.At.Before(events[i-1].At) {
				t.Errorf("run %s: event %d at %v before predecessor %v",
					r.Strategy().RunKey(), i, ev.At, events[i-1].At)
			}
			if ev.Type == EventCheckResult {
				seq = append(seq, ev.Check)
			}
		}
		for i := 0; i+2 < len(seq); i += 3 {
			if seq[i] != "c0" || seq[i+1] != "c1" || seq[i+2] != "c2" {
				t.Errorf("run %s tick %d out of order: %v", r.Strategy().RunKey(), i/3, seq[i:i+3])
			}
		}
	}

	// Sibling checks within a run share one query per tick.
	if st := eng.EvalPlane(); st.CacheHits == 0 {
		t.Errorf("expected memo hits from sibling checks; stats %+v", st)
	}
}

// goldenTrails runs the two pinned workloads, each on a fresh engine
// under clock.Sim, and returns their event trails as JSON lines: a
// 3-check strategy that promotes, and one whose second check trips on
// the first tick, so the third is evaluated but never recorded.
func goldenTrails(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, service := range []string{"catalog", "checkout"} {
		h := newHarness(t)
		h.seedMetrics("response_time", service, "v2", "", 2*time.Minute, 50)
		s := multiCheckStrategy("", service, 3, 5*time.Second, time.Minute)
		if service == "checkout" {
			s.Phases[0].Checks[1].Threshold = 10
		}
		run, err := h.engine.Launch(s)
		if err != nil {
			t.Fatal(err)
		}
		h.drive(t, run)
		for _, ev := range run.Events() {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestEventTrailsMatchParentGolden pins the journaled trail across the
// removal of the worker pool and the engine-wide tick cache:
// testdata/trails_parent.golden was written by goldenTrails running on
// the last commit that had them (PR 14), and the in-order engine must
// reproduce it byte for byte.
func TestEventTrailsMatchParentGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trails_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenTrails(t)
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("event %d differs:\n got: %s\nwant: %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("trail has %d lines; want %d", len(gl), len(wl))
	}
}

// TestEvalPlaneStats checks the health-surface counters against a run
// whose counts are known: 3 identical checks, 12 interval ticks and one
// conclude-time re-evaluation.
func TestEvalPlaneStats(t *testing.T) {
	h := newHarness(t)
	if st := h.engine.EvalPlane(); st != (EvalPlaneStats{}) {
		t.Errorf("fresh engine counters non-zero: %+v", st)
	}
	h.seedMetrics("response_time", "catalog", "v2", "", 2*time.Minute, 50)
	run, err := h.engine.Launch(multiCheckStrategy("", "catalog", 3, 5*time.Second, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)

	// Each tick: one miss, two hits. The conclude pass: three hits.
	want := EvalPlaneStats{CacheMisses: 12, CacheHits: 12*2 + 3, InlineEvals: 13 * 3}
	if st := h.engine.EvalPlane(); st != want {
		t.Errorf("stats %+v; want %+v", st, want)
	}
	if evals := h.engine.Metrics().Evaluations; evals != want.InlineEvals {
		t.Errorf("Evaluations = %d; want %d", evals, want.InlineEvals)
	}
}
