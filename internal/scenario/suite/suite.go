// Package suite is the scenario grading harness: it runs each strategy
// kind against the builtin scenario matrix on a fully simulated stack
// (virtual clock, in-process microsim, live trace pipeline) and grades
// the outcomes. The acceptance bar is graded in both directions — a
// canary must roll back during its own error storm AND must not roll
// back during an ambient flash crowd — so both misses (false negatives)
// and false alarms (false positives) are regressions. Every future
// check kind lands by adding a strategy here and extending the matrix.
package suite

import (
	"fmt"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/clock"
	"contexp/internal/expmodel"
	"contexp/internal/health"
	"contexp/internal/loadgen"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/scenario"
	"contexp/internal/tracing"
)

// Epoch is the fixed virtual start instant of every suite run; all
// scenario windows and strategy phases are relative to it.
var Epoch = time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)

// SuiteTarget is the cast the builtin scenarios are aimed at inside the
// suite's application: experiments run on "api" (v1 → v2), and
// "backend" is the shared dependency ambient faults hit.
var SuiteTarget = scenario.Target{Service: "api", Candidate: "v2", Dependency: "backend"}

// Kind names a strategy family under grading.
type Kind string

// Strategy kinds graded by the matrix.
const (
	// KindMetric gates the canary on relative metric checks (error
	// budget, p95 latency) — the Chapter 4 scalar checks.
	KindMetric Kind = "metric"
	// KindTopology adds the Chapter 5 structural check on top of the
	// metric gates.
	KindTopology Kind = "topology"
)

// Kinds lists the graded strategy kinds.
func Kinds() []Kind { return []Kind{KindMetric, KindTopology} }

// App builds the suite's application: gateway → api (v1 baseline,
// v2 candidate) → backend. The candidate is topologically and
// behaviorally identical to the baseline — every regression the suite
// observes is injected by the scenario, never intrinsic.
func App() (*microsim.Application, error) {
	app := microsim.NewApplication("gateway", "GET /")
	app.AddService("gateway", "v1").
		Endpoint("GET /", 5, 8).
		Calls("api", "GET /data")
	app.AddService("api", "v1").
		Endpoint("GET /data", 10, 14).ErrorRate(0.03).
		Calls("backend", "GET /store")
	app.AddService("api", "v2").
		Endpoint("GET /data", 10, 14).ErrorRate(0.03).
		Calls("backend", "GET /store")
	app.AddService("backend", "v1").
		Endpoint("GET /store", 8, 12)
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// phaseChecks are the relative metric gates every graded strategy
// carries: candidate error volume and p95 latency, each compared
// against the baseline with a 2x budget over a 30s window, tripping on
// two consecutive failures. Relative scoping is the load-bearing
// design: ambient trouble (flash crowds, dependency outages) hits both
// variants alike and cancels out.
func phaseChecks() []bifrost.Check {
	return []bifrost.Check{
		{
			Name: "error-budget", Metric: microsim.MetricErrors,
			Aggregation: metrics.AggCount, Scope: bifrost.ScopeRelative,
			Upper: true, Threshold: 2.0,
			Window: 30 * time.Second, Interval: 10 * time.Second,
			FailuresToTrip: 2,
		},
		{
			Name: "latency-p95", Metric: microsim.MetricResponseTime,
			Aggregation: metrics.AggP95, Scope: bifrost.ScopeRelative,
			Upper: true, Threshold: 2.0,
			Window: 30 * time.Second, Interval: 10 * time.Second,
			FailuresToTrip: 2,
		},
	}
}

// Strategy builds the graded strategy of the given kind: a 30% canary
// held for 90 virtual seconds, promoted on success, rolled back on
// failure.
func Strategy(kind Kind) (*bifrost.Strategy, error) {
	checks := phaseChecks()
	switch kind {
	case KindMetric:
	case KindTopology:
		checks = append(checks, bifrost.Check{
			Name: "structure", Kind: bifrost.CheckTopology,
			Heuristic: "subtree-weighted",
			MinTraces: 30, MaxChanges: 0,
			Allow:          []string{"updated-callee-version", "updated-caller-version", "updated-version"},
			Interval:       15 * time.Second,
			FailuresToTrip: 2,
		})
	default:
		return nil, fmt.Errorf("suite: unknown strategy kind %q", kind)
	}
	return &bifrost.Strategy{
		Name:    "grade-" + string(kind),
		Service: SuiteTarget.Service, Baseline: "v1", Candidate: SuiteTarget.Candidate,
		Phases: []bifrost.Phase{{
			Name: "canary", Practice: expmodel.PracticeCanary,
			Traffic:    bifrost.TrafficSpec{CandidateWeight: 0.3},
			Duration:   90 * time.Second,
			MinSamples: 200,
			Checks:     checks,
			OnSuccess:  bifrost.Transition{Kind: bifrost.TransitionPromote},
		}},
	}, nil
}

// Result is the graded outcome of one scenario × strategy-kind run.
type Result struct {
	Scenario string
	Kind     Kind
	Status   bifrost.RunStatus
	// FinishedAt is the virtual instant the run concluded.
	FinishedAt time.Time
	// Requests/Failures summarize the user-visible traffic the scenario
	// generated.
	Requests int
	Failures int
	// Topology verdict tally (zero for metric-only strategies).
	TopologyPass, TopologyFail, TopologyInconclusive int
	// Events is the run's full audit trail.
	Events []bifrost.Event
	// Seed is the scenario seed the run used, logged for reproduction.
	Seed int64
}

// Options tunes RunScenario.
type Options struct {
	// Logf receives progress lines (loadgen seed line included); nil
	// discards them.
	Logf func(format string, args ...any)
}

// settleWait blocks until the engine goroutine has either finished the
// run or parked on the simulated clock again, so the driver never races
// check evaluation against traffic generation — that lockstep is what
// makes a whole scenario run bit-for-bit reproducible from its seed.
func settleWait(clk *clock.Sim, run *bifrost.Run) error {
	if _, err := clk.AwaitPark(run.Done()); err != nil {
		return fmt.Errorf("suite: engine did not settle (status=%v): %w", run.Status(), err)
	}
	return nil
}

// RunScenario executes one scenario against one strategy kind on the
// simulated stack and returns the graded result. The entire run —
// arrivals, faults, check evaluations — unfolds in virtual time under a
// fixed seed, so two invocations produce identical event trails.
func RunScenario(spec *scenario.Spec, kind Kind, opt Options) (*Result, error) {
	sc, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	strategy, err := Strategy(kind)
	if err != nil {
		return nil, err
	}
	app, err := App()
	if err != nil {
		return nil, err
	}

	clk := clock.NewSim(Epoch)
	table := router.NewTable()
	store := metrics.NewStore(0)
	live := tracing.NewLiveCollector(0)
	monitor := health.NewMonitor(live, -1) // harvest immediately

	sim := microsim.NewSim(app, table, live, store, sc.Seed+1)
	injector, err := sc.Injector(Epoch)
	if err != nil {
		return nil, err
	}
	sim.SetFaults(injector)
	if err := microsim.InstallBaselineRoutes(app, table); err != nil {
		return nil, err
	}

	engine, err := bifrost.NewEngine(bifrost.Config{
		Clock: clk, Table: table, Store: store, Topology: monitor,
	})
	if err != nil {
		return nil, err
	}
	run, err := engine.Launch(strategy)
	if err != nil {
		return nil, err
	}
	// Let the canary routing land before the first arrival.
	if err := settleWait(clk, run); err != nil {
		return nil, err
	}

	// The load generator is the clock's pacemaker: before each arrival
	// it walks the engine through every check deadline due up to that
	// instant, waiting for the engine to park again after each, then
	// executes the request at the arrival instant.
	var driveErr error
	target := loadgen.TargetFunc(func(req *router.Request, at time.Time) (time.Duration, bool, error) {
		for driveErr == nil {
			select {
			case <-run.Done():
			default:
				if d, ok := clk.NextDeadline(); ok && !d.After(at) {
					clk.AdvanceTo(d)
					driveErr = settleWait(clk, run)
					continue
				}
			}
			break
		}
		if driveErr != nil {
			return 0, false, driveErr
		}
		clk.AdvanceTo(at)
		res, err := sim.Execute(req, at)
		return res.Duration, res.Err, err
	})

	pop, err := loadgen.NewPopulation(loadgen.PopulationConfig{Size: 500, Seed: sc.Seed + 2})
	if err != nil {
		return nil, err
	}
	lg, err := loadgen.Run(loadgen.Config{
		Rate:     sc.Rate,
		Uniform:  sc.Uniform,
		Duration: sc.Duration,
		Start:    Epoch,
		Seed:     sc.Seed,
		Logf:     opt.Logf,
	}, pop, target)
	if err != nil {
		return nil, err
	}
	if driveErr != nil {
		return nil, driveErr
	}

	// Drain: the scenario's traffic is exhausted, but the run may still
	// have deadlines ahead (retries, a phase outlasting the scenario).
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-run.Done():
		default:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("suite: %s/%s: run never finished (status=%v, phase=%q)",
					spec.Name, kind, run.Status(), run.CurrentPhase())
			}
			if d, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(d)
				if err := settleWait(clk, run); err != nil {
					return nil, err
				}
			} else {
				time.Sleep(50 * time.Microsecond)
			}
			continue
		}
		break
	}

	res := &Result{
		Scenario: spec.Name,
		Kind:     kind,
		Status:   run.Status(),
		Events:   run.Events(),
		Requests: len(lg.Samples),
		Seed:     sc.Seed,
	}
	for _, s := range lg.Samples {
		if s.Failed {
			res.Failures++
		}
	}
	for _, ev := range res.Events {
		switch ev.Type {
		case bifrost.EventRunFinished:
			res.FinishedAt = ev.At
		case bifrost.EventTopologyVerdict:
			switch ev.Outcome {
			case bifrost.OutcomePass:
				res.TopologyPass++
			case bifrost.OutcomeFail:
				res.TopologyFail++
			default:
				res.TopologyInconclusive++
			}
		}
	}
	return res, nil
}

// Expectation grades one scenario: the run status every strategy kind
// must reach under it.
type Expectation struct {
	Spec *scenario.Spec
	Want map[Kind]bifrost.RunStatus
}

// Matrix returns the full grading matrix: every builtin scenario with
// its expected outcome per strategy kind. Benign conditions (steady,
// ramp, flash crowd, diurnal) and ambient faults hitting both variants
// (dependency blackout, slow restart) must promote; faults targeting
// the candidate release (error storm, latency spike) must roll back.
func Matrix() []Expectation {
	promote := map[Kind]bifrost.RunStatus{
		KindMetric:   bifrost.StatusSucceeded,
		KindTopology: bifrost.StatusSucceeded,
	}
	rollback := map[Kind]bifrost.RunStatus{
		KindMetric:   bifrost.StatusRolledBack,
		KindTopology: bifrost.StatusRolledBack,
	}
	want := map[string]map[Kind]bifrost.RunStatus{
		scenario.ScenarioSteady:       promote,
		scenario.ScenarioRamp:         promote,
		scenario.ScenarioFlashCrowd:   promote,
		scenario.ScenarioDiurnal:      promote,
		scenario.ScenarioErrorStorm:   rollback,
		scenario.ScenarioLatencySpike: rollback,
		scenario.ScenarioBlackout:     promote,
		scenario.ScenarioSlowRestart:  promote,
	}
	var out []Expectation
	for _, spec := range scenario.Catalog(SuiteTarget) {
		w, ok := want[spec.Name]
		if !ok {
			// A catalog entry without a grade is itself a bug the suite
			// test surfaces.
			w = nil
		}
		out = append(out, Expectation{Spec: spec, Want: w})
	}
	return out
}
