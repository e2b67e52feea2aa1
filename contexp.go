// Package contexp is a framework for continuous experimentation in
// microservice-based applications, reproducing the systems of
// "Continuous Experimentation for Software Developers" (Schermann,
// MIDDLEWARE 2017 / University of Zurich 2019):
//
//   - Planning — Fenrir: search-based scheduling of experiments under
//     traffic, sample-size, and user-group-overlap constraints
//     (Chapter 3).
//   - Execution — Bifrost: automated enactment of multi-phase live
//     testing strategies (canary → dark launch → A/B test → gradual
//     rollout) written in an experimentation-as-code DSL, on top of
//     runtime traffic routing (Chapter 4).
//   - Analysis — topology-aware health assessment: live structural
//     verdicts from distributed traces (Chapter 5).
//
// This package is the library surface, and it holds exactly the names
// the programs under examples/ spell: each export is there because an
// example uses it, and an export no example uses is deleted
// (TestEverythingIsReachable). Values of internal types it returns
// (the engine, a run, the simulated clock, the health monitor) are used
// through their methods. The simulators the examples run on stay lab
// packages outside it.
package contexp

import (
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/clock"
	"contexp/internal/fenrir"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tracing"
	"contexp/internal/traffic"
)

// --- Execution (Bifrost) ---

type (
	// Strategy is a multi-phase live testing strategy.
	Strategy = bifrost.Strategy
	// EngineConfig parameterizes NewEngine.
	EngineConfig = bifrost.Config
	// RunStatus is a run's lifecycle state.
	RunStatus = bifrost.RunStatus
)

// ParseStrategy parses the experimentation-as-code DSL.
func ParseStrategy(src string) (*Strategy, error) { return bifrost.ParseStrategy(src) }

// NewEngine creates a strategy execution engine.
func NewEngine(cfg EngineConfig) (*bifrost.Engine, error) { return bifrost.NewEngine(cfg) }

// Verify statically checks a set of strategies for pairwise
// interference before any of them launches.
func Verify(strategies []*Strategy) ([]bifrost.Conflict, error) { return bifrost.Verify(strategies) }

// NewSimClock creates a virtual clock at start for the engine to run on
// (EngineConfig.Clock); it moves only when advanced.
func NewSimClock(start time.Time) *clock.Sim { return clock.NewSim(start) }

// How a run ended.
const (
	StatusSucceeded  = bifrost.StatusSucceeded
	StatusRolledBack = bifrost.StatusRolledBack
)

// Run events a report reads (Run.Events).
const (
	EventPhaseEntered    = bifrost.EventPhaseEntered
	EventPhaseOutcome    = bifrost.EventPhaseOutcome
	EventRolloutStep     = bifrost.EventRolloutStep
	EventTopologyVerdict = bifrost.EventTopologyVerdict
	EventRunFinished     = bifrost.EventRunFinished
)

// OutcomeFail is the outcome of a failed check or phase.
const OutcomeFail = bifrost.OutcomeFail

// --- Planning (Fenrir) ---

type (
	// SchedulingProblem bundles experiments, traffic, and constraints.
	SchedulingProblem = fenrir.Problem
	// GeneticAlgorithm is the recommended optimizer.
	GeneticAlgorithm = fenrir.GeneticAlgorithm
	// ExperimentGeneratorConfig parameterizes GenerateExperiments.
	ExperimentGeneratorConfig = fenrir.GeneratorConfig
	// ReevalInput describes a schedule reevaluation request.
	ReevalInput = fenrir.ReevalInput
)

// SamplesMedium is the evaluation's medium required-sample-size class.
const SamplesMedium = fenrir.SamplesMedium

// GenerateTraffic synthesizes days days of hourly traffic from start
// (midnight) with the Chapter 3 evaluation's seasonal shape: an
// afternoon peak, quieter weekends, and 5% noise.
func GenerateTraffic(start time.Time, days int) (*traffic.Profile, error) {
	return traffic.Generate(start, days, traffic.DefaultGeneratorConfig())
}

// GenerateExperiments creates a reproducible synthetic experiment set in
// the style of the paper's evaluation input.
func GenerateExperiments(cfg ExperimentGeneratorConfig) ([]fenrir.Experiment, error) {
	return fenrir.GenerateExperiments(cfg)
}

// Reevaluate re-plans an existing schedule after cancellations and
// arrivals.
func Reevaluate(p *SchedulingProblem, s *fenrir.Schedule, in ReevalInput) (*fenrir.ReevalResult, error) {
	return fenrir.Reevaluate(p, s, in)
}

// FrozenCount returns the number of frozen genes in a schedule: the
// experiments a reevaluation found already running.
func FrozenCount(s *fenrir.Schedule) int { return fenrir.FrozenCount(s) }

// --- Analysis (live topology-aware health, docs/HEALTH.md) ---

type (
	// LiveSpanCollector is the bounded, sharded span sink of the live
	// data plane.
	LiveSpanCollector = tracing.LiveCollector
	// SpanVariant tells a baseline trace from a candidate's.
	SpanVariant = tracing.Variant
	// AssessmentView is a run's live assessment as
	// GET /v1/runs/{name}/health serves it.
	AssessmentView = health.AssessmentView
)

// The two sides of an experiment a trace is assigned to.
const (
	VariantBaseline   = tracing.VariantBaseline
	VariantExperiment = tracing.VariantExperiment
)

// NewLiveSpanCollector creates a span collector bounded to cap spans
// (cap <= 0 is unbounded).
func NewLiveSpanCollector(cap int) *LiveSpanCollector { return tracing.NewLiveCollector(cap) }

// NewHealthMonitor creates a live assessment monitor over a collector;
// it answers the engine's topology checks (EngineConfig.Topology). A
// settle of 0 uses the default span-quiet window.
func NewHealthMonitor(c *LiveSpanCollector, settle time.Duration) *health.Monitor {
	return health.NewMonitor(c, settle)
}

// --- Substrates users compose with ---

// HeaderTraceID is the request header a trace ID travels in.
const HeaderTraceID = router.HeaderTraceID

// ServerConfig parameterizes NewServer.
type ServerConfig = server.Config

// NewServer creates the control-plane HTTP API over an engine and its
// substrates; serve its Handler.
func NewServer(cfg ServerConfig) (*server.Server, error) { return server.New(cfg) }

// NewMetricStore creates the in-memory telemetry store checks query.
func NewMetricStore() *metrics.Store { return metrics.NewStore(0) }

// NewRoutingTable creates an empty runtime traffic routing table.
func NewRoutingTable() *router.Table { return router.NewTable() }
