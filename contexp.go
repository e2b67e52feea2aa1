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
//   - Analysis — topology-aware health assessment: change detection
//     and impact ranking from distributed traces (Chapter 5).
//
// This package is the public facade: it re-exports the stable surface
// of the internal packages so downstream users have one import. The
// substrates (metrics store, tracing collector, routing table,
// microservice simulator, load generator) are re-exported where a user
// composes them; everything else stays internal.
package contexp

import (
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/expmodel"
	"contexp/internal/fenrir"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
	"contexp/internal/traffic"
)

// --- Execution (Bifrost) ---

type (
	// Strategy is a multi-phase live testing strategy.
	Strategy = bifrost.Strategy
	// Phase is one state of a strategy's state machine.
	Phase = bifrost.Phase
	// Check is a timed health criterion.
	Check = bifrost.Check
	// Engine executes strategies concurrently.
	Engine = bifrost.Engine
	// EngineConfig parameterizes NewEngine.
	EngineConfig = bifrost.Config
	// Run is one executing or finished strategy.
	Run = bifrost.Run
	// MetricQuerier is the narrow metric-query interface the engine's
	// check evaluation depends on; any telemetry backend can satisfy it.
	MetricQuerier = bifrost.Querier
)

// ParseStrategy parses the experimentation-as-code DSL.
func ParseStrategy(src string) (*Strategy, error) { return bifrost.ParseStrategy(src) }

// NewEngine creates a strategy execution engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return bifrost.NewEngine(cfg) }

// --- Durability (run journal) ---

type (
	// RunJournal is the write-ahead log run events flow through before
	// their side effects apply (EngineConfig.Journal).
	RunJournal = journal.Journal
	// FileJournalOptions parameterizes OpenFileJournal.
	FileJournalOptions = journal.Options
	// RecoveryReport summarizes an Engine.Recover pass.
	RecoveryReport = bifrost.RecoveryReport
)

// NewMemoryJournal creates an in-process journal (no durability).
func NewMemoryJournal() RunJournal { return journal.NewMemory() }

// OpenFileJournal opens a segmented append-only file journal in dir;
// pair it with Engine.Recover at startup for crash recovery: finished
// runs come back as they ended, in-flight runs re-enter the run loop at
// the position the journal ends on (docs/PERSISTENCE.md, "Recovery
// semantics"). Recover also compacts the journal and reports the
// still-queued submissions.
func OpenFileJournal(dir string, opts FileJournalOptions) (RunJournal, error) {
	return journal.Open(dir, opts)
}

// --- Planning (Fenrir) ---

type (
	// SchedulingProblem bundles experiments, traffic, and constraints.
	SchedulingProblem = fenrir.Problem
	// PlannedExperiment is the planning-phase experiment definition.
	PlannedExperiment = fenrir.Experiment
	// Schedule assigns an execution plan to every experiment.
	Schedule = fenrir.Schedule
	// Optimizer searches for high-fitness schedules.
	Optimizer = fenrir.Optimizer
	// GeneticAlgorithm is the recommended optimizer.
	GeneticAlgorithm = fenrir.GeneticAlgorithm
	// ReevalInput describes a schedule reevaluation request.
	ReevalInput = fenrir.ReevalInput
	// ReevalResult is the reduced problem plus its seed schedule.
	ReevalResult = fenrir.ReevalResult
)

// Reevaluate re-plans an existing schedule after cancellations and
// arrivals.
func Reevaluate(p *SchedulingProblem, s *Schedule, in ReevalInput) (*ReevalResult, error) {
	return fenrir.Reevaluate(p, s, in)
}

// --- Analysis (health assessment) ---

type (
	// TopologyDiff is the topological difference of two variants.
	TopologyDiff = health.Diff
	// TopologyChange is one classified change.
	TopologyChange = health.Change
	// RankingHeuristic orders changes by potential impact.
	RankingHeuristic = health.Heuristic
)

// CompareTopologies diffs baseline and experimental interaction graphs.
var CompareTopologies = health.Compare

// RankChanges orders a diff's changes with a heuristic.
var RankChanges = health.Rank

// AllRankingHeuristics returns the six heuristic variations.
var AllRankingHeuristics = health.AllHeuristics

// --- Live analysis (topology-aware health, docs/HEALTH.md) ---

type (
	// LiveSpanCollector is the bounded, sharded span sink of the live
	// data plane.
	LiveSpanCollector = tracing.LiveCollector
	// HealthMonitor folds settled traces into per-run interaction
	// graphs and answers topology checks; it satisfies the engine's
	// TopologyAssessor (EngineConfig.Topology).
	HealthMonitor = health.Monitor
	// TopologyAssessor is the engine's seam for structural verdicts.
	TopologyAssessor = bifrost.TopologyAssessor
	// TopologyVerdict is one live structural verdict.
	TopologyVerdict = health.LiveVerdict
)

// NewLiveSpanCollector creates a span collector bounded to cap spans
// (cap <= 0 is unbounded).
func NewLiveSpanCollector(cap int) *LiveSpanCollector { return tracing.NewLiveCollector(cap) }

// NewHealthMonitor creates a live assessment monitor over a collector.
// A settle of 0 uses the default span-quiet window.
func NewHealthMonitor(c *LiveSpanCollector, settle time.Duration) *HealthMonitor {
	return health.NewMonitor(c, settle)
}

// HeuristicByName resolves a ranking heuristic by its canonical name.
var HeuristicByName = health.HeuristicByName

// --- Substrates users compose with ---

type (
	// MetricStore is the in-memory telemetry store checks query.
	MetricStore = metrics.Store
	// MetricScope identifies the deployment a metric series belongs to.
	MetricScope = metrics.Scope
	// MetricSample is one observation for batched ingestion
	// (MetricStore.RecordBatch).
	MetricSample = metrics.Sample
	// RoutingTable is the runtime traffic routing table.
	RoutingTable = router.Table
	// TrafficProfile drives experiment scheduling.
	TrafficProfile = traffic.Profile
	// UserGroup identifies a user segment.
	UserGroup = expmodel.UserGroup
	// Practice is a continuous-experimentation practice.
	Practice = expmodel.Practice
)

// NewMetricStore creates a telemetry store. The argument is ignored
// (see metrics.NewStore) and kept for source compatibility.
func NewMetricStore(_ int) *MetricStore { return metrics.NewStore(0) }

// NewRoutingTable creates an empty routing table.
func NewRoutingTable() *RoutingTable { return router.NewTable() }

// Experimentation practices.
const (
	PracticeCanary         = expmodel.PracticeCanary
	PracticeDarkLaunch     = expmodel.PracticeDarkLaunch
	PracticeABTest         = expmodel.PracticeABTest
	PracticeGradualRollout = expmodel.PracticeGradualRollout
	PracticeBlueGreen      = expmodel.PracticeBlueGreen
)
