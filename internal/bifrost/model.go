// Package bifrost implements the paper's execution-phase contribution
// (Chapter 4): a middleware for the automated enactment of multi-phase
// live testing strategies. A strategy chains experimentation practices
// (canary → dark launch → A/B test → gradual rollout) as phases of a
// state machine; each phase routes traffic, runs timed health checks
// against the metric store, and conditional chaining decides what
// happens next — advancing, retrying, or rolling back.
//
// Strategies are specified programmatically or in a domain-specific
// language ("experimentation-as-code", see dsl.go) and executed by the
// Engine (engine.go) on top of runtime traffic routing.
package bifrost

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/tenancy"
)

// Strategy is a multi-phase live testing strategy for one service: the
// execution model of Section 4.3.
type Strategy struct {
	// Name identifies the strategy (and its Run) within the engine.
	Name string
	// Tenant is the canonical tenant that owns the strategy ("" for the
	// default tenant). It is not part of the DSL: the control plane
	// stamps it from the authenticated principal before submission, so
	// a request body can never claim another tenant's namespace. All
	// conflict detection (run names, service ownership, scheduler
	// capacity) and metric series namespacing scope by it.
	Tenant string
	// Service is the service under experimentation.
	Service string
	// Baseline is the stable version users fall back to.
	Baseline string
	// Candidate is the experimental version.
	Candidate string
	// Phases execute in order unless transitions say otherwise. The
	// first phase is the initial state.
	Phases []Phase
}

// RunKey is the engine-wide unique key of the strategy's run: the
// tenant-qualified name. The default tenant's key is the bare name,
// so pre-tenancy journals and single-tenant deployments are unchanged.
func (s *Strategy) RunKey() string { return tenancy.Qualify(s.Tenant, s.Name) }

// RouteService is the routing-table key the strategy manipulates: the
// tenant-qualified service name. Two tenants experimenting on services
// that happen to share a name own disjoint routing entries.
func (s *Strategy) RouteService() string { return tenancy.Qualify(s.Tenant, s.Service) }

// Phase is one state of the strategy's state machine: a user-to-version
// assignment plus the checks guarding it.
type Phase struct {
	// Name identifies the phase within the strategy.
	Name string
	// Practice classifies the phase and selects its traffic semantics.
	Practice expmodel.Practice
	// Traffic configures routing while the phase is active.
	Traffic TrafficSpec
	// Duration is how long the phase observes before concluding. For
	// gradual rollouts the total duration is Steps × StepDuration
	// instead.
	Duration time.Duration
	// MinSamples is the minimum number of candidate observations the
	// primary metric needs before the phase can conclude successfully;
	// fewer means the outcome is inconclusive (the "not enough data
	// collected" re-execution trigger of Section 1.2.3).
	MinSamples int
	// Checks are evaluated on their own intervals while the phase runs
	// (Fig 4.3). A failing check concludes the phase immediately.
	Checks []Check
	// OnSuccess, OnFailure, and OnInconclusive chain the phases
	// conditionally. Zero values default to: success → next phase in
	// order (or promote at the end), failure → rollback, inconclusive
	// → retry once, then failure.
	OnSuccess      Transition
	OnFailure      Transition
	OnInconclusive Transition
	// MaxRetries bounds inconclusive re-executions (default 1).
	MaxRetries int
}

// TrafficSpec describes the routing a phase installs.
type TrafficSpec struct {
	// CandidateWeight is the share of traffic routed to the candidate
	// (canary and A/B phases).
	CandidateWeight float64
	// Mirror duplicates all baseline traffic to the candidate without
	// exposing responses (dark launches).
	Mirror bool
	// Steps is the weight sequence of a gradual rollout.
	Steps []float64
	// StepDuration is the dwell time per rollout step.
	StepDuration time.Duration
	// Groups, when non-empty, restricts the candidate to these user
	// groups via routing rules instead of a random split.
	Groups []expmodel.UserGroup
}

// TransitionKind enumerates what happens after a phase concludes.
type TransitionKind int

// Transition kinds.
const (
	// TransitionNext advances to the next phase in declaration order
	// (promoting when the concluded phase is the last).
	TransitionNext TransitionKind = iota + 1
	// TransitionGoto jumps to a named phase.
	TransitionGoto
	// TransitionRollback reroutes everything to the baseline and ends
	// the run as rolled back.
	TransitionRollback
	// TransitionPromote reroutes everything to the candidate and ends
	// the run as succeeded.
	TransitionPromote
	// TransitionRetry re-executes the concluded phase.
	TransitionRetry
	// TransitionAbort ends the run without touching routing (operator
	// takes over).
	TransitionAbort
)

// String names the kind.
func (k TransitionKind) String() string {
	switch k {
	case TransitionNext:
		return "next"
	case TransitionGoto:
		return "goto"
	case TransitionRollback:
		return "rollback"
	case TransitionPromote:
		return "promote"
	case TransitionRetry:
		return "retry"
	case TransitionAbort:
		return "abort"
	default:
		return fmt.Sprintf("transition(%d)", int(k))
	}
}

// Transition is one conditional-chaining edge.
type Transition struct {
	Kind TransitionKind
	// Target is the phase name for TransitionGoto.
	Target string
}

// CheckKind selects the signal source a check evaluates: the scalar
// metric store or the live topology assessment. The zero value is
// CheckMetric, so every pre-existing check keeps its meaning.
type CheckKind int

// Check kinds.
const (
	// CheckMetric evaluates an aggregated metric series against a
	// threshold (the original Chapter 4 check).
	CheckMetric CheckKind = iota
	// CheckTopology evaluates the Chapter 5 structural comparison: the
	// classified changes between the run's baseline and candidate
	// interaction graphs, ranked by an impact heuristic.
	CheckTopology
)

// String names the kind (the DSL's `kind` attribute values).
func (k CheckKind) String() string {
	switch k {
	case CheckMetric:
		return "metric"
	case CheckTopology:
		return "topology"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CheckScope selects whose metrics a check reads.
type CheckScope int

// Check scopes.
const (
	// ScopeCandidate queries the candidate version's series (default).
	ScopeCandidate CheckScope = iota + 1
	// ScopeBaseline queries the baseline version's series.
	ScopeBaseline
	// ScopeRelative compares candidate against baseline: the check
	// passes when candidate <= Threshold × baseline (for upper-bound
	// checks) — the "apples to apples comparison" of Section 2.6.1.
	ScopeRelative
)

// Check is one timed health criterion (Fig 4.3). Kind selects what it
// evaluates: metric checks read the metric store, topology checks read
// the live interaction-graph comparison.
type Check struct {
	// Name identifies the check in events and reports.
	Name string
	// Kind selects the signal source (default CheckMetric).
	Kind CheckKind
	// Metric is the series name in the metric store (e.g.
	// "response_time"). Metric checks only.
	Metric string
	// Aggregation reduces the window (mean, p95, ...).
	Aggregation metrics.Aggregation
	// Scope selects candidate, baseline, or relative evaluation.
	Scope CheckScope
	// Upper, when true, requires value <= Threshold; otherwise
	// value >= Threshold.
	Upper bool
	// Threshold is the bound (or the relative factor for ScopeRelative).
	Threshold float64
	// Window is how far back observations are read (default: Interval).
	Window time.Duration
	// Interval is how often the check runs (default: engine default).
	Interval time.Duration
	// FailuresToTrip is how many consecutive failing evaluations
	// conclude the phase as failed (default 1: the paper's immediate
	// rollback on spotted irregularities).
	FailuresToTrip int

	// Topology-check attributes (Kind == CheckTopology).

	// Heuristic names the ranking heuristic ("" = the default,
	// subtree-weighted). See health.HeuristicNames.
	Heuristic string
	// MaxChanges is the `max-ranked-changes` bound: the check fails once
	// more than this many disallowed changes are observed (default 0:
	// any disallowed structural change trips the check).
	MaxChanges int
	// MinTraces is how many traces each variant's graph needs before the
	// check is decisive; fewer means inconclusive (default 1).
	MinTraces int
	// Allow lists change classes that do not count against MaxChanges —
	// expected structure shifts such as "updated-callee-version" during
	// a version rollout.
	Allow []string
}

// Outcome of a check evaluation or a phase.
type Outcome int

// Outcomes.
const (
	OutcomePass Outcome = iota + 1
	OutcomeFail
	// OutcomeInconclusive means not enough data was available.
	OutcomeInconclusive
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomePass:
		return "pass"
	case OutcomeFail:
		return "fail"
	case OutcomeInconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Validate checks the strategy for structural soundness: phases exist,
// names are unique, transitions resolve, traffic specs fit their
// practices, checks are well-formed.
func (s *Strategy) Validate() error {
	if s.Name == "" {
		return errors.New("bifrost: strategy without name")
	}
	if s.Service == "" || s.Baseline == "" || s.Candidate == "" {
		return fmt.Errorf("bifrost: %s: service, baseline, and candidate are required", s.Name)
	}
	if s.Baseline == s.Candidate {
		return fmt.Errorf("bifrost: %s: baseline and candidate are both %q", s.Name, s.Baseline)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("bifrost: %s: no phases", s.Name)
	}
	names := make(map[string]bool, len(s.Phases))
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("bifrost: %s: phase %d without name", s.Name, i)
		}
		if names[p.Name] {
			return fmt.Errorf("bifrost: %s: duplicate phase %q", s.Name, p.Name)
		}
		names[p.Name] = true
		if err := p.validate(s.Name); err != nil {
			return err
		}
	}
	// Transitions resolve.
	for i := range s.Phases {
		p := &s.Phases[i]
		for _, tr := range []Transition{p.OnSuccess, p.OnFailure, p.OnInconclusive} {
			if tr.Kind < 0 || tr.Kind > TransitionAbort {
				return fmt.Errorf("bifrost: %s: phase %q has unknown transition %v", s.Name, p.Name, tr.Kind)
			}
			if tr.Kind == TransitionGoto && !names[tr.Target] {
				return fmt.Errorf("bifrost: %s: phase %q transitions to unknown phase %q", s.Name, p.Name, tr.Target)
			}
		}
	}
	return nil
}

func (p *Phase) validate(strategy string) error {
	if p.Practice == 0 {
		return fmt.Errorf("bifrost: %s/%s: practice is required", strategy, p.Name)
	}
	// An attribute the practice does not read (Phase.steps) is rejected,
	// not carried along for one reader to honour and another to drop.
	t := &p.Traffic
	rollout, dark := p.Practice == expmodel.PracticeGradualRollout, p.Practice == expmodel.PracticeDarkLaunch
	problem := ""
	switch {
	case t.Mirror != dark:
		problem = "only a dark launch mirrors, and it always does"
	case rollout && (t.CandidateWeight != 0 || p.Duration != 0):
		problem = "a gradual rollout routes its steps for step-duration each; traffic and duration do not apply"
	case !rollout && (len(t.Steps) > 0 || t.StepDuration != 0):
		problem = "steps and step-duration apply to gradual rollouts only"
	case dark && t.CandidateWeight != 0:
		problem = "a dark launch mirrors every request; traffic does not apply"
	case rollout && len(t.Steps) == 0:
		problem = "gradual rollout without steps"
	case rollout && t.StepDuration <= 0:
		problem = "gradual rollout without step duration"
	case !rollout && p.Duration <= 0:
		problem = "duration is required"
	case t.CandidateWeight < 0 || t.CandidateWeight > 1:
		problem = fmt.Sprintf("candidate weight %v outside [0,1]", t.CandidateWeight)
	case !rollout && !dark && t.CandidateWeight == 0 && len(t.Groups) == 0:
		problem = "phase routes no traffic to the candidate"
	}
	for i := 0; problem == "" && i < len(t.Steps); i++ {
		if w := t.Steps[i]; w <= 0 || w > 1 || i > 0 && w <= t.Steps[i-1] {
			problem = fmt.Sprintf("rollout steps must increase within (0,1], got %v", t.Steps)
		}
	}
	if problem != "" {
		return fmt.Errorf("bifrost: %s/%s: %s", strategy, p.Name, problem)
	}
	for i := range p.Checks {
		c := &p.Checks[i]
		if c.Name == "" {
			return fmt.Errorf("bifrost: %s/%s: check %d without name", strategy, p.Name, i)
		}
		switch c.Kind {
		case CheckMetric:
			if c.Metric == "" {
				return fmt.Errorf("bifrost: %s/%s/%s: metric is required", strategy, p.Name, c.Name)
			}
			if c.Aggregation == 0 {
				return fmt.Errorf("bifrost: %s/%s/%s: aggregation is required", strategy, p.Name, c.Name)
			}
			if c.Scope == ScopeRelative && c.Threshold <= 0 {
				return fmt.Errorf("bifrost: %s/%s/%s: relative checks need a positive factor", strategy, p.Name, c.Name)
			}
		case CheckTopology:
			if c.Metric != "" || c.Aggregation != 0 {
				return fmt.Errorf("bifrost: %s/%s/%s: topology checks take no metric or aggregation", strategy, p.Name, c.Name)
			}
			if _, err := health.HeuristicByName(c.Heuristic); err != nil {
				return fmt.Errorf("bifrost: %s/%s/%s: %w", strategy, p.Name, c.Name, err)
			}
			if c.MaxChanges < 0 {
				return fmt.Errorf("bifrost: %s/%s/%s: max-ranked-changes must be >= 0", strategy, p.Name, c.Name)
			}
			if c.MinTraces < 0 {
				return fmt.Errorf("bifrost: %s/%s/%s: min-traces must be >= 0", strategy, p.Name, c.Name)
			}
			for _, cls := range c.Allow {
				if _, err := health.ParseChangeType(cls); err != nil {
					return fmt.Errorf("bifrost: %s/%s/%s: %w", strategy, p.Name, c.Name, err)
				}
			}
		default:
			return fmt.Errorf("bifrost: %s/%s/%s: unknown check kind %v", strategy, p.Name, c.Name, c.Kind)
		}
	}
	return nil
}

// hasTopologyChecks reports whether any phase gates on the live
// topology assessment, which requires an engine with a configured
// TopologyAssessor.
func (s *Strategy) hasTopologyChecks() bool {
	for i := range s.Phases {
		for j := range s.Phases[i].Checks {
			if s.Phases[i].Checks[j].Kind == CheckTopology {
				return true
			}
		}
	}
	return false
}

// phaseIndex returns the index of a named phase, or -1.
func (s *Strategy) phaseIndex(name string) int {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			return i
		}
	}
	return -1
}

// StateMachine renders the strategy's states and transitions (the
// visualization of Fig 4.2, in text form, used by expctl).
func (s *Strategy) StateMachine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %q on %s (%s -> %s)\n", s.Name, s.Service, s.Baseline, s.Candidate)
	for i := range s.Phases {
		p := &s.Phases[i]
		fmt.Fprintf(&b, "  [%d] %s (%s)", i, p.Name, p.Practice)
		switch p.Practice {
		case expmodel.PracticeGradualRollout:
			fmt.Fprintf(&b, " steps=%v step=%s", p.Traffic.Steps, p.Traffic.StepDuration)
		case expmodel.PracticeDarkLaunch:
			fmt.Fprintf(&b, " mirror duration=%s", p.Duration)
		default:
			fmt.Fprintf(&b, " weight=%.0f%% duration=%s", p.Traffic.CandidateWeight*100, p.Duration)
		}
		b.WriteString("\n")
		for _, c := range p.Checks {
			if c.Kind == CheckTopology {
				heuristic := c.Heuristic
				if heuristic == "" {
					heuristic = "subtree-weighted"
				}
				fmt.Fprintf(&b, "      check %s: topology(%s) ranked-changes <= %d",
					c.Name, heuristic, c.MaxChanges)
				if len(c.Allow) > 0 {
					fmt.Fprintf(&b, " allow %s", strings.Join(c.Allow, ","))
				}
				fmt.Fprintf(&b, " every %s\n", c.Interval)
				continue
			}
			op := ">="
			if c.Upper {
				op = "<="
			}
			scope := ""
			switch c.Scope {
			case ScopeBaseline:
				scope = " on baseline"
			case ScopeRelative:
				scope = " vs baseline"
			}
			fmt.Fprintf(&b, "      check %s: %s(%s) %s %g%s every %s\n",
				c.Name, c.Aggregation, c.Metric, op, c.Threshold, scope, c.Interval)
		}
		fmt.Fprintf(&b, "      success -> %s", describeTransition(p.successTransition()))
		fmt.Fprintf(&b, " | failure -> %s", describeTransition(p.failureTransition()))
		fmt.Fprintf(&b, " | inconclusive -> %s\n", describeTransition(p.inconclusiveTransition()))
	}
	return b.String()
}
