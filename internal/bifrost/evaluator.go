package bifrost

import (
	"fmt"
	"strings"
	"time"

	"contexp/internal/health"
	"contexp/internal/metrics"
)

// This file is the engine's check-evaluation seam: every check kind is
// evaluated behind the common CheckEvaluator interface, so the phase
// loop (engine.go) is agnostic to what a check actually reads. The
// metric querier (Chapter 4's scalar checks) and the topology assessor
// (Chapter 5's structural comparison) are the two built-in
// implementations; future signal sources (log anomaly scores, SLO
// burn rates, ...) plug in as further kinds without touching the phase
// state machine.

// CheckResult is the outcome of one check evaluation.
type CheckResult struct {
	// Outcome is pass, fail, or inconclusive (not enough data).
	Outcome Outcome
	// Value is the observed scalar the check compared (metric value, or
	// the disallowed-change count for topology checks).
	Value float64
	// Detail is extra human-readable context carried into the run event.
	Detail string
}

// CheckEvaluator evaluates checks of one kind against its signal
// source, on behalf of the run r whose goroutine is calling.
type CheckEvaluator interface {
	Evaluate(r *Run, p *Phase, c *Check, now time.Time) CheckResult
}

// TopologyAssessor is the narrow surface the engine's topology checks
// depend on: the live analysis plane (health.Monitor) implements it.
// Register/Freeze bracket a run's assessment lifecycle; Verdict returns
// the current classified, ranked structural difference.
type TopologyAssessor interface {
	// Register starts assessment for a run of service at instant at
	// (the engine's clock): traces carrying the baseline or candidate
	// version feed the respective graph, traces ended before at do not.
	Register(run, service, baseline, candidate string, at time.Time)
	// Freeze stops folding new traces for a finished run while keeping
	// the accumulated assessment readable.
	Freeze(run string)
	// Verdict returns the run's current topology verdict under the named
	// heuristic ("" = default).
	Verdict(run, heuristic string) (*health.LiveVerdict, error)
}

var _ TopologyAssessor = (*health.Monitor)(nil)

// --- metric checks ---

// metricEvaluator is the original Chapter 4 check: an aggregation over
// a metric-store window compared against a threshold, in candidate,
// baseline, or relative scope.
type metricEvaluator struct{}

func (metricEvaluator) Evaluate(r *Run, p *Phase, c *Check, now time.Time) CheckResult {
	e, s := r.engine, r.strategy
	window := c.Window
	if window <= 0 {
		window = e.checkInterval(c)
	}
	since := now.Add(-window)

	// Identical (metric, scope, window, aggregation) queries this run
	// makes at the same instant — sibling checks in the batch, the
	// conclude-time re-evaluation — are computed once (dispatch.go).
	query := func(scope metrics.Scope) (float64, error) {
		return r.query(c.Metric, scope, since, c.Aggregation, now)
	}

	switch c.Scope {
	case ScopeBaseline:
		v, err := query(metrics.Scope{Tenant: s.Tenant, Service: s.Service, Version: s.Baseline})
		if err != nil {
			return CheckResult{Outcome: OutcomeInconclusive}
		}
		return CheckResult{Outcome: compare(v, c), Value: v}
	case ScopeRelative:
		cand, err := query(e.candidateScope(s, p))
		if err != nil {
			return CheckResult{Outcome: OutcomeInconclusive}
		}
		base, err := query(metrics.Scope{Tenant: s.Tenant, Service: s.Service, Version: s.Baseline})
		if err != nil {
			return CheckResult{Outcome: OutcomeInconclusive, Value: cand}
		}
		bound := c.Threshold * base
		pass := cand <= bound
		if !c.Upper {
			pass = cand >= bound
		}
		if pass {
			return CheckResult{Outcome: OutcomePass, Value: cand}
		}
		return CheckResult{Outcome: OutcomeFail, Value: cand}
	default: // ScopeCandidate and zero value
		v, err := query(e.candidateScope(s, p))
		if err != nil {
			return CheckResult{Outcome: OutcomeInconclusive}
		}
		return CheckResult{Outcome: compare(v, c), Value: v}
	}
}

// --- topology checks ---

// topologyEvaluator gates phases on the live structural comparison:
// the classified changes between the run's baseline and candidate
// interaction graphs, minus the strategy's allowed change classes,
// ranked by the configured impact heuristic. More disallowed changes
// than max-ranked-changes fails the check.
type topologyEvaluator struct{}

func (topologyEvaluator) Evaluate(r *Run, p *Phase, c *Check, now time.Time) CheckResult {
	s := r.strategy
	topo := r.engine.cfg.Topology
	if topo == nil {
		return CheckResult{Outcome: OutcomeInconclusive, Detail: "no topology assessor configured"}
	}
	v, err := topo.Verdict(s.RunKey(), c.Heuristic)
	if err != nil {
		return CheckResult{Outcome: OutcomeInconclusive, Detail: err.Error()}
	}
	need := c.MinTraces
	if need <= 0 {
		need = 1
	}
	if v.BaselineTraces < need || v.CandidateTraces < need {
		return CheckResult{
			Outcome: OutcomeInconclusive,
			Detail: fmt.Sprintf("insufficient traces: baseline=%d candidate=%d (need %d each)",
				v.BaselineTraces, v.CandidateTraces, need),
		}
	}
	allowed := make(map[string]bool, len(c.Allow))
	for _, cls := range c.Allow {
		allowed[cls] = true
	}
	var disallowed []health.RankedChange
	for _, ch := range v.Changes {
		if !allowed[ch.Class] {
			disallowed = append(disallowed, ch)
		}
	}
	res := CheckResult{Value: float64(len(disallowed))}
	if len(disallowed) > c.MaxChanges {
		res.Outcome = OutcomeFail
	} else {
		res.Outcome = OutcomePass
	}
	res.Detail = topologyDetail(v, disallowed, c.MaxChanges)
	return res
}

// topologyDetail renders the verdict for the run's event trail: the
// evidence base, the counts, and the top-ranked disallowed changes.
func topologyDetail(v *health.LiveVerdict, disallowed []health.RankedChange, maxChanges int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "heuristic=%s changes=%d disallowed=%d max=%d baseline-traces=%d candidate-traces=%d",
		v.Heuristic, len(v.Changes), len(disallowed), maxChanges, v.BaselineTraces, v.CandidateTraces)
	for i, ch := range disallowed {
		if i >= 3 {
			fmt.Fprintf(&b, "; +%d more", len(disallowed)-i)
			break
		}
		fmt.Fprintf(&b, "; %s: %s (score=%.3g)", ch.Class, ch.Edge, ch.Score)
	}
	return b.String()
}
