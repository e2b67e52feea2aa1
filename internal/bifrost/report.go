package bifrost

import (
	"fmt"
	"strings"
	"time"
)

// This file turns a run's audit trail into the report teams share
// after an experiment — part of the experimentation-as-code story: the
// strategy, its execution, and its outcome are all plain, versionable
// text.

// Report summarizes a finished (or running) strategy run.
type Report struct {
	Strategy  string
	Service   string
	Baseline  string
	Candidate string
	Status    string
	Started   time.Time
	Finished  time.Time
	Duration  time.Duration
	Phases    []PhaseReport
	// CheckFailures counts failing check evaluations across the run.
	CheckFailures int
	// Retries counts the retry decisions the run recorded — the ones
	// recovery charges against a phase's budget; a goto revisit is not one.
	Retries int
}

// PhaseReport is one phase's execution summary.
type PhaseReport struct {
	Phase    string
	Entered  time.Time
	Outcome  string
	Duration time.Duration
	Checks   int
	Failures int
}

// BuildReport assembles a Report from a run's events.
func (r *Run) BuildReport() Report {
	events := r.Events()
	s := r.Strategy()
	rep := Report{
		Strategy:  s.Name,
		Service:   s.Service,
		Baseline:  s.Baseline,
		Candidate: s.Candidate,
		Status:    r.Status().String(),
	}
	if len(events) > 0 {
		rep.Started = events[0].At
	}
	var cur *PhaseReport
	var c cursor
	for _, ev := range events {
		c.apply(s, ev)
		switch ev.Type {
		case EventPhaseEntered:
			rep.Phases = append(rep.Phases, PhaseReport{Phase: ev.Phase, Entered: ev.At})
			cur = &rep.Phases[len(rep.Phases)-1]
		case EventCheckResult:
			if cur != nil {
				cur.Checks++
				if ev.Outcome == OutcomeFail {
					cur.Failures++
					rep.CheckFailures++
				}
			}
		case EventPhaseOutcome:
			if cur != nil {
				cur.Outcome = ev.Outcome.String()
				cur.Duration = ev.At.Sub(cur.Entered)
			}
		case EventRunFinished:
			rep.Finished = ev.At
			rep.Duration = ev.At.Sub(rep.Started)
		}
	}
	for _, n := range c.retries {
		rep.Retries += n
	}
	return rep
}

// Render formats the report for humans.
func (rep Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment report: %s (%s: %s -> %s)\n",
		rep.Strategy, rep.Service, rep.Baseline, rep.Candidate)
	fmt.Fprintf(&b, "status: %s", rep.Status)
	if rep.Duration > 0 {
		fmt.Fprintf(&b, " after %s", rep.Duration)
	}
	if rep.Retries > 0 {
		fmt.Fprintf(&b, " (%d phase retries)", rep.Retries)
	}
	b.WriteString("\n")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "  %-12s %-13s checks=%d failures=%d",
			p.Phase, p.Outcome, p.Checks, p.Failures)
		if p.Duration > 0 {
			fmt.Fprintf(&b, " duration=%s", p.Duration)
		}
		b.WriteString("\n")
	}
	return b.String()
}
