package bifrost

import (
	"fmt"
	"strings"
	"time"

	"contexp/internal/expmodel"
)

// A strategy's state machine (Fig 4.2), written once and free of clock,
// journal and router: what a phase routes (steps), what its outcome
// decides (decide), and how a record moves a run's position (apply).

// stage is how far a run got inside its cursor's phase. The stages are
// one record apart, in journal order, and each implies the ones before.
type stage int

const (
	stageLaunched  stage = iota // not entered yet: where every phase starts
	stageEntered                // entered, no outcome: only a restart leaves a run here
	stageConcluded              // phase-outcome recorded, transition not decided
	stageDecided                // transition recorded, its effect not applied
)

// cursor is a run's position in its state machine: the fold of the run's
// records through apply, as the run loop writes them (Run.move) or as
// recovery and the report read them back.
type cursor struct {
	idx     int // phase index; outside the strategy's phases it is the promote position
	stage   stage
	outcome Outcome        // the phase's outcome, from stageConcluded on
	tr      Transition     // the decision, from stageDecided on
	retries map[string]int // retry transitions each phase has consumed
	// recovering marks the one step Engine.Recover takes from a journaled
	// position: it observes nothing and its records say so; why is the
	// reason they, and the recovery report, cite.
	recovering bool
	why        string
}

// What a recovering step's transition records say; apply reads both back.
const (
	recoveryNote = "crash-recovery: "
	resumingAt   = "resuming at phase "
)

// apply moves c by one of s's run records: phase-entered, phase-outcome,
// a transition (charging a retry decision to its phase), or recovery's
// resuming-at marker. Anything else — other record types, and records
// that do not fit where c stands, such as a decision about another
// phase — leaves c as it is.
func (c *cursor) apply(s *Strategy, ev Event) {
	switch ev.Type {
	case EventPhaseEntered:
		if pi := s.phaseIndex(ev.Phase); pi >= 0 {
			c.idx, c.stage = pi, stageEntered
		}
	case EventPhaseOutcome:
		if c.stage == stageEntered && ev.Phase == s.Phases[c.idx].Name && ev.Outcome != 0 {
			c.stage, c.outcome = stageConcluded, ev.Outcome
		}
	case EventTransition:
		detail := strings.TrimPrefix(ev.Detail, recoveryNote)
		if at, ok := strings.CutPrefix(detail, resumingAt); ok {
			// A recovery's marker: about to enter phase `at`.
			if pi := s.phaseIndex(at); pi >= 0 || at == promotePosition {
				c.idx, c.stage = pi, stageLaunched
			}
			return
		}
		tr, ok := parseTransition(detail)
		if !ok || c.stage != stageConcluded || ev.Phase != s.Phases[c.idx].Name ||
			(tr.Kind == TransitionGoto && s.phaseIndex(tr.Target) < 0) {
			return // not a decision about the current phase
		}
		c.stage, c.tr = stageDecided, tr
		if tr.Kind == TransitionRetry {
			if c.retries == nil {
				c.retries = make(map[string]int, len(s.Phases))
			}
			c.retries[ev.Phase]++
		}
	}
}

// decide resolves a concluded phase's outcome into a transition through
// the phase's conditional chaining, given the retries the phase has
// consumed. A retry past the phase's budget falls through to the failure
// transition, and the returned note says so.
func (p *Phase) decide(outcome Outcome, retried int) (Transition, string) {
	switch {
	case outcome == OutcomePass:
		return p.successTransition(), ""
	case outcome == OutcomeFail:
		return p.failureTransition(), ""
	case p.inconclusiveTransition().Kind == TransitionRetry && retried >= p.maxRetries():
		return p.failureTransition(), fmt.Sprintf("; retries exhausted (%d of %d consumed)", retried, p.maxRetries())
	}
	return p.inconclusiveTransition(), ""
}

// steps is the phase's traffic plan, which execution and the scheduler
// both read: the candidate weights it routes in order, each for dwell — a
// rollout's Steps for StepDuration each, or one window of CandidateWeight
// (0 when mirroring, which exposes no user) for Duration.
func (p *Phase) steps() (weights []float64, dwell time.Duration) {
	t := &p.Traffic
	switch {
	case p.Practice == expmodel.PracticeGradualRollout:
		return t.Steps, t.StepDuration
	case t.Mirror:
		return []float64{0}, p.Duration
	}
	return []float64{t.CandidateWeight}, p.Duration
}

// effective transition resolution -------------------------------------------------

func (p *Phase) successTransition() Transition {
	if p.OnSuccess.Kind == 0 {
		return Transition{Kind: TransitionNext}
	}
	return p.OnSuccess
}

func (p *Phase) failureTransition() Transition {
	if p.OnFailure.Kind == 0 {
		return Transition{Kind: TransitionRollback}
	}
	return p.OnFailure
}

func (p *Phase) inconclusiveTransition() Transition {
	if p.OnInconclusive.Kind == 0 {
		return Transition{Kind: TransitionRetry}
	}
	return p.OnInconclusive
}

func (p *Phase) maxRetries() int {
	if p.MaxRetries <= 0 {
		return 1
	}
	return p.MaxRetries
}

func describeTransition(t Transition) string {
	if t.Kind == TransitionGoto {
		return "goto " + t.Target
	}
	return t.Kind.String()
}

// parseTransition is describeTransition's inverse, for decisions read
// back from the journal.
func parseTransition(text string) (Transition, bool) {
	if target, ok := strings.CutPrefix(text, "goto "); ok {
		return Transition{Kind: TransitionGoto, Target: target}, true
	}
	for k := TransitionNext; k <= TransitionAbort; k++ {
		if k != TransitionGoto && k.String() == text {
			return Transition{Kind: k}, true
		}
	}
	return Transition{}, false
}

// promotePosition names the position past a strategy's last phase.
const promotePosition = "(promote)"

// phaseName names a phase index, tolerating out-of-range (the promote
// position).
func phaseName(s *Strategy, idx int) string {
	if idx < 0 || idx >= len(s.Phases) {
		return promotePosition
	}
	return s.Phases[idx].Name
}
