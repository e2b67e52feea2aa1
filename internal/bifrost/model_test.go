package bifrost

import (
	"strings"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/metrics"
)

// validStrategy returns a structurally sound two-phase strategy.
func validStrategy() *Strategy {
	return &Strategy{
		Name:      "test",
		Service:   "catalog",
		Baseline:  "v1",
		Candidate: "v2",
		Phases: []Phase{
			{
				Name:     "canary",
				Practice: expmodel.PracticeCanary,
				Traffic:  TrafficSpec{CandidateWeight: 0.05},
				Duration: 10 * time.Minute,
				Checks: []Check{{
					Name: "latency", Metric: "response_time",
					Aggregation: metrics.AggP95, Upper: true, Threshold: 250,
					Interval: 10 * time.Second,
				}},
			},
			{
				Name:     "rollout",
				Practice: expmodel.PracticeGradualRollout,
				Traffic: TrafficSpec{
					Steps:        []float64{0.25, 0.5, 1.0},
					StepDuration: 5 * time.Minute,
				},
				OnSuccess: Transition{Kind: TransitionPromote},
			},
		},
	}
}

func TestStrategyValidateOK(t *testing.T) {
	if err := validStrategy().Validate(); err != nil {
		t.Fatalf("valid strategy rejected: %v", err)
	}
}

func TestStrategyValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Strategy)
		wantSub string
	}{
		{"no name", func(s *Strategy) { s.Name = "" }, "without name"},
		{"no service", func(s *Strategy) { s.Service = "" }, "required"},
		{"same versions", func(s *Strategy) { s.Candidate = s.Baseline }, "both"},
		{"no phases", func(s *Strategy) { s.Phases = nil }, "no phases"},
		{"unnamed phase", func(s *Strategy) { s.Phases[0].Name = "" }, "without name"},
		{"duplicate phase", func(s *Strategy) { s.Phases[1].Name = "canary" }, "duplicate"},
		{"no practice", func(s *Strategy) { s.Phases[0].Practice = 0 }, "practice is required"},
		{"zero duration", func(s *Strategy) { s.Phases[0].Duration = 0 }, "duration is required"},
		{"no traffic", func(s *Strategy) { s.Phases[0].Traffic.CandidateWeight = 0 }, "routes no traffic"},
		{"weight above 1", func(s *Strategy) { s.Phases[0].Traffic.CandidateWeight = 1.5 }, "outside"},
		{"rollout no steps", func(s *Strategy) { s.Phases[1].Traffic.Steps = nil }, "without steps"},
		{"rollout no step duration", func(s *Strategy) { s.Phases[1].Traffic.StepDuration = 0 }, "step duration"},
		{"rollout decreasing steps", func(s *Strategy) { s.Phases[1].Traffic.Steps = []float64{0.5, 0.25} }, "must increase"},
		{"check no name", func(s *Strategy) { s.Phases[0].Checks[0].Name = "" }, "without name"},
		{"check no metric", func(s *Strategy) { s.Phases[0].Checks[0].Metric = "" }, "metric is required"},
		{"check no aggregation", func(s *Strategy) { s.Phases[0].Checks[0].Aggregation = 0 }, "aggregation"},
		{"goto unknown phase", func(s *Strategy) {
			s.Phases[0].OnSuccess = Transition{Kind: TransitionGoto, Target: "ghost"}
		}, "unknown phase"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validStrategy()
			tt.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestDarkLaunchValidation(t *testing.T) {
	s := validStrategy()
	s.Phases[0].Practice = expmodel.PracticeDarkLaunch
	s.Phases[0].Traffic = TrafficSpec{} // no mirror
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "mirror") {
		t.Errorf("dark launch without mirror: %v", err)
	}
	s.Phases[0].Traffic.Mirror = true
	if err := s.Validate(); err != nil {
		t.Errorf("dark launch with mirror rejected: %v", err)
	}
}

// TestValidateRejectsWhatNoPracticeReads: a phase's traffic is read
// through Phase.steps, by execution and by the scheduler alike, so an
// attribute its practice would not read is an error rather than a value
// one reader honours and another drops (WriteDSL, for one, does not
// journal it).
func TestValidateRejectsWhatNoPracticeReads(t *testing.T) {
	dark := func(s *Strategy) {
		s.Phases[0].Practice = expmodel.PracticeDarkLaunch
		s.Phases[0].Traffic = TrafficSpec{Mirror: true}
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Strategy)
		wantSub string
	}{
		{"canary with steps", func(s *Strategy) { s.Phases[0].Traffic.Steps = []float64{0.2, 0.5} }, "gradual rollouts only"},
		{"canary with step duration", func(s *Strategy) { s.Phases[0].Traffic.StepDuration = time.Minute }, "gradual rollouts only"},
		{"rollout with traffic", func(s *Strategy) { s.Phases[1].Traffic.CandidateWeight = 0.9 }, "traffic and duration do not apply"},
		{"rollout with duration", func(s *Strategy) { s.Phases[1].Duration = time.Hour }, "traffic and duration do not apply"},
		{"dark launch with traffic", func(s *Strategy) { dark(s); s.Phases[0].Traffic.CandidateWeight = 0.1 }, "traffic does not apply"},
		{"mirrored canary", func(s *Strategy) { s.Phases[0].Traffic.Mirror = true }, "only a dark launch mirrors"},
		{"unknown transition", func(s *Strategy) { s.Phases[0].OnFailure = Transition{Kind: 99} }, "unknown transition"},
	} {
		s := validStrategy()
		tc.mutate(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestRelativeCheckValidation(t *testing.T) {
	s := validStrategy()
	s.Phases[0].Checks[0].Scope = ScopeRelative
	s.Phases[0].Checks[0].Threshold = 0
	if err := s.Validate(); err == nil {
		t.Error("relative check with zero factor should fail")
	}
}

func TestParseTransitionInvertsDescribe(t *testing.T) {
	for _, tr := range []Transition{
		{Kind: TransitionNext}, {Kind: TransitionGoto, Target: "ab test"},
		{Kind: TransitionRollback}, {Kind: TransitionPromote},
		{Kind: TransitionRetry}, {Kind: TransitionAbort},
	} {
		if got, ok := parseTransition(describeTransition(tr)); !ok || got != tr {
			t.Errorf("parseTransition(%q) = %+v, %v; want %+v", describeTransition(tr), got, ok, tr)
		}
	}
	for _, text := range []string{"", "goto", "resuming at phase ab", "transition(9)", "abort; no assessor"} {
		if tr, ok := parseTransition(text); ok {
			t.Errorf("parseTransition(%q) = %+v, want no transition", text, tr)
		}
	}
}

func TestDefaultTransitions(t *testing.T) {
	p := &Phase{}
	if got := p.successTransition(); got.Kind != TransitionNext {
		t.Errorf("default success = %v", got)
	}
	if got := p.failureTransition(); got.Kind != TransitionRollback {
		t.Errorf("default failure = %v", got)
	}
	if got := p.inconclusiveTransition(); got.Kind != TransitionRetry {
		t.Errorf("default inconclusive = %v", got)
	}
	if p.maxRetries() != 1 {
		t.Errorf("default retries = %d", p.maxRetries())
	}
	p.MaxRetries = 3
	if p.maxRetries() != 3 {
		t.Errorf("retries = %d", p.maxRetries())
	}
}

func TestPhaseIndex(t *testing.T) {
	s := validStrategy()
	if s.phaseIndex("canary") != 0 || s.phaseIndex("rollout") != 1 {
		t.Error("phaseIndex wrong")
	}
	if s.phaseIndex("ghost") != -1 {
		t.Error("unknown phase should return -1")
	}
}

func TestStateMachineRender(t *testing.T) {
	s := validStrategy()
	s.Phases[0].Checks = append(s.Phases[0].Checks, Check{
		Name: "regression", Metric: "response_time", Aggregation: metrics.AggMean,
		Scope: ScopeRelative, Upper: true, Threshold: 1.25,
	})
	out := s.StateMachine()
	for _, want := range []string{"canary", "rollout", "gradual-rollout", "vs baseline",
		"success -> next", "failure -> rollback", "promote", "p95(response_time) <= 250"} {
		if !strings.Contains(out, want) {
			t.Errorf("StateMachine missing %q:\n%s", want, out)
		}
	}
}

func TestOutcomeAndStatusStrings(t *testing.T) {
	if OutcomePass.String() != "pass" || OutcomeFail.String() != "fail" ||
		OutcomeInconclusive.String() != "inconclusive" {
		t.Error("outcome names wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome should stringify")
	}
	for _, k := range []TransitionKind{TransitionNext, TransitionGoto, TransitionRollback,
		TransitionPromote, TransitionRetry, TransitionAbort} {
		if k.String() == "" {
			t.Error("transition kind should stringify")
		}
	}
	for _, st := range []RunStatus{StatusRunning, StatusSucceeded, StatusRolledBack, StatusAborted} {
		if st.String() == "" {
			t.Error("status should stringify")
		}
	}
	if RunStatus(9).String() == "" || TransitionKind(9).String() == "" {
		t.Error("unknown values should stringify")
	}
}
