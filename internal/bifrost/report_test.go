package bifrost

import (
	"strings"
	"testing"
	"time"
)

func TestBuildReportHappyPath(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)

	rep := run.BuildReport()
	if rep.Status != "succeeded" {
		t.Errorf("status = %q", rep.Status)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	for _, p := range rep.Phases {
		if p.Outcome != "pass" {
			t.Errorf("phase %s outcome = %q", p.Phase, p.Outcome)
		}
		if p.Checks == 0 {
			t.Errorf("phase %s recorded no check evaluations", p.Phase)
		}
		if p.Duration <= 0 {
			t.Errorf("phase %s duration = %v", p.Phase, p.Duration)
		}
	}
	if rep.Duration <= 0 || rep.Finished.Before(rep.Started) {
		t.Errorf("timing wrong: %+v", rep)
	}
	if rep.CheckFailures != 0 || rep.Retries != 0 {
		t.Errorf("unexpected failures/retries: %+v", rep)
	}
}

func TestBuildReportWithRetriesAndFailures(t *testing.T) {
	h := newHarness(t)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].MaxRetries = 2
	// No metrics: retries then rollback.
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	rep := run.BuildReport()
	if rep.Status != "rolled-back" {
		t.Errorf("status = %q", rep.Status)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	if len(rep.Phases) != 3 {
		t.Errorf("phase entries = %d, want 3 (initial + 2 retries)", len(rep.Phases))
	}
}

// TestBuildReportCountsRetryDecisions: Retries is what recovery charges —
// the retry transitions the trail records, a recovered one included —
// not how often a phase was entered, which a goto revisit repeats too.
func TestBuildReportCountsRetryDecisions(t *testing.T) {
	s := twoPhaseStrategy()
	s.Phases[1].OnFailure = Transition{Kind: TransitionGoto, Target: "canary"}
	entered := func(phase string) Event { return Event{At: t0, Type: EventPhaseEntered, Phase: phase} }
	concluded := func(phase string, o Outcome) Event {
		return Event{At: t0, Type: EventPhaseOutcome, Phase: phase, Outcome: o}
	}
	decided := func(phase, detail string) Event {
		return Event{At: t0, Type: EventTransition, Phase: phase, Detail: detail}
	}
	for _, tc := range []struct {
		name   string
		events []Event
		want   int
	}{
		{"goto revisit", []Event{
			entered("canary"), concluded("canary", OutcomePass), decided("canary", "next"),
			entered("ab"), concluded("ab", OutcomeFail), decided("ab", "goto canary"),
			entered("canary"),
		}, 0},
		{"inconclusive then retry", []Event{
			entered("canary"), concluded("canary", OutcomeInconclusive), decided("canary", "retry"),
			entered("canary"),
		}, 1},
		{"recovered retry", []Event{
			entered("canary"), concluded("canary", OutcomeInconclusive),
			decided("canary", "crash-recovery: retry"),
			decided("canary", "crash-recovery: resuming at phase canary"),
			entered("canary"),
		}, 1},
	} {
		run := &Run{strategy: s, status: StatusRunning, log: &runLog{events: trailOf(tc.events)}}
		if got := run.BuildReport().Retries; got != tc.want {
			t.Errorf("%s: Retries = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestReportRender(t *testing.T) {
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 500) // failing
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	rep := run.BuildReport()
	out := rep.Render()
	for _, want := range []string{"experiment report", "rolled-back", "canary"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if rep.CheckFailures == 0 {
		t.Error("failing run should record check failures")
	}
}
