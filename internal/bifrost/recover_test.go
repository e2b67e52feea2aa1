package bifrost

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// newJournalHarness is newHarness with a write-ahead journal attached.
func newJournalHarness(t *testing.T, j journal.Journal) *harness {
	t.Helper()
	h := &harness{
		sim:   clock.NewSim(t0),
		table: router.NewTable(),
		store: metrics.NewStore(0),
	}
	eng, err := NewEngine(Config{Clock: h.sim, Table: h.table, Store: h.store, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	h.engine = eng
	return h
}

// await advances the simulated clock until pred is true (or fails the
// test after a real-time deadline) — the crash-point selector: it stops
// a run mid-phase at a deterministic place in its event log.
func (h *harness) await(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		if d, ok := h.sim.NextDeadline(); ok {
			h.sim.AdvanceTo(d)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func countEvents(run *Run, typ EventType, phase string) int {
	n := 0
	for _, ev := range run.Events() {
		if ev.Type == typ && (phase == "" || ev.Phase == phase) {
			n++
		}
	}
	return n
}

func TestWireRecordRoundTrip(t *testing.T) {
	ev := Event{
		At: t0, Type: EventCheckResult, Phase: "canary", Check: "latency",
		Outcome: OutcomeFail, Detail: "value=512",
	}
	rec, err := appendRecord(nil, "my-run", "", ev, "strategy source", StatusRolledBack)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := decodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Run != "my-run" || wr.Strategy != "strategy source" || wr.Status != StatusRolledBack {
		t.Errorf("envelope fields lost: %+v", wr)
	}
	if got := wr.event(); got != ev {
		t.Errorf("event round trip: got %+v, want %+v", got, ev)
	}
	if _, err := decodeRecord([]byte("not json")); err == nil {
		t.Error("garbage record should fail to decode")
	}
	if _, err := decodeRecord([]byte(`{"type":"x"}`)); err == nil {
		t.Error("record without run should fail to decode")
	}
}

func TestRecoverFinishedRuns(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("pre-crash status = %v", run.Status())
	}
	preEvents := len(run.Events())

	// "Restart": a fresh engine, table, and store recover from the log.
	h2 := newJournalHarness(t, jnl)
	rep, err := h2.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Finished != 1 || len(rep.Runs) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	got, ok := h2.engine.Get("happy")
	if !ok {
		t.Fatal("recovered run not registered")
	}
	if got.Status() != StatusSucceeded {
		t.Errorf("recovered status = %v", got.Status())
	}
	if !got.Recovered() {
		t.Error("run not marked recovered")
	}
	if len(got.Events()) != preEvents {
		t.Errorf("recovered %d events, want %d", len(got.Events()), preEvents)
	}
	// Terminal routing is re-installed: the candidate was promoted.
	route, err := h2.table.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backends) != 1 || route.Backends[0].Version != "v2" {
		t.Errorf("recovered route = %+v", route.Backends)
	}
}

func TestRecoverResumesInterruptedRun(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-canary: at least two check evaluations in, phase not
	// concluded.
	h.await(t, func() bool {
		return countEvents(run, EventCheckResult, "canary") >= 2 &&
			countEvents(run, EventRunFinished, "") == 0
	})
	snap := jnl.Snapshot()
	preEvents := countEvents(run, EventCheckResult, "canary")

	h2 := newJournalHarness(t, snap)
	h2.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	rep, err := h2.engine.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	resumed, ok := h2.engine.Get("happy")
	if !ok {
		t.Fatal("resumed run not registered")
	}
	h2.drive(t, resumed)
	if resumed.Status() != StatusSucceeded {
		t.Fatalf("resumed run status = %v; events %+v", resumed.Status(), resumed.Events())
	}
	// Pre-crash history is intact and the canary phase was re-entered.
	if got := countEvents(resumed, EventCheckResult, "canary"); got < preEvents+1 {
		t.Errorf("check results = %d, want > %d (pre-crash history + resumed checks)", got, preEvents)
	}
	if got := countEvents(resumed, EventPhaseEntered, "canary"); got != 2 {
		t.Errorf("canary entered %d times, want 2 (original + resume)", got)
	}
	var sawRecovery bool
	for _, ev := range resumed.Events() {
		if ev.Type == EventTransition && strings.Contains(ev.Detail, "crash-recovery") {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("no crash-recovery transition recorded")
	}
	// Final routing: candidate promoted.
	route, _ := h2.table.Route("catalog")
	if len(route.Backends) != 1 || route.Backends[0].Version != "v2" {
		t.Errorf("final route = %+v", route.Backends)
	}
}

func TestRecoverRollsBackWhenRetriesExhausted(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].MaxRetries = 1
	// No metrics: the phase concludes inconclusive and retries.
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	// Crash during the second entry (the one retry is consumed).
	h.await(t, func() bool {
		return countEvents(run, EventPhaseEntered, "canary") == 2 &&
			countEvents(run, EventRunFinished, "") == 0
	})
	snap := jnl.Snapshot()

	h2 := newJournalHarness(t, snap)
	rep, err := h2.engine.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Settled != 1 {
		t.Fatalf("report = %+v", rep)
	}
	settled, _ := h2.engine.Get("happy")
	if settled.Status() != StatusRolledBack {
		t.Fatalf("status = %v, want rolled-back (retries exhausted)", settled.Status())
	}
	var why string
	for _, ev := range settled.Events() {
		if ev.Type == EventRunFinished {
			why = ev.Detail
		}
	}
	if !strings.Contains(why, "retries exhausted") {
		t.Errorf("run-finished detail = %q, want reason recorded", why)
	}
	// Users are back on the baseline.
	route, err := h2.table.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backends) != 1 || route.Backends[0].Version != "v1" {
		t.Errorf("rollback route = %+v", route.Backends)
	}
}

func TestRecoverHonorsInconclusiveTransition(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	// The strategy says an inconclusive canary rolls back — so a crash
	// mid-canary must too, not re-enter.
	s.Phases[0].OnInconclusive = Transition{Kind: TransitionRollback}
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.await(t, func() bool { return countEvents(run, EventCheckResult, "canary") >= 1 })
	snap := jnl.Snapshot()

	h2 := newJournalHarness(t, snap)
	rep, err := h2.engine.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Settled != 1 || rep.Resumed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	settled, _ := h2.engine.Get("happy")
	if settled.Status() != StatusRolledBack {
		t.Errorf("status = %v, want rolled-back per strategy transition", settled.Status())
	}
}

func TestRecoverHonorsJournaledPhaseOutcome(t *testing.T) {
	// The phase CONCLUDED as failed before the crash — the rollback's
	// run-finished record was lost in the fsync window. Recovery must
	// honor the journaled failure, even with an adversarial
	// "on inconclusive -> promote" that a re-decided inconclusive
	// outcome would follow straight to promotion.
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].OnInconclusive = Transition{Kind: TransitionPromote}
	jnl := &journal.Memory{}
	appendRec := func(ev Event, dsl string, status RunStatus) {
		t.Helper()
		rec, err := appendRecord(nil, s.Name, "", ev, dsl, status)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(Event{At: t0, Type: EventRunLaunched}, WriteDSL(s), 0)
	appendRec(Event{At: t0, Type: EventPhaseEntered, Phase: "canary"}, "", 0)
	appendRec(Event{At: t0.Add(time.Second), Type: EventPhaseOutcome, Phase: "canary",
		Outcome: OutcomeFail}, "", 0)
	appendRec(Event{At: t0.Add(time.Second), Type: EventTransition, Phase: "canary",
		Detail: "rollback"}, "", 0)

	h := newJournalHarness(t, jnl)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Settled != 1 {
		t.Fatalf("report = %+v", rep)
	}
	run, _ := h.engine.Get(s.Name)
	if run.Status() != StatusRolledBack {
		t.Fatalf("status = %v, want rolled-back (journaled failure must not be re-decided)", run.Status())
	}
	route, err := h.table.Route("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Backends) != 1 || route.Backends[0].Version != "v1" {
		t.Errorf("route = %+v, want baseline", route.Backends)
	}
	var why string
	for _, ev := range run.Events() {
		if ev.Type == EventRunFinished {
			why = ev.Detail
		}
	}
	if !strings.Contains(why, "concluded fail") {
		t.Errorf("run-finished detail = %q, want journaled conclusion cited", why)
	}
}

func TestRecoverHonorsJournaledPassOutcome(t *testing.T) {
	// Conversely, a journaled pass resumes at the NEXT phase instead of
	// re-running the one that already passed.
	s := twoPhaseStrategy()
	jnl := &journal.Memory{}
	for _, rec := range []struct {
		ev     Event
		dsl    string
		status RunStatus
	}{
		{Event{At: t0, Type: EventRunLaunched}, WriteDSL(s), 0},
		{Event{At: t0, Type: EventPhaseEntered, Phase: "canary"}, "", 0},
		{Event{At: t0.Add(time.Minute), Type: EventPhaseOutcome, Phase: "canary",
			Outcome: OutcomePass}, "", 0},
	} {
		b, err := appendRecord(nil, s.Name, "", rec.ev, rec.dsl, rec.status)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	run, _ := h.engine.Get(s.Name)
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
	// The canary is not re-entered: only the journaled entry remains.
	if got := countEvents(run, EventPhaseEntered, "canary"); got != 1 {
		t.Errorf("canary entered %d times, want 1 (passed before crash)", got)
	}
	if got := countEvents(run, EventPhaseEntered, "ab"); got != 1 {
		t.Errorf("ab entered %d times, want 1 (resume point)", got)
	}
}

func TestRecoverCrashBeforeFirstPhase(t *testing.T) {
	// A journal holding only the launch record: the run crashed before
	// entering any phase and resumes from the top.
	s := twoPhaseStrategy()
	rec, err := appendRecord(nil, s.Name, "", Event{At: t0, Type: EventRunLaunched}, WriteDSL(s), 0)
	if err != nil {
		t.Fatal(err)
	}
	jnl := &journal.Memory{}
	if err := jnl.Append(rec); err != nil {
		t.Fatal(err)
	}

	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	run, _ := h.engine.Get(s.Name)
	h.drive(t, run)
	if run.Status() != StatusSucceeded {
		t.Fatalf("status = %v", run.Status())
	}
}

// TestRecoverResumesQuotedValues: a value that is not one identifier (a
// metric starting with a digit, a group holding a space) and a name
// holding an escape are journaled in WriteDSL's canonical form, which
// recovery must reparse to resume the run rather than skip it.
func TestRecoverResumesQuotedValues(t *testing.T) {
	for _, tc := range []struct{ name, dsl string }{
		{"metric", `strategy "errs" { service = "catalog" baseline = "v1" candidate = "v2"
phase "canary" { practice = canary traffic = 5% duration = 1m
check "errors" { metric = "5xx_errors" aggregate = rate max = 1 interval = 10s } } }`},
		{"groups", `strategy "beta" { service = "catalog" baseline = "v1" candidate = "v2"
phase "canary" { practice = canary traffic = 5% duration = 1m groups = "beta users", staff } }`},
		{"escaped name", `strategy "a\\b" { service = "catalog" baseline = "v1" candidate = "v2"
phase "canary" { practice = canary traffic = 5% duration = 1m } }`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseStrategy(tc.dsl)
			if err != nil {
				t.Fatal(err)
			}
			jnl := &journal.Memory{}
			h := newJournalHarness(t, jnl)
			run, err := h.engine.Launch(s)
			if err != nil {
				t.Fatal(err)
			}
			h.await(t, func() bool { return countEvents(run, EventPhaseEntered, "canary") == 1 })
			snap := jnl.Snapshot()

			h2 := newJournalHarness(t, snap)
			rep, err := h2.engine.Recover(snap)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resumed != 1 || rep.Skipped != 0 {
				t.Fatalf("report = %v, runs %+v; want the run resumed", rep, rep.Runs)
			}
			if _, ok := h2.engine.Get(s.Name); !ok {
				t.Fatalf("run %q not registered after recovery", s.Name)
			}
		})
	}
}

func TestRecoverIsIdempotent(t *testing.T) {
	// First recovery settles an interrupted run and journals the
	// decision; a second recovery from the same journal must land on the
	// same terminal state without re-deciding.
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].OnInconclusive = Transition{Kind: TransitionRollback}
	run, err := h.engine.Launch(s)
	if err != nil {
		t.Fatal(err)
	}
	h.await(t, func() bool { return countEvents(run, EventPhaseEntered, "canary") == 1 })
	snap := jnl.Snapshot()

	h2 := newJournalHarness(t, snap)
	if _, err := h2.engine.Recover(snap); err != nil {
		t.Fatal(err)
	}
	first, _ := h2.engine.Get("happy")
	if first.Status() != StatusRolledBack {
		t.Fatalf("first recovery status = %v", first.Status())
	}

	h3 := newJournalHarness(t, snap)
	rep, err := h3.engine.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Finished != 1 || rep.Settled != 0 {
		t.Fatalf("second recovery re-decided: %+v", rep)
	}
	second, _ := h3.engine.Get("happy")
	if second.Status() != StatusRolledBack {
		t.Errorf("second recovery status = %v", second.Status())
	}
}

func TestRecoverRelaunchedNameKeepsLatestGeneration(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 30*time.Minute, 50)
	run1, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run1)
	run2, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run2)

	h2 := newJournalHarness(t, jnl)
	rep, err := h2.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.engine.Runs()) != 1 {
		t.Fatalf("recovered %d runs for one reused name, want 1 (report %+v)", len(h2.engine.Runs()), rep)
	}
	got, _ := h2.engine.Get("happy")
	// The second generation's log is the one kept: its event count
	// matches run2, not run1+run2.
	if len(got.Events()) != len(run2.Events()) {
		t.Errorf("recovered %d events, want the latest generation's %d", len(got.Events()), len(run2.Events()))
	}
}

func TestRunsReturnsLaunchOrder(t *testing.T) {
	h := newHarness(t)
	// Names chosen so launch order and name order disagree.
	names := []string{"zeta", "alpha", "mike", "bravo"}
	for _, name := range names {
		s := twoPhaseStrategy()
		s.Name = name
		s.Service = "svc-" + name
		h.seedMetrics("response_time", s.Service, "v2", "", 10*time.Minute, 50)
		if _, err := h.engine.Launch(s); err != nil {
			t.Fatal(err)
		}
	}
	runs := h.engine.Runs()
	if len(runs) != len(names) {
		t.Fatalf("Runs() = %d entries", len(runs))
	}
	for i, r := range runs {
		if r.Strategy().Name != names[i] {
			t.Errorf("Runs()[%d] = %q, want %q (launch order)", i, r.Strategy().Name, names[i])
		}
	}
	for _, r := range runs {
		r.Abort()
		h.drive(t, r)
	}
}

func TestFileJournalCrashRecovery(t *testing.T) {
	// The full durable path: a FileLog-backed engine is abandoned
	// mid-run (the crash), and a second engine recovers from the same
	// directory — the contexpd --data-dir kill/restart flow without the
	// process boundary.
	dir := t.TempDir()
	log1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := newJournalHarness(t, log1)
	h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	run, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.await(t, func() bool {
		return countEvents(run, EventCheckResult, "canary") >= 2 &&
			countEvents(run, EventRunFinished, "") == 0
	})
	preEvents := len(run.Events())
	if err := log1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: the first engine's goroutines stay parked on its simulated
	// clock, which is never advanced again. Closing log1 releases the
	// directory flock (as process death would); the on-disk state is
	// exactly what the Sync left.
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	h2 := newJournalHarness(t, log2)
	h2.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	rep, err := h2.engine.Recover(log2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	resumed, _ := h2.engine.Get("happy")
	h2.drive(t, resumed)
	if resumed.Status() != StatusSucceeded {
		t.Fatalf("status = %v", resumed.Status())
	}
	if len(resumed.Events()) <= preEvents {
		t.Errorf("history shrank: %d events, had %d before crash", len(resumed.Events()), preEvents)
	}
}

func TestRecoverGotoRevisitsDoNotExhaustRetries(t *testing.T) {
	// Phase "canary" was legitimately re-entered via goto (not retry)
	// before the crash. Re-entry budgeting must count journaled retry
	// transitions, not phase entries, or the goto revisit would be
	// mistaken for an exhausted retry and the run rolled back.
	s := twoPhaseStrategy()
	s.Phases[0].OnSuccess = Transition{Kind: TransitionGoto, Target: "ab"}
	s.Phases[1].OnFailure = Transition{Kind: TransitionGoto, Target: "canary"}
	jnl := &journal.Memory{}
	appendRec := func(ev Event, dsl string) {
		t.Helper()
		rec, err := appendRecord(nil, s.Name, "", ev, dsl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(Event{At: t0, Type: EventRunLaunched}, WriteDSL(s))
	appendRec(Event{At: t0, Type: EventPhaseEntered, Phase: "canary"}, "")
	appendRec(Event{At: t0, Type: EventPhaseOutcome, Phase: "canary", Outcome: OutcomePass}, "")
	appendRec(Event{At: t0, Type: EventTransition, Phase: "canary", Detail: "goto ab"}, "")
	appendRec(Event{At: t0, Type: EventPhaseEntered, Phase: "ab"}, "")
	appendRec(Event{At: t0, Type: EventPhaseOutcome, Phase: "ab", Outcome: OutcomeFail}, "")
	appendRec(Event{At: t0, Type: EventTransition, Phase: "ab", Detail: "goto canary"}, "")
	appendRec(Event{At: t0, Type: EventPhaseEntered, Phase: "canary"}, "")
	// Crash mid-second-canary, no outcome recorded.

	h := newJournalHarness(t, jnl)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 1 || rep.Settled != 0 {
		t.Fatalf("report = %+v, want resume (goto revisits are not retries)", rep)
	}
	run, _ := h.engine.Get(s.Name)
	run.Abort()
	h.drive(t, run)
}

func TestCompactJournalDropsSupersededGenerations(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	h.seedMetrics("response_time", "catalog", "v2", "", 30*time.Minute, 50)
	run1, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run1)
	run2, err := h.engine.Launch(twoPhaseStrategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run2)

	// Recovery compacts before it rebuilds anything.
	h2 := newJournalHarness(t, jnl)
	if _, err := h2.engine.Recover(jnl); err != nil {
		t.Fatal(err)
	}
	launches := 0
	total := 0
	if err := jnl.Replay(func(rec []byte) error {
		total++
		wr, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("compacted journal holds undecodable record: %v", err)
		}
		if wr.Type == EventRunLaunched {
			launches++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if launches != 1 {
		t.Errorf("run-launched records after compaction = %d, want 1 (latest generation)", launches)
	}
	if total != len(run2.Events()) {
		t.Errorf("compacted journal has %d records, want the latest generation's %d", total, len(run2.Events()))
	}
	// The compacted journal still recovers cleanly.
	h3 := newJournalHarness(t, jnl)
	rep, err := h3.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Finished != 1 {
		t.Fatalf("report after compaction = %+v", rep)
	}
}

// countingJournal counts the passes a reader makes over a journal.
type countingJournal struct {
	*journal.Memory
	replays, compacts int
}

func (c *countingJournal) Replay(fn func(rec []byte) error) error {
	c.replays++
	return c.Memory.Replay(fn)
}

func (c *countingJournal) Compact(keep func(rec []byte) bool) error {
	c.compacts++
	return c.Memory.Compact(keep)
}

// TestRecoverReadsJournalOnce holds boot to one pass over the journal:
// Recover replays it once and compacts it once, and the one fold yields
// the runs, the queue and the compacted log together.
func TestRecoverReadsJournalOnce(t *testing.T) {
	jnl := &countingJournal{Memory: &journal.Memory{}}
	var kept [][]byte // the records compaction must leave, in order
	appendRec := func(keep bool, name string, ev Event, dsl string, status RunStatus) {
		t.Helper()
		rec, err := appendRecord(nil, name, "", ev, dsl, status)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
		if keep {
			kept = append(kept, rec)
		}
	}
	finished := func(keep bool, name, service string, status RunStatus) {
		t.Helper()
		appendRec(keep, name, Event{At: t0, Type: EventRunLaunched}, WriteDSL(holdStrategy(name, service, time.Minute)), 0)
		appendRec(keep, name, Event{At: t0, Type: EventPhaseEntered, Phase: "hold"}, "", 0)
		appendRec(keep, name, Event{At: t0.Add(time.Minute), Type: EventRunFinished, Detail: status.String()}, "", status)
	}
	queued := func(keep bool, name, dsl string) {
		t.Helper()
		appendRec(keep, name, Event{At: t0, Type: EventRunQueued}, dsl, 0)
	}
	dsl := func(name string) string { return WriteDSL(holdStrategy(name, "search", time.Minute)) }

	finished(false, "relaunched", "catalog", StatusRolledBack) // superseded below
	queued(false, "consumed", dsl("consumed"))
	appendRec(false, "consumed", Event{At: t0, Type: EventRunScheduled}, "", 0)
	finished(true, "consumed", "checkout", StatusSucceeded)
	if err := jnl.Append([]byte("not a run event")); err != nil {
		t.Fatal(err)
	}
	queued(true, "pending", dsl("pending"))
	queued(false, "canceled", dsl("canceled"))
	appendRec(false, "canceled", Event{At: t0, Type: EventRunDequeued, Detail: "canceled by operator"}, "", 0)
	finished(true, "relaunched", "catalog", StatusSucceeded)
	queued(true, "garbled", `strategy "garbled" {`)
	queued(true, "later", dsl("later"))

	h := newJournalHarness(t, jnl)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if jnl.replays != 1 || jnl.compacts != 1 {
		t.Errorf("Recover made %d replays and %d compactions, want 1 and 1", jnl.replays, jnl.compacts)
	}

	var queue []string
	for _, p := range rep.Queued {
		if p.Strategy.RunKey() != p.Name || !p.QueuedAt.Equal(t0) {
			t.Errorf("queued %q: strategy %q queued at %v", p.Name, p.Strategy.RunKey(), p.QueuedAt)
		}
		queue = append(queue, p.Name)
	}
	if got, want := strings.Join(queue, " "), "pending later"; got != want {
		t.Errorf("queued = %q, want %q (submission order)", got, want)
	}
	if rep.Finished != 2 || rep.Skipped != 1 || rep.DecodeErrors != 1 || len(rep.Runs) != 3 {
		t.Fatalf("report = %s: %+v", rep, rep.Runs)
	}
	if rr := rep.Runs[2]; rr.Name != "garbled" || !strings.HasPrefix(rr.Action, "skipped: queued strategy source unparseable: ") {
		t.Errorf("skipped entry = %+v", rr)
	}
	if run, _ := h.engine.Get("relaunched"); run.Status() != StatusSucceeded {
		t.Errorf("relaunched recovered as %v, want the latest generation's %v", run.Status(), StatusSucceeded)
	}

	got := journalRecords(t, jnl)
	if len(got) != len(kept) {
		t.Fatalf("compacted journal holds %d records, want %d", len(got), len(kept))
	}
	for i := range kept {
		if !bytes.Equal(got[i], kept[i]) {
			t.Errorf("compacted record %d = %s, want %s", i, got[i], kept[i])
		}
	}
}
