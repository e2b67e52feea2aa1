package bifrost

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"contexp/internal/clock"
	"contexp/internal/expmodel"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tenancy"
)

// newScheduler wires a scheduler to a harness engine.
func (h *harness) newScheduler(t *testing.T, jnl journal.Journal, mutate func(*SchedulerConfig)) *Scheduler {
	t.Helper()
	cfg := SchedulerConfig{Engine: h.engine, Journal: jnl}
	if mutate != nil {
		mutate(&cfg)
	}
	sched, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// rebasedStrategy is twoPhaseStrategy with its identity rebased.
func rebasedStrategy(name, service string) *Strategy {
	s := twoPhaseStrategy()
	s.Name, s.Service = name, service
	return s
}

// holdStrategy runs one canary phase for `hold` with no checks, so it
// stays running until the sim clock passes the phase end.
func holdStrategy(name, service string, hold time.Duration) *Strategy {
	return &Strategy{
		Name: name, Service: service, Baseline: "v1", Candidate: "v2",
		Phases: []Phase{{
			Name: "hold", Practice: expmodel.PracticeCanary,
			Traffic:   TrafficSpec{CandidateWeight: 0.1},
			Duration:  hold,
			OnSuccess: Transition{Kind: TransitionPromote},
		}},
	}
}

// queued reports whether a submission with this tenant-qualified name
// is waiting in sched's queue.
func queued(sched *Scheduler, name string) bool {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	return slices.ContainsFunc(sched.queue, func(qe *queueEntry) bool { return qe.strategy.RunKey() == name })
}

// waitFor drives the sim clock until cond holds or a real deadline
// passes.
func (h *harness) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if d, ok := h.sim.NextDeadline(); ok {
			h.sim.AdvanceTo(d)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestSchedulerDisjointServicesRunConcurrently(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil)

	a, err := sched.Submit(holdStrategy("exp-a", "catalog", time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Submit(holdStrategy("exp-b", "checkout", time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if a.Queued || a.Run == nil {
		t.Fatalf("first submission should launch immediately: %+v", a)
	}
	if b.Queued || b.Run == nil {
		t.Fatalf("disjoint-service submission should launch immediately: %+v", b)
	}
	if a.Run.Status() != StatusRunning || b.Run.Status() != StatusRunning {
		t.Fatalf("both runs should be live: %v / %v", a.Run.Status(), b.Run.Status())
	}
	snap := sched.Snapshot()
	if len(snap.Running) != 2 || len(snap.Queue) != 0 {
		t.Fatalf("snapshot: %d running, %d queued", len(snap.Running), len(snap.Queue))
	}
}

func TestSchedulerSameServiceSerializes(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	sched := h.newScheduler(t, jnl, nil)

	first, err := sched.Submit(holdStrategy("first", "catalog", 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if first.Queued {
		t.Fatal("first submission should launch")
	}
	second, err := sched.Submit(holdStrategy("second", "catalog", 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Queued {
		t.Fatal("same-service submission should queue")
	}
	if !strings.Contains(second.Entry.Reason, "service") {
		t.Errorf("queue reason should name the service conflict, got %q", second.Entry.Reason)
	}
	if second.Entry.PlannedStart.IsZero() {
		t.Error("queued entry should carry a projected start")
	}
	if !queued(sched, "second") {
		t.Error("the waiting entry should be queued")
	}

	// The first run concluding frees the service; the queue pump
	// launches the second without any new submission.
	h.waitFor(t, "first run to finish", func() bool {
		return first.Run.Status() != StatusRunning
	})
	h.waitFor(t, "second run to launch", func() bool {
		run, ok := h.engine.Get("second")
		return ok && run.Status() == StatusRunning
	})
	if queued(sched, "second") {
		t.Error("launched entry should have left the queue")
	}

	// The journal carries the full lifecycle in order: queued →
	// scheduled → launched. (Launch publishes the run before appending
	// its journal record, so poll.)
	want := []EventType{EventRunQueued, EventRunScheduled, EventRunLaunched}
	lifecycle := func() []EventType {
		var got []EventType
		_ = jnl.Replay(func(rec []byte) error {
			wr, err := decodeRecord(rec)
			if err != nil {
				return err
			}
			if wr.Run == "second" &&
				(queueLifecycle(wr.Type) || wr.Type == EventRunLaunched) {
				got = append(got, wr.Type)
			}
			return nil
		})
		return got
	}
	h.waitFor(t, "lifecycle to reach the journal", func() bool {
		return len(lifecycle()) >= len(want)
	})
	got := lifecycle()
	if len(got) != len(want) {
		t.Fatalf("lifecycle = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lifecycle[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSchedulerMaxConcurrentGate(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.MaxConcurrent = 1 })

	if res, err := sched.Submit(holdStrategy("one", "catalog", time.Hour)); err != nil || res.Queued {
		t.Fatalf("first: %+v, %v", res, err)
	}
	res, err := sched.Submit(holdStrategy("two", "checkout", time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || !strings.Contains(res.Entry.Reason, "max-concurrent") {
		t.Fatalf("second should queue on max-concurrent, got %+v", res)
	}
}

func TestSchedulerCapacityGate(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil) // capacity 0.8

	big := holdStrategy("big", "catalog", time.Hour)
	big.Phases[0].Traffic.CandidateWeight = 0.5
	if res, err := sched.Submit(big); err != nil || res.Queued {
		t.Fatalf("big: %+v, %v", res, err)
	}
	big2 := holdStrategy("big2", "checkout", time.Hour)
	big2.Phases[0].Traffic.CandidateWeight = 0.5
	res, err := sched.Submit(big2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || !strings.Contains(res.Entry.Reason, "capacity") {
		t.Fatalf("second big strategy should queue on capacity, got %+v", res)
	}

	// A strategy that alone exceeds the ceiling is rejected outright.
	huge := holdStrategy("huge", "search", time.Hour)
	huge.Phases[0].Traffic.CandidateWeight = 0.9
	if _, err := sched.Submit(huge); err == nil {
		t.Fatal("over-capacity strategy should be rejected at admission")
	}
}

func TestSchedulerUserGroupConflict(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil)

	withGroups := func(name, service string) *Strategy {
		s := holdStrategy(name, service, time.Hour)
		s.Phases[0].Traffic.Groups = []expmodel.UserGroup{"beta"}
		return s
	}
	if res, err := sched.Submit(withGroups("g1", "catalog")); err != nil || res.Queued {
		t.Fatalf("g1: %+v, %v", res, err)
	}
	// Different service, same user group: a user must not be in two
	// experiments at once.
	res, err := sched.Submit(withGroups("g2", "checkout"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || !strings.Contains(res.Entry.Reason, "beta") {
		t.Fatalf("overlapping-group strategy should queue, got %+v", res)
	}
}

func TestSchedulerCancelQueued(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	sched := h.newScheduler(t, jnl, nil)

	if _, err := sched.Submit(holdStrategy("live", "catalog", time.Hour)); err != nil {
		t.Fatal(err)
	}
	if res, err := sched.Submit(holdStrategy("waiting", "catalog", time.Hour)); err != nil || !res.Queued {
		t.Fatalf("waiting: %+v, %v", res, err)
	}
	if err := sched.Cancel("waiting"); err != nil {
		t.Fatal(err)
	}
	if queued(sched, "waiting") {
		t.Error("canceled entry still queued")
	}
	if err := sched.Cancel("waiting"); err == nil {
		t.Error("second cancel should fail")
	}
	// A canceled entry is consumed: recovery must not resurrect it.
	snap := jnl.Snapshot()
	rep, err := newJournalHarness(t, snap).engine.Recover(snap)
	if err != nil || rep.Skipped > 0 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	for _, p := range rep.Queued {
		if p.Name == "waiting" {
			t.Error("canceled submission recovered as pending")
		}
	}
}

func TestSchedulerDuplicateNames(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil)

	if _, err := sched.Submit(holdStrategy("dup", "catalog", time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(holdStrategy("dup", "checkout", time.Hour)); err == nil {
		t.Fatal("running-name resubmission should fail")
	}
	if _, err := sched.Submit(holdStrategy("held", "catalog", time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(holdStrategy("held", "search", time.Hour)); err == nil {
		t.Fatal("queued-name resubmission should fail")
	}
}

func TestEngineRejectsSameServiceLaunch(t *testing.T) {
	h := newHarness(t)
	if _, err := h.engine.Launch(holdStrategy("one", "catalog", time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, err := h.engine.Launch(holdStrategy("two", "catalog", time.Hour))
	if !errors.Is(err, ErrServiceBusy) {
		t.Fatalf("same-service launch error = %v, want ErrServiceBusy", err)
	}
	// A different service is fine.
	if _, err := h.engine.Launch(holdStrategy("three", "checkout", time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Once the blocking run finishes, the service frees up.
	run, _ := h.engine.Get("one")
	run.Abort()
	h.waitFor(t, "one to finish", func() bool { return run.Status() != StatusRunning })
	if _, err := h.engine.Launch(holdStrategy("two", "catalog", time.Hour)); err != nil {
		t.Fatalf("launch after service freed: %v", err)
	}
}

func TestSchedulerQueueRecovery(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	sched := h.newScheduler(t, jnl, nil)

	if res, err := sched.Submit(holdStrategy("blocker", "catalog", time.Hour)); err != nil || res.Queued {
		t.Fatalf("blocker: %+v, %v", res, err)
	}
	if res, err := sched.Submit(holdStrategy("pending", "catalog", time.Hour)); err != nil || !res.Queued {
		t.Fatalf("pending: %+v, %v", res, err)
	}

	// "Crash": rebuild engine + scheduler from the journal snapshot.
	snap := jnl.Snapshot()
	h2 := newJournalHarness(t, snap)
	eng2 := h2.engine
	rep, err := eng2.Recover(snap)
	if err != nil || rep.Skipped > 0 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	pending := rep.Queued
	if len(pending) != 1 || pending[0].Name != "pending" {
		t.Fatalf("pending = %+v, want just \"pending\"", pending)
	}

	sched2 := h2.newScheduler(t, snap, nil)
	sched2.Restore(pending)

	// The blocker was recovered as a live run on "catalog", so the
	// restored entry must stay queued behind it...
	snap2 := sched2.Snapshot()
	if len(snap2.Queue) != 1 || snap2.Queue[0].Name != "pending" || !snap2.Queue[0].Recovered {
		t.Fatalf("restored queue = %+v", snap2.Queue)
	}
	// ...until the blocker concludes: Restore adopted the recovered
	// blocker with a completion watcher, which pumps.
	blocker, ok := eng2.Get("blocker")
	if !ok {
		t.Fatal("blocker not recovered")
	}
	blocker.Abort()
	h2.waitFor(t, "blocker to finish", func() bool { return blocker.Status() != StatusRunning })
	h2.waitFor(t, "pending to launch", func() bool {
		run, ok := eng2.Get("pending")
		return ok && run.Status() == StatusRunning
	})

	_ = sched // first scheduler intentionally abandoned with its engine
}

func TestSchedulerBlockedByUntrackedEngineRun(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil)

	// A run launched around the scheduler (demo, library users) still
	// owns its service: the engine-side guard rejects the scheduler's
	// launch and the entry stays queued.
	if _, err := h.engine.Launch(holdStrategy("outsider", "catalog", time.Hour)); err != nil {
		t.Fatal(err)
	}
	res, err := sched.Submit(holdStrategy("insider", "catalog", time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued {
		t.Fatal("submission conflicting with an untracked run should queue")
	}
	outsider, _ := h.engine.Get("outsider")
	outsider.Abort()
	h.waitFor(t, "outsider to finish", func() bool { return outsider.Status() != StatusRunning })
	h.waitFor(t, "insider to launch", func() bool {
		run, ok := h.engine.Get("insider")
		return ok && run.Status() == StatusRunning
	})
}

func TestCompactJournalKeepsPendingQueueRecords(t *testing.T) {
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	sched := h.newScheduler(t, jnl, nil)

	// consumed: queued, then launched (conflict-free).
	if res, err := sched.Submit(holdStrategy("consumed", "catalog", time.Hour)); err != nil || res.Queued {
		t.Fatalf("consumed: %+v, %v", res, err)
	}
	// pending: queued behind consumed.
	if res, err := sched.Submit(holdStrategy("pending", "catalog", time.Hour)); err != nil || !res.Queued {
		t.Fatalf("pending: %+v, %v", res, err)
	}
	// dropped: queued then canceled.
	if res, err := sched.Submit(holdStrategy("dropped", "catalog", time.Hour)); err != nil || !res.Queued {
		t.Fatalf("dropped: %+v, %v", res, err)
	}
	if err := sched.Cancel("dropped"); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover: recovery compacts the log it reads.
	snap := jnl.Snapshot()
	if _, err := newJournalHarness(t, snap).engine.Recover(snap); err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[EventType]int{}
	if err := snap.Replay(func(rec []byte) error {
		wr, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		if counts[wr.Run] == nil {
			counts[wr.Run] = map[EventType]int{}
		}
		counts[wr.Run][wr.Type]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counts["consumed"][EventRunQueued] != 0 {
		t.Error("consumed submission's queue records should be compacted away")
	}
	if counts["consumed"][EventRunLaunched] != 1 {
		t.Error("consumed submission's run records must survive")
	}
	if counts["pending"][EventRunQueued] != 1 {
		t.Error("pending submission's queued record must survive compaction")
	}
	if len(counts["dropped"]) != 0 {
		t.Errorf("canceled submission should be fully compacted, got %v", counts["dropped"])
	}

	// And the compacted journal still recovers the pending entry.
	again := snap.Snapshot()
	rep, err := newJournalHarness(t, again).engine.Recover(again)
	if err != nil || rep.Skipped > 0 {
		t.Fatalf("recover: %v, %+v", err, rep)
	}
	if pending := rep.Queued; len(pending) != 1 || pending[0].Name != "pending" {
		t.Fatalf("pending after compaction = %+v", pending)
	}
}

func TestSchedulerPlanProjectsQueue(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, nil)

	if res, err := sched.Submit(holdStrategy("live", "catalog", 60*time.Second)); err != nil || res.Queued {
		t.Fatalf("live: %+v, %v", res, err)
	}
	res, err := sched.Submit(holdStrategy("next", "catalog", 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued {
		t.Fatal("same-service submission should queue")
	}
	// "next" must be projected to start at or after the live run's
	// estimated end.
	if res.Entry.PlannedStart.Before(t0.Add(60 * time.Second)) {
		t.Errorf("planned start %v is inside the live run's window", res.Entry.PlannedStart)
	}
	gantt := sched.Gantt(64)
	if !strings.Contains(gantt, "live") || !strings.Contains(gantt, "next") {
		t.Errorf("gantt should chart both experiments:\n%s", gantt)
	}
}

func TestSchedulerMetricsSeededRunsConclude(t *testing.T) {
	// End-to-end through the scheduler: a healthy strategy submitted via
	// Submit promotes exactly as one launched directly on the engine.
	h := newHarness(t)
	h.seedMetrics("response_time", "catalog", "v2", "", 3*time.Minute, 50)
	h.seedMetrics("requests", "catalog", "v2", "", 3*time.Minute, 1)
	sched := h.newScheduler(t, nil, nil)

	res, err := sched.Submit(rebasedStrategy("promoting", "catalog"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued {
		t.Fatal("should launch immediately")
	}
	h.drive(t, res.Run)
	if res.Run.Status() != StatusSucceeded {
		t.Fatalf("status = %v, want succeeded", res.Run.Status())
	}
	h.waitFor(t, "scheduler to drop the finished run", func() bool {
		return len(sched.Snapshot().Running) == 0
	})
}

// TestSchedulerProjectionIsTheLaunchRule pins the projection to the
// rule that gates launches: per-tenant budgets, queue order, and each
// strategy's own estimate. Everything is submitted at t0; `at` is the
// offset the entry must launch (0) or be projected to launch at.
func TestSchedulerProjectionIsTheLaunchRule(t *testing.T) {
	type sub struct {
		tenant, name, service string
		hold                  time.Duration
		share                 float64
		at                    time.Duration
	}
	cases := []struct {
		name          string
		maxConcurrent int
		subs          []sub
	}{
		{"max-concurrent holds a disjoint service back to the running estEnd", 1, []sub{
			{"", "one", "catalog", time.Hour, 0.1, 0},
			{"", "two", "checkout", time.Hour, 0.1, time.Hour},
		}},
		{"budgets and services are per tenant", 0, []sub{
			{"a", "wide", "svc", time.Hour, 0.7, 0},
			{"b", "wide", "svc", 10 * time.Minute, 0.7, 0},
			{"b", "next", "svc", time.Minute, 0.3, 10 * time.Minute},
		}},
		{"queue order on one service", 0, []sub{
			{"", "live", "catalog", 10 * time.Minute, 0.1, 0},
			{"", "long-first", "catalog", time.Hour, 0.1, 10 * time.Minute},
			{"", "short-second", "catalog", time.Minute, 0.1, 70 * time.Minute},
		}},
		{"estimates are the strategy's own", 0, []sub{
			{"", "blink", "catalog", 5 * time.Second, 0.1, 0},
			{"", "days", "catalog", 72 * time.Hour, 0.1, 5 * time.Second},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.MaxConcurrent = tc.maxConcurrent })
			for _, sb := range tc.subs {
				st := holdStrategy(sb.name, sb.service, sb.hold)
				st.Tenant = sb.tenant
				st.Phases[0].Traffic.CandidateWeight = sb.share
				res, err := sched.Submit(st)
				if err != nil {
					t.Fatal(err)
				}
				if res.Queued != (sb.at > 0) {
					t.Fatalf("%s: queued = %v, want launch offset %v", st.RunKey(), res.Queued, sb.at)
				}
			}
			snap := sched.Snapshot()
			running := make(map[string]ScheduledRunView)
			for _, rv := range snap.Running {
				running[rv.Name] = rv
			}
			queued := make(map[string]QueueEntryView)
			for _, qv := range snap.Queue {
				queued[qv.Name] = qv
			}
			for _, sb := range tc.subs {
				key := tenancy.Qualify(sb.tenant, sb.name)
				if sb.at == 0 {
					if rv := running[key]; !rv.StartedAt.Equal(t0) || !rv.EstEnd.Equal(t0.Add(sb.hold)) {
						t.Errorf("%s runs %v – %v, want t0 – t0+%v", key, rv.StartedAt, rv.EstEnd, sb.hold)
					}
					continue
				}
				qv := queued[key]
				if !qv.PlannedStart.Equal(t0.Add(sb.at)) {
					t.Errorf("%s planned at t0+%v, want t0+%v (reason %q)",
						key, qv.PlannedStart.Sub(t0), sb.at, qv.Reason)
				}
				if qv.EstDuration != sb.hold || qv.EstDurationS != sb.hold.String() {
					t.Errorf("%s estDuration = %v (%q), want %v", key, qv.EstDuration, qv.EstDurationS, sb.hold)
				}
			}
		})
	}
}

// TestSchedulerRestoreAboveLoweredCapacity restores an entry admitted
// under a higher ceiling: it can never launch, so it waits under its
// capacity reason with no projected start, the forward pass ends on it
// (blocked against an empty live set), and entries behind it are
// neither held back nor left unprojected.
func TestSchedulerRestoreAboveLoweredCapacity(t *testing.T) {
	h := newHarness(t)
	sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.Capacity = 0.5 })

	wide := holdStrategy("wide", "search", time.Hour)
	wide.Phases[0].Traffic.CandidateWeight = 0.7
	sched.Restore([]PendingSubmission{
		{Name: "wide", Strategy: wide, QueuedAt: t0},
		{Name: "fits", Strategy: holdStrategy("fits", "catalog", time.Hour), QueuedAt: t0},
		{Name: "behind", Strategy: holdStrategy("behind", "catalog", time.Hour), QueuedAt: t0},
	})

	snap := sched.Snapshot()
	if len(snap.Running) != 1 || snap.Running[0].Name != "fits" {
		t.Fatalf("running = %+v, want just fits", snap.Running)
	}
	if len(snap.Queue) != 2 || snap.Queue[0].Name != "wide" || snap.Queue[1].Name != "behind" {
		t.Fatalf("queue = %+v, want wide then behind", snap.Queue)
	}
	if w := snap.Queue[0]; !w.PlannedStart.IsZero() || !strings.Contains(w.Reason, "capacity") {
		t.Errorf("wide: planned %v, reason %q; want no projected start and a capacity reason", w.PlannedStart, w.Reason)
	}
	if b := snap.Queue[1]; !b.PlannedStart.Equal(t0.Add(time.Hour)) {
		t.Errorf("behind planned at %v, want fits' estimated end", b.PlannedStart)
	}
	if gantt := sched.Gantt(40); !strings.Contains(gantt, "blocked") {
		t.Errorf("gantt should mark wide as blocked:\n%s", gantt)
	}
	// Nothing live at all: the pass still ends.
	fits, _ := h.engine.Get("fits")
	fits.Abort()
	h.waitFor(t, "behind to launch", func() bool { _, ok := h.engine.Get("behind"); return ok })
	behind, _ := h.engine.Get("behind")
	behind.Abort()
	h.waitFor(t, "running set to drain", func() bool { return len(sched.Snapshot().Running) == 0 })
	if q := sched.Snapshot().Queue; len(q) != 1 || !q[0].PlannedStart.IsZero() {
		t.Errorf("queue with nothing live = %+v, want wide alone and unprojected", q)
	}
}

// settled reports whether sched is at rest at the sim clock's instant:
// every finished run has pumped the queue (one version per submission
// and per completion; nothing else the scheduler tests do moves it) and
// every live run is parked on its single phase-end timer. It reads under
// the scheduler's lock, so no pump lands between its reads: read apart,
// a pump that launched a run after the runs were listed but before the
// version was read passed for rest while the new run had not parked,
// and the test then advanced the clock under it. between, when set, runs
// after the runs are read.
func settled(h *harness, sched *Scheduler, submissions int, between func()) bool {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	live, finished := 0, 0
	for _, run := range h.engine.Runs() {
		if run.Status() == StatusRunning {
			live++
		} else {
			finished++
		}
	}
	if between != nil {
		between()
	}
	return sched.version.Load() == uint64(submissions+finished) && h.sim.PendingTimers() == live
}

// awaitSettled polls settled for up to 10s of wall time.
func awaitSettled(t *testing.T, what string, h *harness, sched *Scheduler, submissions int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !settled(h, sched, submissions, nil) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never settled", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSchedulerProjectionMatchesEnactment is the property the
// projection exists for: when every run takes exactly its estimate, the
// projection taken after the last submission is what then happens —
// same launch order, same launch instants. Hold durations are distinct
// powers of two seconds, so no two runs ever end at the same instant
// (every end is t0 plus a sum over a distinct subset) and the order in
// which simultaneous completions reach the scheduler cannot matter.
func TestSchedulerProjectionMatchesEnactment(t *testing.T) {
	services := []string{"catalog", "checkout", "search"}
	tenants := []string{"a", "b"}
	groups := []expmodel.UserGroup{"", "", "beta", "vip"}
	shares := []float64{0.1, 0.3, 0.5}

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t)
		sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.MaxConcurrent = 1 + rng.Intn(3) })

		n := 6 + rng.Intn(5)
		holds := rng.Perm(n)
		var order []string // submission order, by run key
		for i := 0; i < n; i++ {
			st := holdStrategy(fmt.Sprintf("s%d", i), services[rng.Intn(len(services))], time.Second<<holds[i])
			st.Tenant = tenants[rng.Intn(len(tenants))]
			st.Phases[0].Traffic.CandidateWeight = shares[rng.Intn(len(shares))]
			if g := groups[rng.Intn(len(groups))]; g != "" {
				st.Phases[0].Traffic.Groups = []expmodel.UserGroup{g}
			}
			if _, err := sched.Submit(st); err != nil {
				t.Fatal(err)
			}
			order = append(order, st.RunKey())
		}

		await := func(what string) {
			t.Helper()
			awaitSettled(t, fmt.Sprintf("seed %d: %s", seed, what), h, sched, n)
		}
		await("submissions")

		// Snapshot only moves the version when it finds the running set
		// out of sync, which a settled scheduler is not.
		snap := sched.Snapshot()
		projected := make(map[string]time.Time, n)
		for _, rv := range snap.Running {
			projected[rv.Name] = rv.StartedAt
		}
		for _, qv := range snap.Queue {
			if qv.PlannedStart.IsZero() {
				t.Fatalf("seed %d: %s has no projected start (reason %q)", seed, qv.Name, qv.Reason)
			}
			projected[qv.Name] = qv.PlannedStart
		}
		wantOrder := slices.Clone(order)
		sort.SliceStable(wantOrder, func(i, j int) bool {
			return projected[wantOrder[i]].Before(projected[wantOrder[j]])
		})

		for sched.Launches() < int64(n) {
			d, ok := h.sim.NextDeadline()
			if !ok {
				t.Fatalf("seed %d: %d of %d launched and nothing left to wait for", seed, sched.Launches(), n)
			}
			h.sim.AdvanceTo(d)
			await("completion at " + d.Sub(t0).String())
		}

		runs := h.engine.Runs()
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seq() < runs[j].Seq() })
		var gotOrder []string
		for _, run := range runs {
			key := run.Strategy().RunKey()
			gotOrder = append(gotOrder, key)
			if launched := run.Events()[0].At; !launched.Equal(projected[key]) {
				t.Errorf("seed %d: %s launched at t0+%v, projected t0+%v",
					seed, key, launched.Sub(t0), projected[key].Sub(t0))
			}
		}
		if !slices.Equal(gotOrder, wantOrder) {
			t.Errorf("seed %d: launch order %v, projected %v", seed, gotOrder, wantOrder)
		}
	}
}

// gateQuerier answers every query with a passing value, but a query
// first announces itself on entered and waits for release: a run whose
// check is due at its phase end stays running, at that instant, until
// the test lets it go.
type gateQuerier struct {
	entered chan struct{}
	release chan struct{}
}

func (q *gateQuerier) Query(string, metrics.Scope, time.Time, metrics.Aggregation) (float64, error) {
	select {
	case q.entered <- struct{}{}:
	default:
	}
	<-q.release
	return 0, nil
}

// TestSchedulerSameInstantCompletionsPumpOnce pins the launch pass to
// the instant, not to the order in which same-instant completions reach
// the scheduler. Runs a and b both end at t0+10s. b is held mid-check at
// that instant, so a's completion pumps first while b still runs. A pass
// then would launch d (capacity allows it beside b, while c waits for
// b's service), and d's share would keep c out until t0+30s. The
// projection retires a and b together and launches c at t0+10s, d at
// t0+30s; the enactment must do the same.
func TestSchedulerSameInstantCompletionsPumpOnce(t *testing.T) {
	gate := &gateQuerier{entered: make(chan struct{}, 1), release: make(chan struct{})}
	h := &harness{sim: clock.NewSim(t0), table: router.NewTable()}
	eng, err := NewEngine(Config{Clock: h.sim, Table: h.table, Store: gate})
	if err != nil {
		t.Fatal(err)
	}
	h.engine = eng
	sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.Capacity = 1 })

	a := holdStrategy("a", "svc-x", 10*time.Second)
	a.Phases[0].Traffic.CandidateWeight = 0.3
	b := holdStrategy("b", "svc-y", 10*time.Second)
	b.Phases[0].Traffic.CandidateWeight = 0.3
	b.Phases[0].Checks = []Check{{Name: "gate", Metric: "gate", Aggregation: metrics.AggMean,
		Upper: true, Threshold: 1, Interval: 10 * time.Second}}
	c := holdStrategy("c", "svc-y", 20*time.Second)
	c.Phases[0].Traffic.CandidateWeight = 0.5
	d := holdStrategy("d", "svc-z", 20*time.Second)
	d.Phases[0].Traffic.CandidateWeight = 0.6
	for _, st := range []*Strategy{a, b, c, d} {
		if _, err := sched.Submit(st); err != nil {
			t.Fatal(err)
		}
	}
	awaitSettled(t, "submissions", h, sched, 4)
	if got := sched.Launches(); got != 2 {
		t.Fatalf("%d launched at t0, want a and b", got)
	}
	projected := map[string]time.Time{}
	for _, qv := range sched.Snapshot().Queue {
		projected[qv.Name] = qv.PlannedStart
	}
	if !projected["c"].Equal(t0.Add(10*time.Second)) || !projected["d"].Equal(t0.Add(30*time.Second)) {
		t.Fatalf("projection c=t0+%v d=t0+%v, want t0+10s and t0+30s",
			projected["c"].Sub(t0), projected["d"].Sub(t0))
	}

	h.sim.AdvanceTo(t0.Add(10 * time.Second))
	select {
	case <-gate.entered: // b is at its check, still running
	case <-time.After(10 * time.Second):
		t.Fatal("b's check never ran")
	}
	// a's completion pumps: the four submissions' pumps plus one.
	deadline := time.Now().Add(10 * time.Second)
	for sched.version.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("a's completion never pumped")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	awaitSettled(t, "b's completion", h, sched, 4)

	for sched.Launches() < 4 {
		next, ok := h.sim.NextDeadline()
		if !ok {
			t.Fatalf("%d of 4 launched and nothing left to wait for", sched.Launches())
		}
		h.sim.AdvanceTo(next)
		awaitSettled(t, "completion at t0+"+next.Sub(t0).String(), h, sched, 4)
	}
	for _, run := range h.engine.Runs() {
		name := run.Strategy().Name
		if want, ok := projected[name]; ok && !run.Events()[0].At.Equal(want) {
			t.Errorf("%s launched at t0+%v, projected t0+%v", name, run.Events()[0].At.Sub(t0), want.Sub(t0))
		}
	}
}

// gateJournal is a journal that holds back the appends of chosen
// (run, event type) records until their gates open.
type gateJournal struct {
	journal.Journal
	mu    sync.Mutex
	gates map[string]chan struct{}
}

// hold makes appends of run's typ records wait until the returned gate
// is closed.
func (j *gateJournal) hold(run string, typ EventType) chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	g := make(chan struct{})
	j.gates[run+"\x00"+string(typ)] = g
	return g
}

func (j *gateJournal) Append(rec []byte) error {
	if wr, err := decodeRecord(rec); err == nil {
		j.mu.Lock()
		g := j.gates[wr.Run+"\x00"+string(wr.Type)]
		j.mu.Unlock()
		if g != nil {
			<-g
		}
	}
	return j.Journal.Append(rec)
}

// TestSchedulerSettledReadsAtOneInstant pins the settle predicate the
// scheduler tests advance the clock on. s1's completion is held between
// its status change and its pump, the predicate lists the runs, and then
// the pump is let go: it launches s3, whose goroutine is held before it
// parks. A predicate whose reads a pump can land between sees s1
// finished, no s3 and the version moved, and passes for rest; this one
// holds the pump off until it has read.
func TestSchedulerSettledReadsAtOneInstant(t *testing.T) {
	gj := &gateJournal{Journal: &journal.Memory{}, gates: map[string]chan struct{}{}}
	h := &harness{sim: clock.NewSim(t0), table: router.NewTable(), store: metrics.NewStore(0)}
	eng, err := NewEngine(Config{Clock: h.sim, Table: h.table, Store: h.store, Journal: gj})
	if err != nil {
		t.Fatal(err)
	}
	h.engine = eng
	sched := h.newScheduler(t, nil, func(c *SchedulerConfig) { c.MaxConcurrent = 1 })
	for _, st := range []*Strategy{holdStrategy("s1", "catalog", 8*time.Second), holdStrategy("s3", "search", time.Second)} {
		if _, err := sched.Submit(st); err != nil {
			t.Fatal(err)
		}
	}
	awaitSettled(t, "submissions", h, sched, 2)

	s1Finished := gj.hold("s1", EventRunFinished)
	s3Parks := gj.hold("s3", EventPhaseEntered)
	h.sim.AdvanceTo(t0.Add(8 * time.Second))
	s1, _ := h.engine.Get("s1")
	deadline := time.Now().Add(10 * time.Second)
	for s1.Status() == StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("s1 never finished")
		}
		time.Sleep(100 * time.Microsecond)
	}

	racePump := func() {
		close(s1Finished)
		// Give the pump time to land; it cannot while the predicate
		// holds the scheduler's lock.
		for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end) && sched.version.Load() < 3; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if settled(h, sched, 2, racePump) {
		t.Fatal("settled while s1's completion was still pumping")
	}
	for sched.Launches() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("s1's completion never launched s3")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if settled(h, sched, 2, nil) {
		t.Fatal("settled while s3 had not parked")
	}
	close(s3Parks)
	awaitSettled(t, "s3 parked", h, sched, 2)
	s3, _ := h.engine.Get("s3")
	if got := s3.Events()[0].At; !got.Equal(t0.Add(8 * time.Second)) {
		t.Errorf("s3 launched at t0+%v, want t0+8s", got.Sub(t0))
	}
	h.sim.AdvanceTo(t0.Add(9 * time.Second))
	awaitSettled(t, "s3's completion", h, sched, 2)
}
