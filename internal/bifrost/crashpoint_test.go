package bifrost

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/journal"
	"contexp/internal/metrics"
)

// crashTrail is one recorded run whose journal the crash-point tests
// cut at every record boundary.
type crashTrail struct {
	name     string
	strategy func() *Strategy
	// seed writes the metrics the run — and every engine recovering it —
	// observes.
	seed func(h *harness)
	// want is the terminal status of the uncrashed run, which every
	// recovery must reach too.
	want RunStatus
}

func oneRetryStrategy() *Strategy {
	s := twoPhaseStrategy()
	s.Phases = s.Phases[:1]
	s.Phases[0].MaxRetries = 1
	return s
}

// gotoRevisitStrategy is the two-phase strategy whose ab phase gates on
// an error rate and, failing, goes back to the canary.
func gotoRevisitStrategy() *Strategy {
	s := twoPhaseStrategy()
	s.Phases[1].Checks = []Check{{
		Name: "errors", Metric: "errors",
		Aggregation: metrics.AggMean, Upper: true, Threshold: 0.5,
		Interval: 10 * time.Second,
	}}
	s.Phases[1].OnFailure = Transition{Kind: TransitionGoto, Target: "canary"}
	return s
}

// rolloutStrategy is one gradual rollout of two 30 s steps.
func rolloutStrategy() *Strategy {
	s := twoPhaseStrategy()
	s.Phases = []Phase{{
		Name: "rollout", Practice: expmodel.PracticeGradualRollout,
		Traffic:   TrafficSpec{Steps: []float64{0.5, 1}, StepDuration: 30 * time.Second},
		Checks:    s.Phases[0].Checks,
		OnSuccess: Transition{Kind: TransitionPromote},
	}}
	return s
}

// crashTrails[:3] are the trails testdata/recover_parent.golden holds.
var crashTrails = []crashTrail{
	{"healthy", twoPhaseStrategy, func(h *harness) {
		h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	}, StatusSucceeded},
	{"unhealthy", twoPhaseStrategy, func(h *harness) {
		h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 500)
	}, StatusRolledBack},
	{"nodata", oneRetryStrategy, func(*harness) {}, StatusRolledBack},
	// ab fails once → goto canary, then promotes. A check reads from
	// now − 10 s to the end of the seeded data, so every errors check due
	// at or before 79 s sees the spike at 61–69 s: the one ab enters at
	// 60 s fails, and so does any ab a recovery (restarting the clock at
	// 0) enters before 70 s; one entered later passes.
	{"goto-revisit", gotoRevisitStrategy, func(h *harness) {
		h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
		h.seedMetrics("errors", "catalog", "v2", "", 10*time.Minute, 0)
		for ts := 61 * time.Second; ts < 70*time.Second; ts += time.Second {
			h.store.Record("errors", metrics.Scope{Service: "catalog", Version: "v2"}, t0.Add(ts), 500)
		}
	}, StatusSucceeded},
	{"rollout", rolloutStrategy, func(h *harness) {
		h.seedMetrics("response_time", "catalog", "v2", "", 10*time.Minute, 50)
	}, StatusSucceeded},
}

// record runs the trail uncrashed and returns its journal records.
func (tr crashTrail) record(t *testing.T) [][]byte {
	t.Helper()
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	tr.seed(h)
	run, err := h.engine.Launch(tr.strategy())
	if err != nil {
		t.Fatal(err)
	}
	h.drive(t, run)
	if run.Status() != tr.want {
		t.Fatalf("%s: uncrashed run ended %v, want %v", tr.name, run.Status(), tr.want)
	}
	return journalRecords(t, jnl)
}

func journalRecords(t *testing.T, j journal.Journal) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := j.Replay(func(rec []byte) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// cutJournal is the journal a crash after the first n records leaves.
func cutJournal(t *testing.T, recs [][]byte, n int) *journal.Memory {
	t.Helper()
	jnl := &journal.Memory{}
	for _, rec := range recs[:n] {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return jnl
}

// cutLabel names the record a cut ends on, adding ", decided" when the
// run's last state-machine record is a transition: the phase's decision
// is journaled but its effect (the next phase-entered, or run-finished)
// is not.
func cutLabel(t *testing.T, recs [][]byte, n int) string {
	t.Helper()
	var last EventType
	decided := false
	for _, rec := range recs[:n] {
		wr, err := decodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		last = wr.Type
		switch wr.Type {
		case EventTransition:
			decided = true
		case EventPhaseEntered, EventPhaseOutcome, EventRunFinished:
			decided = false
		}
	}
	if decided {
		return string(last) + ", decided"
	}
	return string(last)
}

func describeRoute(h *harness, service string) string {
	route, err := h.table.Route(service)
	if err != nil {
		return "none"
	}
	var b strings.Builder
	for i, be := range route.Backends {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", be.Version, be.Weight)
	}
	return b.String()
}

// recoverAndDrive recovers a fresh engine from jnl — the trail's journal
// cut after n records — drives the run to its end, and writes what
// happened: the recovery report, every event recorded after the cut
// (Recover's own and the resumed loop's, times relative to the restart)
// and the final status and route.
func (tr crashTrail) recoverAndDrive(t *testing.T, jnl journal.Journal, n int) string {
	t.Helper()
	h := newJournalHarness(t, jnl)
	tr.seed(h)
	rep, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", rep)
	for _, rr := range rep.Runs {
		fmt.Fprintf(&b, "  run %q: %s\n", rr.Name, rr.Action)
	}
	run, ok := h.engine.Get("happy")
	if !ok {
		t.Fatalf("%s cut %d: run not recovered", tr.name, n)
	}
	h.drive(t, run)
	for _, ev := range run.Events()[n:] {
		fmt.Fprintf(&b, "  +%s %s phase=%q check=%q outcome=%s detail=%q\n",
			ev.At.Sub(t0), ev.Type, ev.Phase, ev.Check, ev.Outcome, ev.Detail)
	}
	fmt.Fprintf(&b, "  final %s route %s\n", run.Status(), describeRoute(h, "catalog"))
	return b.String()
}

// recoveryTranscript is recoverAndDrive at every record boundary of
// every trail, keyed "<trail> cut <n>/<total> after <type>[, decided]"
// (see cutLabel).
func recoveryTranscript(t *testing.T) (keys []string, cuts map[string]string) {
	t.Helper()
	cuts = make(map[string]string)
	for _, tr := range crashTrails[:3] {
		recs := tr.record(t)
		for n := 1; n <= len(recs); n++ {
			key := fmt.Sprintf("%s cut %d/%d after %s", tr.name, n, len(recs), cutLabel(t, recs, n))
			keys = append(keys, key)
			cuts[key] = tr.recoverAndDrive(t, cutJournal(t, recs, n), n)
		}
	}
	return keys, cuts
}

func formatTranscript(keys []string, cuts map[string]string) []byte {
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "== %s\n%s", k, cuts[k])
	}
	return buf.Bytes()
}

// parseTranscript is formatTranscript's inverse.
func parseTranscript(data []byte) (keys []string, cuts map[string]string) {
	cuts = make(map[string]string)
	for _, block := range strings.Split(string(data), "== ")[1:] {
		key, body, _ := strings.Cut(block, "\n")
		keys = append(keys, key)
		cuts[key] = body
	}
	return keys, cuts
}

// TestRecoveryMatchesParentGolden pins crash recovery across the removal
// of settleInterrupted: testdata/recover_parent.golden was written by
// recoveryTranscript running on the last commit that had it (PR 17), and
// recovery through the run loop must reproduce it byte for byte at every
// cut except the eight that leave a journaled transition unapplied. Those
// are the deliberate difference — the parent decided again, recovery now
// applies the journaled decision — and TestRecoverHonorsJournaledTransition
// pins them.
func TestRecoveryMatchesParentGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/recover_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, want := parseTranscript(data)
	gotKeys, got := recoveryTranscript(t)
	if strings.Join(gotKeys, "\n") != strings.Join(wantKeys, "\n") {
		t.Fatalf("cuts differ:\n got: %v\nwant: %v", gotKeys, wantKeys)
	}
	decided := 0
	for _, k := range wantKeys {
		if strings.HasSuffix(k, ", decided") {
			decided++
		} else if got[k] != want[k] {
			t.Errorf("%s:\n got:\n%s\nwant:\n%s", k, got[k], want[k])
		}
	}
	if len(wantKeys) != 57 || decided != 8 {
		t.Errorf("golden holds %d cuts, %d of them decided; want 57 and 8", len(wantKeys), decided)
	}
}

// TestRecoverHonorsJournaledTransition cuts each trail right after its
// first transition record: the decision is journaled, its effect is not.
// Recovery must apply that decision — not decide again, and not charge a
// journaled retry a second time.
func TestRecoverHonorsJournaledTransition(t *testing.T) {
	for _, tc := range []struct {
		trail    crashTrail
		decision string
		resumed  int
		// reentered is the phase the resumed run must enter next.
		reentered string
	}{
		{crashTrails[2], "retry", 1, "canary"},
		{crashTrails[0], "next", 1, "ab"},
		{crashTrails[1], "rollback", 0, ""},
	} {
		t.Run(tc.decision, func(t *testing.T) {
			recs := tc.trail.record(t)
			cut := 0
			for i, rec := range recs {
				if wr, _ := decodeRecord(rec); wr.Type == EventTransition {
					if wr.Detail != tc.decision {
						t.Fatalf("first transition is %q, want %q", wr.Detail, tc.decision)
					}
					cut = i + 1
					break
				}
			}
			jnl := cutJournal(t, recs, cut)
			h := newJournalHarness(t, jnl)
			tc.trail.seed(h)
			rep, err := h.engine.Recover(jnl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resumed != tc.resumed || rep.Settled != 1-tc.resumed {
				t.Fatalf("report = %+v, want %d resumed / %d settled", rep, tc.resumed, 1-tc.resumed)
			}
			run, _ := h.engine.Get("happy")
			if tc.resumed == 0 {
				// Settled means terminal, routed and closed on return.
				select {
				case <-run.Done():
				default:
					t.Fatal("settled run's Done() is still open after Recover")
				}
			}
			h.drive(t, run)
			if run.Status() != tc.trail.want {
				t.Errorf("status = %v, want %v", run.Status(), tc.trail.want)
			}
			if got, want := describeRoute(h, "catalog"), "v1=1"; tc.trail.want == StatusRolledBack && got != want {
				t.Errorf("route = %s, want baseline %s", got, want)
			}

			// From the cut on, the trail holds no second decision for the
			// interrupted phase — only the restart marker — and the next
			// phase entered is the one the journaled decision names.
			after := run.Events()[cut:]
			for _, ev := range after {
				if ev.Type == EventPhaseEntered {
					break
				}
				detail := strings.TrimPrefix(ev.Detail, "crash-recovery: ")
				if _, decision := parseTransition(detail); ev.Type == EventTransition && decision {
					t.Errorf("recovery decided again: transition %q after journaled %q", ev.Detail, tc.decision)
				}
			}
			if tc.reentered != "" {
				var entered string
				for _, ev := range after {
					if ev.Type == EventPhaseEntered {
						entered = ev.Phase
						break
					}
				}
				if entered != tc.reentered {
					t.Errorf("resumed into phase %q, want %q", entered, tc.reentered)
				}
			}
			if n := countEvents(run, EventRunFinished, ""); n != 1 {
				t.Errorf("%d run-finished events, want exactly 1", n)
			}
			// The retry was charged once: the journaled retry is the one
			// allowed, so the re-entered canary runs its full minute and
			// only then exhausts the budget.
			if tc.decision == "retry" {
				if n := countEvents(run, EventPhaseEntered, "canary"); n != 2 {
					t.Errorf("canary entered %d times, want 2", n)
				}
				for _, ev := range run.Events() {
					if ev.Type == EventRunFinished && strings.Contains(ev.Detail, "retries exhausted") {
						t.Errorf("run-finished %q: recovery charged the journaled retry again", ev.Detail)
					}
				}
			}
		})
	}
}

// recordQueued is the healthy trail submitted through a scheduler, with
// a second strategy queued behind it on the same service: the scheduler
// launches "second" when "happy" promotes, so the journal interleaves
// two runs' records with both submissions' queue lifecycle.
func recordQueued(t *testing.T) [][]byte {
	t.Helper()
	jnl := &journal.Memory{}
	h := newJournalHarness(t, jnl)
	crashTrails[0].seed(h)
	sched := h.newScheduler(t, jnl, nil)
	if res, err := sched.Submit(twoPhaseStrategy()); err != nil || res.Queued {
		t.Fatalf("happy: %+v, %v", res, err)
	}
	if res, err := sched.Submit(rebasedStrategy("second", "catalog")); err != nil || !res.Queued {
		t.Fatalf("second: %+v, %v", res, err)
	}
	h.waitFor(t, "happy to promote and second to launch", func() bool {
		_, ok := h.engine.Get("second")
		return ok
	})
	second, _ := h.engine.Get("second")
	h.drive(t, second)
	if second.Status() != StatusSucceeded {
		t.Fatalf("second ended %v", second.Status())
	}
	return journalRecords(t, jnl)
}

// routeOfIntent is the route a terminal traffic-applied record promises,
// in describeRoute's form.
func routeOfIntent(t *testing.T, detail string) string {
	t.Helper()
	switch detail {
	case "candidate=100%":
		return "v2=1"
	case "baseline=100%":
		return "v1=1"
	}
	t.Fatalf("last routing intent %q is not terminal", detail)
	return ""
}

// recoveredRuns summarizes what a Recover pass rebuilt, for comparing
// two passes.
func recoveredRuns(h *harness) string {
	var b strings.Builder
	for _, r := range h.engine.Runs() {
		fmt.Fprintf(&b, "%s %s %d events; ", r.Strategy().RunKey(), r.Status(), r.EventCount())
	}
	return b.String()
}

// checkCrashPoint recovers from the first n of recs and holds the
// result to the invariants every crash point owes: the queue holds
// exactly the submissions the cut left pending; every run reaches the
// terminal status the uncrashed run reached, with exactly one
// run-finished; the routing table is the journal's last routing intent;
// and recovering again — from the grown log, and from its compaction —
// finds everything finished and adds nothing. It returns the grown log.
func checkCrashPoint(t *testing.T, seed func(*harness), recs [][]byte, n int, want map[string]RunStatus) [][]byte {
	t.Helper()
	// What the cut holds: the names it mentions, and which submissions
	// it leaves queued (run-queued survived, no later launch or dequeue).
	var names []string
	queued := make(map[string]bool)
	for _, rec := range recs[:n] {
		wr, err := decodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := queued[wr.Run]; !seen {
			names = append(names, wr.Run)
			queued[wr.Run] = false
		}
		switch wr.Type {
		case EventRunQueued:
			queued[wr.Run] = true
		case EventRunLaunched, EventRunDequeued:
			queued[wr.Run] = false
		}
	}

	jnl := cutJournal(t, recs, n)
	h := newJournalHarness(t, jnl)
	seed(h)
	first, err := h.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if first.Skipped > 0 {
		t.Fatalf("cut %d: recovery skipped: %+v", n, first.Runs)
	}
	var gotPending, wantPending []string
	for _, p := range first.Queued {
		gotPending = append(gotPending, p.Name)
	}
	for _, name := range names {
		if queued[name] {
			wantPending = append(wantPending, name)
		}
	}
	if fmt.Sprint(gotPending) != fmt.Sprint(wantPending) {
		t.Errorf("cut %d: pending = %v, want %v", n, gotPending, wantPending)
	}
	sched := h.newScheduler(t, jnl, nil)
	sched.Restore(first.Queued)
	h.waitFor(t, fmt.Sprintf("cut %d: every run to finish", n), func() bool {
		for _, name := range names {
			run, ok := h.engine.Get(name)
			if !ok {
				return false
			}
			select {
			case <-run.Done(): // closed after run-finished is journaled; Status flips before
			default:
				return false
			}
		}
		return true
	})

	// One terminal event per run (counted since its last launch), the
	// uncrashed status, the table at the journal's last intent, and a
	// report that counts the retry decisions the journal holds, recovery's
	// own included.
	finished, retries := make(map[string]int), make(map[string]int)
	lastIntent := ""
	for _, rec := range journalRecords(t, jnl) {
		wr, _ := decodeRecord(rec)
		switch wr.Type {
		case EventRunLaunched:
			finished[wr.Run], retries[wr.Run] = 0, 0
		case EventRunFinished:
			finished[wr.Run]++
		case EventTransition:
			if strings.TrimPrefix(wr.Detail, recoveryNote) == "retry" {
				retries[wr.Run]++
			}
		case EventTrafficApplied:
			lastIntent = wr.Detail
		}
	}
	for _, name := range names {
		run, _ := h.engine.Get(name)
		if run.Status() != want[name] {
			t.Errorf("cut %d: run %q ended %v, want %v", n, name, run.Status(), want[name])
		}
		if finished[name] != 1 {
			t.Errorf("cut %d: run %q has %d run-finished records, want 1", n, name, finished[name])
		}
		if got := run.BuildReport().Retries; got != retries[name] {
			t.Errorf("cut %d: run %q reports %d retries, its journal records %d", n, name, got, retries[name])
		}
	}
	if got, want := describeRoute(h, "catalog"), routeOfIntent(t, lastIntent); got != want {
		t.Errorf("cut %d: route %s, journal's last intent %q means %s", n, got, lastIntent, want)
	}

	// Idempotence: a second recovery of the grown log re-decides
	// nothing. It compacts, so the log it leaves may be shorter, but it
	// holds no record grown did not: a subsequence of it.
	grown := journalRecords(t, jnl)
	again := newJournalHarness(t, jnl)
	rep, err := again.engine.Recover(jnl)
	if err != nil {
		t.Fatal(err)
	}
	compactedRecs := journalRecords(t, jnl)
	if rep.Finished != len(names) || !isSubsequence(compactedRecs, grown) {
		t.Errorf("cut %d: second recovery re-decided: %s; journal %d -> %d records",
			n, rep, len(grown), len(compactedRecs))
	}
	if len(rep.Queued) != 0 {
		t.Errorf("cut %d: second recovery still finds %d pending", n, len(rep.Queued))
	}
	// Compaction keeps exactly what recovery needs, and is idempotent: a
	// third recovery leaves the log byte for byte as it was.
	compacted := newJournalHarness(t, jnl)
	if _, err := compacted.engine.Recover(jnl); err != nil {
		t.Fatal(err)
	}
	if got, want := recoveredRuns(compacted), recoveredRuns(again); got != want {
		t.Errorf("cut %d: after compaction recovered %s, before %s", n, got, want)
	}
	if got := journalRecords(t, jnl); !slices.EqualFunc(got, compactedRecs, bytes.Equal) {
		t.Errorf("cut %d: a third recovery rewrote the compacted log: %d -> %d records", n, len(compactedRecs), len(got))
	}
	return grown
}

// isSubsequence reports whether sub is seq with zero or more records
// left out.
func isSubsequence(sub, seq [][]byte) bool {
	i := 0
	for _, rec := range seq {
		if i < len(sub) && bytes.Equal(sub[i], rec) {
			i++
		}
	}
	return i == len(sub)
}

// canaryEntries counts a log's phase-entered records for "canary".
func canaryEntries(t *testing.T, recs [][]byte) int {
	t.Helper()
	n := 0
	for _, rec := range recs {
		if wr, _ := decodeRecord(rec); wr.Type == EventPhaseEntered && wr.Phase == "canary" {
			n++
		}
	}
	return n
}

// TestRecoverAtEveryCrashPoint is the record-boundary crash-point
// enumerator: each trail's journal is cut after every record, and every
// cut must recover to a legal state (see checkCrashPoint).
func TestRecoverAtEveryCrashPoint(t *testing.T) {
	for _, tr := range crashTrails {
		t.Run(tr.name, func(t *testing.T) {
			recs := tr.record(t)
			for n := 1; n <= len(recs); n++ {
				checkCrashPoint(t, tr.seed, recs, n, map[string]RunStatus{"happy": tr.want})
			}
		})
	}
	// A crash during (and after) a recovery: the no-data trail cut inside
	// its first canary, recovered and run to its end, is itself a trail —
	// with recovery's own records in it — to cut at every record. With
	// one retry the canary gets two attempts; whichever attempt a crash
	// lands in (or between), it costs that attempt and no other: the
	// canary is entered exactly twice at every cut of either trail.
	t.Run("recovered", func(t *testing.T) {
		tr := crashTrails[2]
		want := map[string]RunStatus{"happy": tr.want}
		uncrashed := tr.record(t)
		recs := checkCrashPoint(t, tr.seed, uncrashed, 5, want)
		if wr, _ := decodeRecord(recs[6]); wr.Detail != "crash-recovery: retry" {
			t.Fatalf("record 7 of the recovered trail is %+v, want recovery's retry decision", wr)
		}
		for _, trail := range [][][]byte{uncrashed, recs} {
			for n := 1; n <= len(trail); n++ {
				if got := canaryEntries(t, checkCrashPoint(t, tr.seed, trail, n, want)); got != 2 {
					t.Errorf("cut %d/%d: canary entered %d times, want 2 (one retry, charged once)", n, len(trail), got)
				}
			}
		}
	})
	t.Run("queued", func(t *testing.T) {
		recs := recordQueued(t)
		for n := 1; n <= len(recs); n++ {
			checkCrashPoint(t, crashTrails[0].seed, recs, n,
				map[string]RunStatus{"happy": StatusSucceeded, "second": StatusSucceeded})
		}
	})
	// A crash inside the group commit: the unhealthy trail in a FileLog
	// whose last three records form one group — appended together after
	// everything older was synced, and reaching the file in one write. A
	// crash after the group was swapped out but before that write loses
	// the group and nothing older; a crash during the write tears the
	// segment somewhere inside the group. Every such image must recover
	// exactly like the clean cut at its last whole record, with at most
	// one terminal event.
	t.Run("filelog", func(t *testing.T) {
		tr := crashTrails[1]
		recs := tr.record(t)
		const group = 3
		dir := t.TempDir()
		// No background syncer: the group stays in memory until Close.
		log, err := journal.Open(dir, journal.Options{SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "00000001.wal")
		older := recs[:len(recs)-group]
		for _, rec := range older {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[len(older):] {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		unwritten, err := os.ReadFile(path) // the disk while the group is only in memory
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		segment, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const frameHeader = 8 // length + CRC-32C, docs/PERSISTENCE.md
		ends := []int{0}      // ends[k] is where the k-th frame ends
		for _, rec := range recs {
			ends = append(ends, ends[len(ends)-1]+frameHeader+len(rec))
		}
		if ends[len(recs)] != len(segment) {
			t.Fatalf("segment is %d bytes, frames add up to %d", len(segment), ends[len(recs)])
		}
		if !bytes.Equal(unwritten, segment[:ends[len(older)]]) {
			t.Fatalf("with the group unwritten the segment holds %d bytes, want exactly the %d older records (%d bytes)",
				len(unwritten), len(older), ends[len(older)])
		}
		clean := make(map[int]string) // the clean cut after k whole records
		for size := ends[len(older)]; size <= len(segment); size++ {
			whole := 0
			for whole < len(recs) && ends[whole+1] <= size {
				whole++
			}
			if _, ok := clean[whole]; !ok {
				clean[whole] = tr.recoverAndDrive(t, cutJournal(t, recs, whole), whole)
			}
			torn := t.TempDir()
			if err := os.WriteFile(filepath.Join(torn, "00000001.wal"), segment[:size], 0o644); err != nil {
				t.Fatal(err)
			}
			log, err := journal.Open(torn, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := tr.recoverAndDrive(t, log, whole)
			terminal := 0
			for _, rec := range journalRecords(t, log) {
				if wr, _ := decodeRecord(rec); wr.Type == EventRunFinished {
					terminal++
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			if got != clean[whole] {
				t.Fatalf("segment torn at byte %d of %d (%d whole records):\n got:\n%s\nwant:\n%s",
					size, len(segment), whole, got, clean[whole])
			}
			if terminal != 1 {
				t.Fatalf("segment torn at byte %d of %d: %d run-finished records after recovery, want 1", size, len(segment), terminal)
			}
		}
		if len(clean) != group+1 {
			t.Errorf("tears covered %d record boundaries, want %d", len(clean), group+1)
		}
	})
}
