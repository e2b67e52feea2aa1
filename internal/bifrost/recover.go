package bifrost

import (
	"fmt"
	"sort"
	"time"

	"contexp/internal/journal"
)

// RecoveredRun is one run rebuilt by Recover.
type RecoveredRun struct {
	// Name is the run (strategy) name.
	Name string
	// Status is the run's state after recovery: a terminal status, or
	// StatusRunning for a resumed run.
	Status RunStatus
	// Action says what recovery did: "finished" (terminal state
	// replayed), "resumed at phase X", "rolled back: ...", or a skip
	// reason.
	Action string
}

// RecoveryReport summarizes a Recover pass.
type RecoveryReport struct {
	// Finished counts runs replayed into a terminal state they had
	// already reached before the restart.
	Finished int
	// Resumed counts in-flight runs that re-entered a phase.
	Resumed int
	// Settled counts in-flight runs recovery drove to a terminal state
	// (rollback, promote, or abort per the strategy's transitions).
	Settled int
	// Skipped counts runs and queued submissions that could not be
	// rebuilt (undecodable strategy, name collision).
	Skipped int
	// DecodeErrors counts journal records that did not decode as run
	// events.
	DecodeErrors int
	// Runs details every run in launch order, then every skipped queued
	// submission.
	Runs []RecoveredRun
	// Queued holds the submissions still pending when the journal was
	// written (queued, never launched, never dequeued), in submission
	// order, for Scheduler.Restore.
	Queued []PendingSubmission
}

// String renders the report one line per category.
func (rep *RecoveryReport) String() string {
	return fmt.Sprintf("recovered %d runs (%d finished, %d resumed, %d settled, %d skipped, %d decode errors)",
		len(rep.Runs), rep.Finished, rep.Resumed, rep.Settled, rep.Skipped, rep.DecodeErrors)
}

// journalFold is Recover's one reading of a journal: the runs it
// rebuilds, the queue it hands back and the records compaction keeps
// are all views of it. It applies the journal's two bookkeeping rules:
//
//   - Generations. A run name's records form generations, each opened by
//     a run-launched record; a relaunch under the same name supersedes
//     the older generation, as it replaces the run in a live engine.
//   - Pending submissions. A queue entry opens at a run-queued record and
//     is consumed by the next run-launched or run-dequeued record of the
//     same name; a submission is pending while its entry is open.
type journalFold struct {
	runs         []*generation  // each run name's latest generation, in launch order
	queue        []*queueRecord // the pending submissions, in submission order
	decodeErrors int            // records that did not decode as run events
	// owner[i] is the id of the generation or queue entry the i-th record
	// belongs to; 0 for a record that belongs to none.
	owner []int
}

// generation is one run-launched … run-finished span of a run's records.
type generation struct {
	id       int // ids rise in journal order across generations and queue entries
	name     string
	tenant   string
	dsl      string
	launched bool
	events   []Event
	status   RunStatus // terminal status; 0 while in flight
}

// queueRecord is the run-queued record that opened a queue entry.
type queueRecord struct {
	id int
	wireRecord
}

// foldJournal replays j once.
func foldJournal(j journal.Journal) (*journalFold, error) {
	f := &journalFold{}
	runs := make(map[string]*generation)
	queue := make(map[string]*queueRecord)
	nextID := 0
	err := j.Replay(func(rec []byte) error {
		wr, err := decodeRecord(rec)
		id := 0
		switch {
		case err != nil:
			f.decodeErrors++ // tolerate foreign/corrupt records
		case queueLifecycle(wr.Type):
			if wr.Type == EventRunQueued {
				nextID++
				queue[wr.Run] = &queueRecord{id: nextID, wireRecord: wr}
			}
			if q := queue[wr.Run]; q != nil {
				id = q.id
			}
			if wr.Type == EventRunDequeued {
				delete(queue, wr.Run)
			}
		default:
			g := runs[wr.Run]
			if g == nil || (wr.Type == EventRunLaunched && g.launched) {
				nextID++
				g = &generation{id: nextID, name: wr.Run}
				runs[wr.Run] = g
			}
			switch wr.Type {
			case EventRunLaunched:
				g.launched, g.dsl, g.tenant = true, wr.Strategy, wr.Tenant
				delete(queue, wr.Run)
			case EventRunFinished:
				g.status = wr.Status
			}
			g.events = append(g.events, wr.event())
			id = g.id
		}
		f.owner = append(f.owner, id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, g := range runs {
		f.runs = append(f.runs, g)
	}
	sort.Slice(f.runs, func(a, b int) bool { return f.runs[a].id < f.runs[b].id })
	for _, q := range queue {
		f.queue = append(f.queue, q)
	}
	sort.Slice(f.queue, func(a, b int) bool { return f.queue[a].id < f.queue[b].id })
	return f, nil
}

// Recover replays a write-ahead journal into the engine at startup,
// rebuilding every run the previous process journaled:
//
//   - Runs whose run-finished record is present come back in their
//     terminal state with their full event history, and their terminal
//     routing (candidate for succeeded, baseline for rolled-back) is
//     re-installed on the table, which an in-memory table lost with the
//     process.
//   - In-flight runs re-enter the run loop at the position the journal
//     ends on (its records folded through cursor.apply, as the live loop
//     folds them while writing); their first step runs here, before Recover
//     returns. A phase the crash interrupted concludes as inconclusive
//     and the strategy's own chaining decides what follows (a retry
//     counts against MaxRetries); a journaled outcome is not observed
//     again; a journaled transition is applied, never re-decided. A step
//     that ends in rollback/promote/abort settles the run, recording
//     why; otherwise the run resumes at the phase the step reached.
//
// That step's records are journaled like any others (through
// cfg.Journal, normally the same journal), so recovering twice from the
// same log is idempotent.
//
// Straight after the fold, before any run is rebuilt, Recover compacts
// j: it drops the generations a relaunch superseded, the queue records
// of submissions no longer pending, and undecodable records. The queue
// comes back in the report; pass rep.Queued to Scheduler.Restore. Call
// Recover once at boot, before anything launches or queues a strategy
// (a launch reusing a run name between the fold and the rewrite would
// shift which generation is latest); records appended to j after the
// fold are kept all the same.
func (e *Engine) Recover(j journal.Journal) (*RecoveryReport, error) {
	f, err := foldJournal(j)
	if err != nil {
		return nil, fmt.Errorf("bifrost: journal replay: %w", err)
	}
	if err := f.compact(j); err != nil {
		return nil, fmt.Errorf("bifrost: journal compaction: %w", err)
	}
	rep := &RecoveryReport{DecodeErrors: f.decodeErrors}
	skip := func(name, why string) {
		rep.Skipped++
		rep.Runs = append(rep.Runs, RecoveredRun{Name: name, Action: "skipped: " + why})
	}
	for _, g := range f.runs {
		report := func(category *int, status RunStatus, action string) {
			*category++
			rep.Runs = append(rep.Runs, RecoveredRun{Name: g.name, Status: status, Action: action})
		}
		if !g.launched || g.dsl == "" {
			skip(g.name, "no launch record with strategy source")
			continue
		}
		s, err := ParseStrategy(g.dsl)
		if err != nil {
			skip(g.name, fmt.Sprintf("strategy source unparseable: %v", err))
			continue
		}
		// The DSL never names a tenant; re-stamp it from the journal
		// envelope so recovered runs keep their owner (and their
		// tenant-qualified routing and metric scopes).
		s.Tenant = g.tenant

		run := &Run{
			strategy:  s,
			engine:    e,
			recovered: true,
			status:    StatusRunning,
			log:       &runLog{events: trailOf(g.events)},
			done:      make(chan struct{}),
			cancel:    make(chan struct{}),
		}
		if g.status != 0 {
			run.status = g.status // terminal before the crash
		}
		e.mu.Lock()
		if _, exists := e.runs[s.RunKey()]; exists {
			e.mu.Unlock()
			skip(g.name, "a run with this name already exists")
			continue
		}
		run.seq = e.nextSeq
		e.nextSeq++
		e.runs[s.RunKey()] = run
		e.mu.Unlock()

		// Re-open the topology assessment: traces died with the old
		// process, so resumed runs start fresh graphs; terminal runs get
		// a frozen (empty) assessment so their health surface answers.
		if e.cfg.Topology != nil {
			e.cfg.Topology.Register(s.RunKey(), s.RouteService(), s.Baseline, s.Candidate, e.cfg.Clock.Now())
			if g.status != 0 {
				e.cfg.Topology.Freeze(s.RunKey())
			}
		}

		switch {
		case g.status != 0:
			// Restore the terminal routing; no new events.
			close(run.done)
			switch g.status {
			case StatusSucceeded:
				_ = e.routeAll(s, s.Candidate)
			case StatusRolledBack:
				_ = e.routeAll(s, s.Baseline)
			}
			report(&rep.Finished, g.status, "finished")
		case s.hasTopologyChecks() && e.cfg.Topology == nil:
			// A topology-gated run cannot make progress without an assessor
			// (every verdict would be inconclusive until retries exhaust):
			// mirror Launch's guard by settling it with a clear reason
			// instead of letting it spin.
			run.record(Event{At: e.cfg.Clock.Now(), Type: EventTransition,
				Detail: recoveryNote + "abort; strategy gates on topology checks but the engine has no topology assessor (live tracing disabled)"})
			run.finish(StatusAborted, "crash recovery: topology checks unavailable without a topology assessor")
			close(run.done)
			report(&rep.Settled, StatusAborted, "aborted: topology checks need a topology assessor")
		default:
			var c cursor
			for _, ev := range g.events {
				c.apply(s, ev)
			}
			c.recovering = true
			if run.step(&c) {
				report(&rep.Resumed, StatusRunning, "resumed at phase "+phaseName(s, c.idx))
				go run.loopFrom(c)
			} else {
				close(run.done)
				report(&rep.Settled, run.Status(), fmt.Sprintf("%s: %s", run.Status(), c.why))
			}
		}
	}
	for _, q := range f.queue {
		s, err := ParseStrategy(q.Strategy)
		if err != nil {
			skip(q.Run, fmt.Sprintf("queued strategy source unparseable: %v", err))
			continue
		}
		s.Tenant = q.Tenant
		rep.Queued = append(rep.Queued, PendingSubmission{Name: q.Run, Strategy: s, QueuedAt: q.At})
	}
	return rep, nil
}

// compact rewrites j keeping the records of each run name's latest
// generation and of each pending submission, plus whatever was appended
// after the fold. A consumed submission's history lives on in its run's
// own records.
func (f *journalFold) compact(j journal.Journal) error {
	live := make(map[int]bool, len(f.runs)+len(f.queue))
	for _, g := range f.runs {
		live[g.id] = true
	}
	for _, q := range f.queue {
		live[q.id] = true
	}
	pos := -1
	return j.Compact(func([]byte) bool {
		pos++
		return pos >= len(f.owner) || live[f.owner[pos]]
	})
}

// PendingSubmission is one still-queued strategy restored from the
// journal: a run-queued record with no later launch or dequeue for the
// same name.
type PendingSubmission struct {
	// Name is the tenant-qualified strategy (and future run) name.
	Name string
	// Strategy is the reparsed strategy.
	Strategy *Strategy
	// QueuedAt is the original submission time.
	QueuedAt time.Time
}
