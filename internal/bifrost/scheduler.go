package bifrost

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/journal"
)

// Scheduler sits between strategy submission and Engine.Launch.
// Submissions become queue entries; an entry launches when the conflict
// rule (blockReason: per-tenant max-concurrency and candidate-traffic
// capacity, service ownership, explicit user groups) finds nothing in
// its way among the running set, and waits in the queue otherwise.
// Every queue-affecting event — a submission, a run finishing (early
// or not), a cancellation — triggers a pump that launches what has
// become clear. What still waits is given a projected start by playing
// that same launch pass forward over the running set's estimated ends
// (projectLocked), so "when will my experiment start?" is answered by
// the launch rule applied to estimates.
//
// Queue state is event-sourced through the engine's journal:
// EventRunQueued (carrying the strategy DSL) on admission,
// EventRunScheduled when an entry is handed to Engine.Launch, and
// EventRunDequeued on cancellation. Engine.Recover folds those records
// into RecoveryReport.Queued, which Restore takes, so a daemon restart
// restores still-pending submissions (see docs/SCHEDULING.md).
type Scheduler struct {
	cfg SchedulerConfig

	mu      sync.Mutex
	queue   []*queueEntry
	running map[string]*liveRun
	recent  []QueueEvent
	closed  bool

	version  atomic.Uint64
	launched atomic.Int64
	dequeued atomic.Int64
	// journalErrs counts queue lifecycle records that failed to reach
	// the journal (the in-memory queue keeps working).
	journalErrs atomic.Int64
}

// SchedulerConfig parameterizes a Scheduler.
type SchedulerConfig struct {
	// Engine launches scheduled strategies (required).
	Engine *Engine
	// Journal receives queue lifecycle records. Nil keeps queue state in
	// memory only (no restart recovery). Normally the engine's journal.
	Journal journal.Journal
	// MaxConcurrent bounds simultaneously enacting runs (default 4).
	MaxConcurrent int
	// Capacity bounds the aggregate peak candidate-traffic share of
	// concurrently enacting runs, reserving a control population
	// (default 0.8).
	Capacity float64
}

func (c *SchedulerConfig) withDefaults() (SchedulerConfig, error) {
	cfg := *c
	if cfg.Engine == nil {
		return cfg, errors.New("bifrost: scheduler requires an engine")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.Capacity <= 0 || cfg.Capacity > 1 {
		if cfg.Capacity != 0 {
			return cfg, fmt.Errorf("bifrost: scheduler capacity %v outside (0,1]", cfg.Capacity)
		}
		cfg.Capacity = 0.8
	}
	return cfg, nil
}

// queueEntry is one pending submission.
type queueEntry struct {
	strategy  *Strategy
	groups    []expmodel.UserGroup
	share     float64
	est       time.Duration // the strategy's estimateDuration
	queuedAt  time.Time
	recovered bool
	reason    string // why the entry is still waiting
	// scheduledJournaled guards the run-scheduled record: a launch that
	// the engine rejects (an untracked run raced the footprint check)
	// leaves the entry queued, and its retries must not append the
	// record again.
	scheduledJournaled bool
}

// newEntry sizes a strategy's footprint for the queue.
func newEntry(st *Strategy) *queueEntry {
	return &queueEntry{
		strategy: st,
		groups:   conflictGroups(st),
		share:    peakShare(st),
		est:      estimateDuration(st),
	}
}

// footprint is what the entry holds once it launches at start.
func (qe *queueEntry) footprint(start time.Time) footprint {
	return footprint{
		name:    qe.strategy.Name,
		tenant:  qe.strategy.Tenant,
		service: qe.strategy.RouteService(),
		groups:  qe.groups,
		share:   qe.share,
		end:     start.Add(qe.est),
	}
}

// liveRun is one run the scheduler launched (or adopted) and tracks
// until completion.
type liveRun struct {
	footprint
	run       *Run
	startedAt time.Time // launch (or adoption) time
}

// QueueEvent is one queue lifecycle event kept for observability (the
// schedule SSE stream and /v1/schedule expose the recent tail).
type QueueEvent struct {
	At     time.Time `json:"at"`
	Type   EventType `json:"type"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
}

const maxRecentQueueEvents = 64

// NewScheduler creates a Scheduler bound to an engine.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Scheduler{cfg: full, running: make(map[string]*liveRun)}, nil
}

// now returns the engine clock's current time.
func (s *Scheduler) now() time.Time { return s.cfg.Engine.cfg.Clock.Now() }

// SubmitResult reports what Submit did with a strategy.
type SubmitResult struct {
	// Run is the live run when the strategy launched immediately.
	Run *Run
	// Queued is true when the strategy is waiting in the queue.
	Queued bool
	// Entry is the queue view of the submission (set when Queued).
	Entry QueueEntryView
}

// Submit admits a strategy: it validates, journals the queued event,
// and pumps the queue — a conflict-free submission launches before
// Submit returns, a conflicting one waits.
func (s *Scheduler) Submit(strategy *Strategy) (SubmitResult, error) {
	if err := strategy.Validate(); err != nil {
		return SubmitResult{}, err
	}
	entry := newEntry(strategy)
	if entry.share > s.cfg.Capacity {
		return SubmitResult{}, fmt.Errorf(
			"bifrost: strategy %q peaks at %.0f%% candidate traffic, above the scheduler capacity %.0f%%",
			strategy.Name, entry.share*100, s.cfg.Capacity*100)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResult{}, errors.New("bifrost: scheduler is closed")
	}
	for _, qe := range s.queue {
		if qe.strategy.RunKey() == strategy.RunKey() {
			return SubmitResult{}, fmt.Errorf("bifrost: strategy %q %w", strategy.Name, ErrAlreadyQueued)
		}
	}
	if run, ok := s.cfg.Engine.Get(strategy.RunKey()); ok && run.Status() == StatusRunning {
		return SubmitResult{}, fmt.Errorf("bifrost: strategy %q %w", strategy.Name, ErrAlreadyRunning)
	}

	now := s.now()
	entry.queuedAt = now
	s.journalQueueEvent(Event{At: now, Type: EventRunQueued,
		Detail: fmt.Sprintf("service=%s share=%.0f%% est=%s",
			strategy.Service, entry.share*100, entry.est)},
		strategy, WriteDSL(strategy))
	s.queue = append(s.queue, entry)
	s.pumpLocked()

	if lr, ok := s.running[strategy.RunKey()]; ok {
		return SubmitResult{Run: lr.run}, nil
	}
	// Still queued, so still where it was appended: last.
	last := len(s.queue) - 1
	return SubmitResult{Queued: true, Entry: s.entryView(last, s.projectLocked(now)[last])}, nil
}

// Restore re-enqueues submissions recovered from the journal
// (RecoveryReport.Queued). The queued records already exist in the journal, so
// restoring journals nothing new. Call before serving traffic; the
// restored entries launch as soon as their conflicts clear. Restore
// does not re-run admission: an entry whose share exceeds a capacity
// lowered since it was admitted stays queued under its capacity reason,
// with no projected start, until it is canceled.
func (s *Scheduler) Restore(pending []PendingSubmission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pending {
		dup := false
		for _, qe := range s.queue {
			if qe.strategy.RunKey() == p.Name {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		entry := newEntry(p.Strategy)
		entry.queuedAt, entry.recovered = p.QueuedAt, true
		s.queue = append(s.queue, entry)
	}
	s.pumpLocked()
}

// Cancel withdraws a queued submission before it launches, by its
// tenant-qualified name. It does not touch live runs (use Run.Abort
// for those).
func (s *Scheduler) Cancel(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, qe := range s.queue {
		if qe.strategy.RunKey() != name {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.journalQueueEvent(Event{At: s.now(), Type: EventRunDequeued,
			Detail: "canceled by operator"}, qe.strategy, "")
		s.dequeued.Add(1)
		s.pumpLocked()
		return nil
	}
	return fmt.Errorf("bifrost: no queued strategy named %q", name)
}

// Close stops admission. Queued entries stay queued; live runs keep
// running.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// JournalErrors reports queue lifecycle records that failed to append.
func (s *Scheduler) JournalErrors() int64 { return s.journalErrs.Load() }

// Launches reports how many queue entries this scheduler handed to
// Engine.Launch.
func (s *Scheduler) Launches() int64 { return s.launched.Load() }

// Dequeues reports how many queued submissions were withdrawn before
// launching.
func (s *Scheduler) Dequeues() int64 { return s.dequeued.Load() }

// --- pump: the scheduling loop body ---

// pumpLocked launches every queue entry whose conflicts are clear.
// Caller holds s.mu.
func (s *Scheduler) pumpLocked() {
	defer s.version.Add(1)
	now := s.now()
	s.syncRunningLocked(now)

	// One launch pass per instant: while a run estimated to end now is
	// still running, its own completion pumps next. Runs that end at one
	// instant are then retired together, as projectLocked plans them,
	// whatever order their completions arrive in.
	for _, lr := range s.running {
		if lr.end.Equal(now) {
			return
		}
	}

	// Launch pass: queue order, later entries may overtake blocked ones
	// (disjoint-service submissions enact concurrently).
	live := s.liveLocked()
	remaining := s.queue[:0]
	for _, qe := range s.queue {
		qe.reason = s.cfg.blockReason(qe, live)
		if qe.reason == "" {
			err := s.launchLocked(qe, now)
			if err == nil {
				live = append(live, qe.footprint(now))
				continue
			}
			// Engine-side rejection (e.g. a run launched around the
			// scheduler owns the service): keep the entry queued and try
			// again on the next pump.
			qe.reason = err.Error()
		}
		remaining = append(remaining, qe)
	}
	s.queue = remaining
}

// syncRunningLocked brings the running set in line with the engine and
// reports whether it changed. Finished runs leave it (their completion
// watcher normally does this, but submissions and polls may race it).
// Live engine runs the scheduler did not launch itself — recovered
// after a crash, or launched around the scheduler by library users and
// the demo — are adopted: they get a conflict footprint (so queued
// entries wait behind them) and a completion watcher (so their finish
// pumps the queue). Caller holds s.mu.
func (s *Scheduler) syncRunningLocked(now time.Time) bool {
	changed := false
	for name, lr := range s.running {
		if lr.run.Status() != StatusRunning {
			delete(s.running, name)
			changed = true
		}
	}
	for _, run := range s.cfg.Engine.Runs() {
		if run.Status() != StatusRunning {
			continue
		}
		if _, ok := s.running[run.strategy.RunKey()]; !ok {
			s.trackLocked(run, newEntry(run.strategy).footprint(now), now)
			changed = true
		}
	}
	return changed
}

// trackLocked adds a live run to the running set and pumps the queue
// when it finishes (early, failed, or on schedule). Caller holds s.mu.
func (s *Scheduler) trackLocked(run *Run, fp footprint, now time.Time) {
	name := run.strategy.RunKey()
	s.running[name] = &liveRun{footprint: fp, run: run, startedAt: now}
	go func() {
		<-run.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.running, name)
		s.pumpLocked()
	}()
}

// liveLocked is the running set as the conflict rule reads it. Caller
// holds s.mu.
func (s *Scheduler) liveLocked() []footprint {
	live := make([]footprint, 0, len(s.running)+len(s.queue))
	for _, lr := range s.running {
		live = append(live, lr.footprint)
	}
	return live
}

// launchLocked journals the scheduled event and hands the entry to
// Engine.Launch. Caller holds s.mu.
func (s *Scheduler) launchLocked(qe *queueEntry, now time.Time) error {
	if !qe.scheduledJournaled {
		qe.scheduledJournaled = true
		s.journalQueueEvent(Event{At: now, Type: EventRunScheduled,
			Detail: fmt.Sprintf("waited=%s", now.Sub(qe.queuedAt).Round(time.Millisecond))},
			qe.strategy, "")
	}
	run, err := s.cfg.Engine.Launch(qe.strategy)
	if err != nil {
		return err
	}
	s.trackLocked(run, qe.footprint(now), now)
	s.launched.Add(1)
	return nil
}

// projectLocked plays the launch pass forward on estimates and returns
// each queue entry's projected launch time, parallel to s.queue. From
// the running set's estimated ends (an overdue run ends now) it
// launches, in queue order with overtaking, whatever blockReason
// clears, advances to the next estimated end, and repeats. Every round
// but the last retires a footprint and only queue entries add any, so
// it takes at most queue + running rounds. An entry still blocked once
// nothing is live (its share exceeds a capacity lowered since it was
// admitted) can never launch and keeps the zero time. Caller holds
// s.mu.
func (s *Scheduler) projectLocked(now time.Time) []time.Time {
	starts := make([]time.Time, len(s.queue))
	live := s.liveLocked()
	for i := range live {
		if live[i].end.Before(now) {
			live[i].end = now
		}
	}
	for t, waiting := now, len(s.queue); waiting > 0; {
		for i, qe := range s.queue {
			if starts[i].IsZero() && s.cfg.blockReason(qe, live) == "" {
				starts[i] = t
				live = append(live, qe.footprint(t))
				waiting--
			}
		}
		if len(live) == 0 {
			break
		}
		t = live[0].end
		for _, f := range live[1:] {
			if f.end.Before(t) {
				t = f.end
			}
		}
		live = slices.DeleteFunc(live, func(f footprint) bool { return !f.end.After(t) })
	}
	return starts
}

// --- journaling ---

// journalQueueEvent appends one queue lifecycle record (and keeps it in
// the recent tail for observability). Queue records reuse the run-event
// wire envelope: the run name is the strategy name, and dsl (when
// non-empty) makes run-queued records self-contained the way
// run-launched records are. Caller holds s.mu.
func (s *Scheduler) journalQueueEvent(ev Event, strategy *Strategy, dsl string) {
	if s.cfg.Journal != nil {
		if err := journalEvent(s.cfg.Journal, strategy, ev, dsl, 0); err != nil {
			s.journalErrs.Add(1)
		}
	}
	s.recent = append(s.recent, QueueEvent{At: ev.At, Type: ev.Type, Name: strategy.RunKey(), Detail: ev.Detail})
	if len(s.recent) > maxRecentQueueEvents {
		s.recent = s.recent[len(s.recent)-maxRecentQueueEvents:]
	}
}

// --- snapshots ---

// QueueEntryView is the observable state of one queued submission.
// Name is tenant-qualified; Tenant repeats the owner for display
// (omitted for the default tenant).
type QueueEntryView struct {
	Name    string   `json:"name"`
	Tenant  string   `json:"tenant,omitempty"`
	Service string   `json:"service"`
	Groups  []string `json:"groups,omitempty"`
	Share   float64  `json:"share"`
	// Position counts the tenant's own entries queued ahead of this one:
	// budgets are per tenant, so no other entry can hold it back.
	Position int `json:"position"`
	// State is "queued" until the entry launches (then it leaves the
	// queue and appears under running).
	State    string    `json:"state"`
	QueuedAt time.Time `json:"queuedAt"`
	// PlannedStart is the projected launch time: when the launch rule
	// clears the entry if every run takes its estimated duration. Zero
	// when the entry cannot launch even with nothing running.
	PlannedStart time.Time     `json:"plannedStart,omitzero"`
	EstDuration  time.Duration `json:"-"`
	EstDurationS string        `json:"estDuration"`
	Reason       string        `json:"reason,omitempty"`
	Recovered    bool          `json:"recovered,omitempty"`
}

// ScheduledRunView is the observable state of one tracked live run.
// Name is tenant-qualified; Tenant repeats the owner for display.
type ScheduledRunView struct {
	Name      string    `json:"name"`
	Tenant    string    `json:"tenant,omitempty"`
	Service   string    `json:"service"`
	Groups    []string  `json:"groups,omitempty"`
	Share     float64   `json:"share"`
	StartedAt time.Time `json:"startedAt"`
	EstEnd    time.Time `json:"estEnd"`
	Status    string    `json:"status"`
}

// ScheduleSnapshot is the full observable scheduler state.
type ScheduleSnapshot struct {
	Now           time.Time          `json:"now"`
	Capacity      float64            `json:"capacity"`
	MaxConcurrent int                `json:"maxConcurrent"`
	Version       uint64             `json:"version"`
	Running       []ScheduledRunView `json:"running"`
	Queue         []QueueEntryView   `json:"queue"`
	Recent        []QueueEvent       `json:"recent,omitempty"`
}

// groupNames lists a strategy's explicit user groups for display.
func groupNames(st *Strategy) []string {
	groups := strategyGroups(st)
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = string(g)
	}
	return names
}

// entryView renders queue entry i with its projected start. Caller
// holds s.mu.
func (s *Scheduler) entryView(i int, plannedStart time.Time) QueueEntryView {
	qe := s.queue[i]
	v := QueueEntryView{
		Name:         qe.strategy.RunKey(),
		Tenant:       qe.strategy.Tenant,
		Service:      qe.strategy.Service,
		Groups:       groupNames(qe.strategy),
		Share:        qe.share,
		State:        "queued",
		QueuedAt:     qe.queuedAt,
		PlannedStart: plannedStart,
		EstDuration:  qe.est,
		EstDurationS: qe.est.String(),
		Reason:       qe.reason,
		Recovered:    qe.recovered,
	}
	for _, ahead := range s.queue[:i] {
		if ahead.strategy.Tenant == v.Tenant {
			v.Position++
		}
	}
	return v
}

// Snapshot returns the observable scheduler state. It syncs the running
// set with the engine first, so the view reflects the engine even
// before the next queue-affecting event pumps.
func (s *Scheduler) Snapshot() ScheduleSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if s.syncRunningLocked(now) {
		// Version moves on any observable change, including ones noticed
		// here rather than by a pump — the SSE stream keys off it.
		s.version.Add(1)
	}
	snap := ScheduleSnapshot{
		Now:           now,
		Capacity:      s.cfg.Capacity,
		MaxConcurrent: s.cfg.MaxConcurrent,
		Version:       s.version.Load(),
		Running:       make([]ScheduledRunView, 0, len(s.running)),
		Queue:         make([]QueueEntryView, 0, len(s.queue)),
	}
	for name, lr := range s.running {
		snap.Running = append(snap.Running, ScheduledRunView{
			Name:      name,
			Tenant:    lr.tenant,
			Service:   lr.run.strategy.Service,
			Groups:    groupNames(lr.run.strategy),
			Share:     lr.share,
			StartedAt: lr.startedAt,
			EstEnd:    lr.end,
			Status:    lr.run.Status().String(),
		})
	}
	sort.Slice(snap.Running, func(i, j int) bool {
		return snap.Running[i].StartedAt.Before(snap.Running[j].StartedAt)
	})
	for i, start := range s.projectLocked(now) {
		snap.Queue = append(snap.Queue, s.entryView(i, start))
	}
	snap.Recent = append(snap.Recent, s.recent...)
	return snap
}

// Gantt charts the projection as text, one row per run on a wall-clock
// axis from now to the last projected end: running runs up to their
// estimated end, queued submissions from their projected start. Bar
// height is the candidate-traffic share.
func (s *Scheduler) Gantt(width int) string {
	snap := s.Snapshot()
	if len(snap.Running)+len(snap.Queue) == 0 {
		return "(no schedule: nothing running or queued)\n"
	}
	if width <= 0 {
		width = 72
	}
	type row struct {
		label, note string
		share       float64
		start, end  time.Time
	}
	var rows []row
	end := snap.Now
	for _, rv := range snap.Running {
		r := row{rv.Name, "running", rv.Share, snap.Now, rv.EstEnd}
		if rv.EstEnd.Before(snap.Now) {
			r.note = "overdue"
		}
		rows = append(rows, r)
	}
	for _, qv := range snap.Queue {
		r := row{label: qv.Name, note: "blocked", share: qv.Share}
		if !qv.PlannedStart.IsZero() {
			r.note = "queued"
			r.start, r.end = qv.PlannedStart, qv.PlannedStart.Add(qv.EstDuration)
		}
		rows = append(rows, r)
	}
	labelWidth := len("from now")
	for _, r := range rows {
		labelWidth = max(labelWidth, len(r.label))
		if r.end.After(end) {
			end = r.end
		}
	}
	col := max(end.Sub(snap.Now), time.Second) / time.Duration(width)

	var b strings.Builder
	span := "+" + end.Sub(snap.Now).Round(time.Second).String()
	fmt.Fprintf(&b, "%-*s |%-*s%s|\n", labelWidth, "from now", width-len(span), "+0s", span)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s |", labelWidth, r.label)
		for c := 0; c < width; c++ {
			lo := snap.Now.Add(time.Duration(c) * col)
			if r.start.Before(lo.Add(col)) && r.end.After(lo) {
				b.WriteRune(shareGlyph(r.share))
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "|  %s %.0f%%\n", r.note, r.share*100)
	}
	return b.String()
}

// shareGlyph maps a traffic share to a bar glyph.
func shareGlyph(share float64) rune {
	switch {
	case share >= 0.3:
		return '█'
	case share >= 0.2:
		return '▆'
	case share >= 0.1:
		return '▄'
	default:
		return '▂'
	}
}
