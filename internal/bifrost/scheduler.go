package bifrost

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/journal"
)

// Scheduler sits between strategy submission and Engine.Launch: the
// live counterpart of Fenrir's offline planning. Submissions become
// queue entries; entries whose conflict footprint (service ownership,
// explicit user groups, aggregate candidate-traffic capacity,
// max-concurrency) is clear launch immediately, the rest wait in the
// queue. Every queue-affecting event — a submission, a run finishing
// (early or not), a cancellation — triggers a pump: launchable entries
// launch, and the remaining queue is re-placed on the planning horizon
// by the genetic optimizer (warm-started through fenrir.Reevaluate) so
// operators always see a projected start for everything that waits.
//
// Queue state is event-sourced through the engine's journal:
// EventRunQueued (carrying the strategy DSL) on admission,
// EventRunScheduled when an entry is handed to Engine.Launch, and
// EventRunDequeued on cancellation. RecoverQueue replays those records
// so a daemon restart restores still-pending submissions (see
// docs/SCHEDULING.md).
type Scheduler struct {
	cfg   SchedulerConfig
	epoch time.Time // slot 0 of the planning horizon

	mu      sync.Mutex
	queue   []*queueEntry
	running map[string]*liveRun
	plan    *Plan
	planner planner
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
	// SlotDuration is the planning granularity (default 30s).
	SlotDuration time.Duration
	// HorizonSlots is the planning horizon length (default 2880 slots =
	// 24h at the default granularity). The horizon re-anchors when the
	// current slot outgrows it.
	HorizonSlots int
	// OptimizeBudget is the fitness-evaluation budget per replanning
	// round (default 3000).
	OptimizeBudget int
	// Seed makes planning deterministic (default 1).
	Seed int64
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
	if cfg.SlotDuration <= 0 {
		cfg.SlotDuration = 30 * time.Second
	}
	if cfg.HorizonSlots <= 4 {
		cfg.HorizonSlots = 2880
	}
	if cfg.OptimizeBudget <= 0 {
		cfg.OptimizeBudget = 3000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg, nil
}

// queueEntry is one pending submission.
type queueEntry struct {
	strategy  *Strategy
	groups    []expmodel.UserGroup
	share     float64
	slots     int
	queuedAt  time.Time
	recovered bool
	reason    string // why the entry is still waiting
	// scheduledJournaled guards the run-scheduled record: a launch that
	// the engine rejects (an untracked run raced the footprint check)
	// leaves the entry queued, and its retries must not append the
	// record again.
	scheduledJournaled bool
}

// liveRun is one run the scheduler launched (or adopted) and tracks
// until completion.
type liveRun struct {
	run       *Run
	service   string
	groups    []expmodel.UserGroup
	share     float64
	startedAt time.Time // wall-clock launch (or adoption) time
	start     int       // launch slot
	estEnd    int       // estimated exclusive end slot
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
	s := &Scheduler{
		cfg:     full,
		epoch:   full.Engine.cfg.Clock.Now(),
		running: make(map[string]*liveRun),
		planner: planner{
			slotDur:  full.SlotDuration,
			horizon:  full.HorizonSlots,
			capacity: full.Capacity,
			budget:   full.OptimizeBudget,
			seed:     full.Seed,
		},
	}
	return s, nil
}

// now returns the engine clock's current time.
func (s *Scheduler) now() time.Time { return s.cfg.Engine.cfg.Clock.Now() }

// slotAt maps a time onto the planning horizon, re-anchoring the epoch
// (and dropping warm-start state) when the horizon is outgrown. Caller
// holds s.mu.
func (s *Scheduler) slotAt(t time.Time) int {
	slot := int(t.Sub(s.epoch) / s.cfg.SlotDuration)
	if slot < 0 {
		return 0
	}
	if slot >= s.cfg.HorizonSlots/2 {
		// Re-anchor: shift the epoch to now so the horizon always has
		// room ahead, and restate running runs' rectangles relative to
		// the new origin.
		s.epoch = t
		for _, lr := range s.running {
			remaining := lr.estEnd - slot
			if remaining < 1 {
				remaining = 1
			}
			lr.start = 0
			lr.estEnd = remaining
		}
		// The old plan's slot numbers are meaningless under the new
		// epoch; drop it (and the warm-start state) until the next pump
		// replans.
		s.plan = nil
		s.planner.Reset()
		slot = 0
	}
	return slot
}

// slotTime is the inverse mapping. Caller holds s.mu.
func (s *Scheduler) slotTime(slot int) time.Time {
	return s.epoch.Add(time.Duration(slot) * s.cfg.SlotDuration)
}

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
	share := peakShare(strategy)
	if share > s.cfg.Capacity {
		return SubmitResult{}, fmt.Errorf(
			"bifrost: strategy %q peaks at %.0f%% candidate traffic, above the scheduler capacity %.0f%%",
			strategy.Name, share*100, s.cfg.Capacity*100)
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
	est := estimateDuration(strategy)
	entry := &queueEntry{
		strategy: strategy,
		groups:   conflictGroups(strategy),
		share:    share,
		slots:    s.planner.durationSlots(est),
		queuedAt: now,
	}
	s.journalQueueEvent(Event{At: now, Type: EventRunQueued,
		Detail: fmt.Sprintf("service=%s share=%.0f%% est=%s",
			strategy.Service, share*100, est)},
		strategy, WriteDSL(strategy))
	s.queue = append(s.queue, entry)
	s.pumpLocked()

	if lr, ok := s.running[strategy.RunKey()]; ok {
		return SubmitResult{Run: lr.run}, nil
	}
	return SubmitResult{Queued: true, Entry: s.entryView(entry)}, nil
}

// Restore re-enqueues submissions recovered from the journal (see
// RecoverQueue). The queued records already exist in the journal, so
// restoring journals nothing new. Call before serving traffic; the
// restored entries launch as soon as their conflicts clear.
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
		s.queue = append(s.queue, &queueEntry{
			strategy:  p.Strategy,
			groups:    conflictGroups(p.Strategy),
			share:     peakShare(p.Strategy),
			slots:     s.planner.durationSlots(estimateDuration(p.Strategy)),
			queuedAt:  p.QueuedAt,
			recovered: true,
		})
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

// Queued reports whether a submission with this tenant-qualified name
// is waiting.
func (s *Scheduler) Queued(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, qe := range s.queue {
		if qe.strategy.RunKey() == name {
			return true
		}
	}
	return false
}

// Close stops admission. Queued entries stay queued; live runs keep
// running.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Version increments on every observable queue or plan change; pollers
// (the schedule SSE stream) re-snapshot when it moves.
func (s *Scheduler) Version() uint64 { return s.version.Load() }

// JournalErrors reports queue lifecycle records that failed to append.
func (s *Scheduler) JournalErrors() int64 { return s.journalErrs.Load() }

// Launches reports how many queue entries this scheduler handed to
// Engine.Launch.
func (s *Scheduler) Launches() int64 { return s.launched.Load() }

// Dequeues reports how many queued submissions were withdrawn before
// launching.
func (s *Scheduler) Dequeues() int64 { return s.dequeued.Load() }

// --- pump: the scheduling loop body ---

// Pump re-evaluates the queue against current engine state. The
// scheduler pumps itself on submissions, cancellations, and tracked-run
// completions; callers (contexpd after recovery, tests) can force a
// pass after changing engine state behind the scheduler's back.
func (s *Scheduler) Pump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pumpLocked()
}

// pumpLocked launches every queue entry whose conflicts are clear, then
// replans the remainder. Caller holds s.mu.
func (s *Scheduler) pumpLocked() {
	defer s.version.Add(1)
	now := s.now()
	slot := s.slotAt(now)

	// Drop finished runs from the running set (their completion watcher
	// normally does this, but submissions may race it).
	for name, lr := range s.running {
		if lr.run.Status() != StatusRunning {
			delete(s.running, name)
		}
	}
	s.adoptRunningLocked(slot)

	// Launch pass: queue order, later entries may overtake blocked ones
	// (disjoint-service submissions enact concurrently).
	remaining := s.queue[:0]
	for _, qe := range s.queue {
		reason := s.blockReasonLocked(qe)
		if reason != "" {
			qe.reason = reason
			remaining = append(remaining, qe)
			continue
		}
		if err := s.launchLocked(qe, now, slot); err != nil {
			// Engine-side rejection (e.g. a run launched around the
			// scheduler owns the service): keep the entry queued and try
			// again on the next pump.
			qe.reason = err.Error()
			remaining = append(remaining, qe)
		}
	}
	s.queue = remaining

	// Replan the projection for whatever still waits.
	s.replanLocked(slot)
}

// adoptRunningLocked tracks live engine runs the scheduler did not
// launch itself — recovered after a crash, or launched around the
// scheduler by library users and the demo. Adoption gives them a
// conflict footprint (so queued entries wait behind them) and a
// completion watcher (so their finish pumps the queue). It reports
// whether anything was adopted. Caller holds s.mu.
func (s *Scheduler) adoptRunningLocked(slot int) bool {
	adopted := false
	for _, run := range s.cfg.Engine.Runs() {
		if run.Status() != StatusRunning {
			continue
		}
		st := run.Strategy()
		if _, ok := s.running[st.RunKey()]; ok {
			continue
		}
		adopted = true
		s.running[st.RunKey()] = &liveRun{
			run:       run,
			service:   st.RouteService(),
			groups:    conflictGroups(st),
			share:     peakShare(st),
			startedAt: s.now(),
			start:     slot,
			estEnd:    slot + s.planner.durationSlots(estimateDuration(st)),
		}
		name := st.RunKey()
		go func() {
			<-run.Done()
			s.onRunDone(name)
		}()
	}
	return adopted
}

// blockReasonLocked explains why an entry cannot launch right now
// ("" when it can). Concurrency and candidate-traffic capacity are
// budgeted per tenant — each tenant exposes its own user population,
// so one tenant's experiments must not starve another's — while the
// group-footprint conflicts below are already tenant-disjoint because
// conflictGroups qualifies every group name. Caller holds s.mu.
func (s *Scheduler) blockReasonLocked(qe *queueEntry) string {
	tenant := qe.strategy.Tenant
	live, used := 0, 0.0
	for _, lr := range s.running {
		if lr.run.strategy.Tenant != tenant {
			continue
		}
		live++
		used += lr.share
	}
	if live >= s.cfg.MaxConcurrent {
		return fmt.Sprintf("max-concurrent reached (%d)", s.cfg.MaxConcurrent)
	}
	if used+qe.share > s.cfg.Capacity+1e-9 {
		return fmt.Sprintf("capacity: %.0f%% in use, needs %.0f%%, ceiling %.0f%%",
			used*100, qe.share*100, s.cfg.Capacity*100)
	}
	for _, lr := range s.running {
		for _, g := range qe.groups {
			for _, rg := range lr.groups {
				if g == rg {
					if g == serviceGroup(lr.service) {
						return fmt.Sprintf("service %q busy with run %q", lr.service, lr.run.strategy.Name)
					}
					return fmt.Sprintf("user group %q held by run %q", g, lr.run.strategy.Name)
				}
			}
		}
	}
	return ""
}

// launchLocked journals the scheduled event and hands the entry to
// Engine.Launch. Caller holds s.mu.
func (s *Scheduler) launchLocked(qe *queueEntry, now time.Time, slot int) error {
	if !qe.scheduledJournaled {
		qe.scheduledJournaled = true
		s.journalQueueEvent(Event{At: now, Type: EventRunScheduled,
			Detail: fmt.Sprintf("slot=%d waited=%s", slot, now.Sub(qe.queuedAt).Round(time.Millisecond))},
			qe.strategy, "")
	}
	run, err := s.cfg.Engine.Launch(qe.strategy)
	if err != nil {
		return err
	}
	lr := &liveRun{
		run:       run,
		service:   qe.strategy.RouteService(),
		groups:    qe.groups,
		share:     qe.share,
		startedAt: now,
		start:     slot,
		estEnd:    slot + qe.slots,
	}
	s.running[qe.strategy.RunKey()] = lr
	s.launched.Add(1)
	go func() {
		<-run.Done()
		s.onRunDone(qe.strategy.RunKey())
	}()
	return nil
}

// onRunDone reacts to a tracked run finishing (early, failed, or on
// schedule): free its footprint and pump the queue.
func (s *Scheduler) onRunDone(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, name)
	s.pumpLocked()
}

// replanLocked re-places the queue on the horizon. Planning failures
// are tolerated — the projection goes stale but launch gating (which
// checks actual conflicts) keeps working. Caller holds s.mu.
func (s *Scheduler) replanLocked(slot int) {
	running := make([]planRun, 0, len(s.running))
	for name, lr := range s.running {
		running = append(running, planRun{
			name: name, groups: lr.groups, share: lr.share,
			start: lr.start, estEnd: lr.estEnd,
		})
	}
	pending := make([]planPending, 0, len(s.queue))
	for _, qe := range s.queue {
		pending = append(pending, planPending{
			name: qe.strategy.RunKey(), groups: qe.groups, share: qe.share, slots: qe.slots,
		})
	}
	plan, err := s.planner.Replan(slot, running, pending)
	if err != nil {
		s.plan = nil
		return
	}
	s.plan = plan
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
	Name     string   `json:"name"`
	Tenant   string   `json:"tenant,omitempty"`
	Service  string   `json:"service"`
	Groups   []string `json:"groups,omitempty"`
	Share    float64  `json:"share"`
	Position int      `json:"position"`
	// State is "queued" until the entry launches (then it leaves the
	// queue and appears under running).
	State    string    `json:"state"`
	QueuedAt time.Time `json:"queuedAt"`
	// PlannedStart is the optimizer's projected launch time (zero when
	// the last replanning round could not place the entry).
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
	Slot          int                `json:"slot"`
	SlotDuration  string             `json:"slotDuration"`
	HorizonSlots  int                `json:"horizonSlots"`
	Capacity      float64            `json:"capacity"`
	MaxConcurrent int                `json:"maxConcurrent"`
	Version       uint64             `json:"version"`
	PlanFitness   float64            `json:"planFitness,omitempty"`
	PlanValid     bool               `json:"planValid"`
	Running       []ScheduledRunView `json:"running"`
	Queue         []QueueEntryView   `json:"queue"`
	Recent        []QueueEvent       `json:"recent,omitempty"`
}

// entryView renders one queue entry. Caller holds s.mu.
func (s *Scheduler) entryView(qe *queueEntry) QueueEntryView {
	v := QueueEntryView{
		Name:        qe.strategy.RunKey(),
		Tenant:      qe.strategy.Tenant,
		Service:     qe.strategy.Service,
		Share:       qe.share,
		State:       "queued",
		QueuedAt:    qe.queuedAt,
		EstDuration: time.Duration(qe.slots) * s.cfg.SlotDuration,
		Reason:      qe.reason,
		Recovered:   qe.recovered,
	}
	v.EstDurationS = v.EstDuration.String()
	for _, g := range strategyGroups(qe.strategy) {
		v.Groups = append(v.Groups, string(g))
	}
	for i, other := range s.queue {
		if other == qe {
			v.Position = i
			break
		}
	}
	if s.plan != nil {
		if start, ok := s.plan.Starts[qe.strategy.RunKey()]; ok {
			v.PlannedStart = s.slotTime(start)
		}
	}
	return v
}

// Snapshot returns the observable scheduler state. It prunes finished
// runs and adopts untracked live ones first, so the view reflects the
// engine even before the next queue-affecting event pumps.
func (s *Scheduler) Snapshot() ScheduleSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	slot := s.slotAt(now)
	changed := false
	for name, lr := range s.running {
		if lr.run.Status() != StatusRunning {
			delete(s.running, name)
			changed = true
		}
	}
	if s.adoptRunningLocked(slot) {
		changed = true
	}
	if changed {
		// Version moves on any observable change, including ones noticed
		// here rather than by a pump — the SSE stream keys off it.
		s.version.Add(1)
	}
	if s.plan == nil && (len(s.queue) > 0 || len(s.running) > 0) {
		// An epoch re-anchor dropped the plan mid-poll; rebuild the
		// projection here rather than waiting for the next queue event
		// (cheap when nothing is queued: frozen genes skip the search).
		s.replanLocked(slot)
	}
	snap := ScheduleSnapshot{
		Now:           now,
		Slot:          slot,
		SlotDuration:  s.cfg.SlotDuration.String(),
		HorizonSlots:  s.cfg.HorizonSlots,
		Capacity:      s.cfg.Capacity,
		MaxConcurrent: s.cfg.MaxConcurrent,
		Version:       s.version.Load(),
		Running:       make([]ScheduledRunView, 0, len(s.running)),
		Queue:         make([]QueueEntryView, 0, len(s.queue)),
	}
	if s.plan != nil {
		snap.PlanFitness = s.plan.Fitness
		snap.PlanValid = s.plan.Valid
	}
	for name, lr := range s.running {
		groups := make([]string, 0, len(lr.groups))
		for _, g := range strategyGroups(lr.run.strategy) {
			groups = append(groups, string(g))
		}
		snap.Running = append(snap.Running, ScheduledRunView{
			Name:      name,
			Tenant:    lr.run.strategy.Tenant,
			Service:   lr.run.strategy.Service,
			Groups:    groups,
			Share:     lr.share,
			StartedAt: lr.startedAt,
			EstEnd:    s.slotTime(lr.estEnd),
			Status:    lr.run.Status().String(),
		})
	}
	sort.Slice(snap.Running, func(i, j int) bool {
		return snap.Running[i].StartedAt.Before(snap.Running[j].StartedAt)
	})
	for _, qe := range s.queue {
		snap.Queue = append(snap.Queue, s.entryView(qe))
	}
	snap.Recent = append(snap.Recent, s.recent...)
	return snap
}

// Gantt renders the latest plan as the ASCII chart Fenrir's offline
// scheduling example prints, one row per experiment (running runs and
// queued submissions alike).
func (s *Scheduler) Gantt(width int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan == nil || len(s.plan.Problem.Experiments) == 0 {
		return "(no schedule: queue is empty)\n"
	}
	return s.plan.Problem.Gantt(s.plan.Schedule, width)
}
