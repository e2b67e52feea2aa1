package bifrost

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/clock"
	"contexp/internal/expmodel"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/router"
)

// RunStatus is the lifecycle state of a strategy run.
type RunStatus int

// Run states.
const (
	StatusRunning RunStatus = iota + 1
	// StatusSucceeded: the candidate was promoted to all users.
	StatusSucceeded
	// StatusRolledBack: users were rerouted to the baseline after a
	// failed phase.
	StatusRolledBack
	// StatusAborted: the run ended without touching routing.
	StatusAborted
)

// String names the status.
func (s RunStatus) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusSucceeded:
		return "succeeded"
	case StatusRolledBack:
		return "rolled-back"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// EventType classifies run events.
type EventType string

// Event types.
const (
	// EventRunLaunched opens every run's log; its journal record carries
	// the strategy's canonical DSL source, making the journal
	// self-contained for recovery.
	EventRunLaunched  EventType = "run-launched"
	EventPhaseEntered EventType = "phase-entered"
	EventCheckResult  EventType = "check-result"
	EventPhaseOutcome EventType = "phase-outcome"
	EventTransition   EventType = "transition"
	// EventTrafficApplied is journaled immediately before a routing
	// change is installed — the write-ahead half of enactment: after a
	// crash the journal names the last routing intent even if the
	// change itself was lost with the in-memory table.
	EventTrafficApplied EventType = "traffic-applied"
	EventRunFinished    EventType = "run-finished"
	EventRolloutStep    EventType = "rollout-step"

	// EventTopologyVerdict is the topology counterpart of
	// EventCheckResult: one evaluation of a `kind = topology` check,
	// carrying the structural verdict (change counts, evidence base, and
	// the top-ranked disallowed changes) in its detail. Verdicts go
	// through the write-ahead journal like every event, so recovery
	// replays the structural decisions a crashed daemon already made
	// instead of re-deriving them from traces that died with the
	// process.
	EventTopologyVerdict EventType = "topology-verdict"

	// Queue lifecycle events. They are journaled by the Scheduler under
	// the strategy's (future) run name before any run exists:
	// EventRunQueued carries the strategy DSL (like EventRunLaunched) so
	// a crashed daemon can restore still-pending submissions,
	// EventRunScheduled marks the moment the scheduler hands the
	// strategy to Engine.Launch, and EventRunDequeued marks a queued
	// submission withdrawn before launch. Engine.Recover rebuilds no run
	// from them; it hands the pending ones back in RecoveryReport.Queued.
	EventRunQueued    EventType = "run-queued"
	EventRunScheduled EventType = "run-scheduled"
	EventRunDequeued  EventType = "run-dequeued"
)

// queueLifecycle reports whether an event type belongs to the
// scheduler's queue lifecycle rather than to a run's own log.
func queueLifecycle(t EventType) bool {
	return t == EventRunQueued || t == EventRunScheduled || t == EventRunDequeued
}

// Event is one entry of a run's audit trail. The trail keeps At as its
// Unix seconds, nanoseconds and zone (trail.go), so an event read back
// prints the RFC 3339 text it was recorded with and a UTC stamp compares
// == to the original; a clock.Real stamp's monotonic reading is dropped,
// as a journal round trip drops it.
type Event struct {
	At      time.Time `json:"at"`
	Type    EventType `json:"type"`
	Phase   string    `json:"phase,omitempty"`
	Check   string    `json:"check,omitempty"`
	Outcome Outcome   `json:"outcome,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Querier is the narrow metric-query surface the engine's check
// evaluation depends on. *metrics.Store satisfies it; so does any
// external telemetry backend (Prometheus adapter, test stub), which
// decouples the execution engine from the concrete store.
type Querier interface {
	Query(metric string, scope metrics.Scope, since time.Time, agg metrics.Aggregation) (float64, error)
}

var _ Querier = (*metrics.Store)(nil)

// Config parameterizes an Engine.
type Config struct {
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Table is the routing table the engine manipulates (required).
	Table *router.Table
	// Store answers the metric queries checks evaluate (required).
	// Typically a *metrics.Store.
	Store Querier
	// DefaultCheckInterval applies to checks without an Interval
	// (default 10s).
	DefaultCheckInterval time.Duration
	// Journal, when set, receives every run event as a write-ahead
	// record before the event's side effects are applied. Replaying the
	// journal into a fresh engine (Recover) rebuilds all runs. Nil
	// disables journaling: runs live only in process memory, the
	// pre-journal behavior.
	Journal journal.Journal
	// Topology, when set, answers `kind = topology` checks from the live
	// interaction-graph comparison (typically a *health.Monitor). Every
	// launched run is registered with it so GET /v1/runs/{name}/health
	// has data even for metric-only strategies. Nil rejects strategies
	// with topology checks at launch.
	Topology TopologyAssessor
}

// Engine executes live testing strategies concurrently: the Bifrost
// middleware core (Fig 4.4). One goroutine drives each run's state
// machine and evaluates its checks (dispatch.go); checks are multiplexed
// on per-run timers; routing changes go through the shared router table.
type Engine struct {
	cfg Config

	// evaluators dispatches check evaluation by kind: the metric querier
	// and the topology assessor are the built-in implementations behind
	// the common CheckEvaluator seam.
	evaluators map[CheckKind]CheckEvaluator

	mu      sync.Mutex
	runs    map[string]*Run
	nextSeq uint64 // launch-order counter

	// journalErrs counts events that could not be journaled (the event
	// still lands in the in-memory trail; the run keeps going).
	journalErrs atomic.Int64

	// Instrumentation for the engine-performance evaluation
	// (Figs 4.7–4.10): total time spent evaluating checks, evaluation
	// count, the per-run memo's outcomes (dispatch.go), and the delay
	// between a check's due time and its actual evaluation.
	evalBusy    atomic.Int64 // nanoseconds
	evalCount   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// delays is a ring of the newest maxDelaySamples delays; once it is
	// full, delayNext indexes the oldest, which the next one overwrites.
	delayMu   sync.Mutex
	delays    []time.Duration
	delayNext int
}

// NewEngine creates an Engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Table == nil {
		return nil, errors.New("bifrost: engine requires a routing table")
	}
	if cfg.Store == nil {
		return nil, errors.New("bifrost: engine requires a metric store")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.DefaultCheckInterval <= 0 {
		cfg.DefaultCheckInterval = 10 * time.Second
	}
	e := &Engine{cfg: cfg, runs: make(map[string]*Run)}
	e.evaluators = map[CheckKind]CheckEvaluator{
		CheckMetric:   metricEvaluator{},
		CheckTopology: topologyEvaluator{},
	}
	return e, nil
}

// Run is one executing (or finished) strategy.
type Run struct {
	strategy *Strategy
	engine   *Engine
	// seq is the launch-order position (recovered runs keep their
	// original relative order).
	seq uint64
	// recovered marks runs rebuilt from a journal replay.
	recovered bool

	mu       sync.Mutex
	status   RunStatus
	phaseIdx int
	log      *runLog

	done   chan struct{}
	cancel chan struct{}
	// cancelOnce guards cancel closure.
	cancelOnce sync.Once

	// memo holds the store answers already computed for the instant
	// memoAt (dispatch.go). Only the run's own goroutine touches it.
	memoAt time.Time
	memo   []memoEntry
}

// runLog is what Run.record writes to. It is allocated apart from the
// Run: Launch scans every run the engine holds, and with these 270 bytes
// inside each Run that scan — most of rollback_fleet's submit handler —
// ran 12 % slower.
type runLog struct {
	// head is the opening of the run's last journal record (persist.go).
	// Only the goroutine driving the run touches it.
	head recordHead
	// events is the audit trail (trail.go), guarded by Run.mu.
	events trail
}

// ErrServiceBusy marks a launch rejected because another live run of
// the same tenant is already manipulating the same service's routing.
// Two concurrent strategies on one service would silently overwrite
// each other's routing table entries; callers either surface the
// conflict or queue the strategy through a Scheduler. The conflict is
// tenant-scoped: tenants own disjoint routing namespaces, so tenant
// A's canary never queues behind tenant B's run on a same-named
// service.
var ErrServiceBusy = errors.New("service is busy with another running strategy")

// ErrAlreadyRunning and ErrAlreadyQueued mark a submission rejected
// because the tenant already has a live run, or a queued strategy, of
// that name. Launch and Scheduler.Submit wrap them, so a caller tells
// a name collision from any other rejection with errors.Is, never from
// the message — which embeds the strategy's own name.
var (
	ErrAlreadyRunning = errors.New("is already running")
	ErrAlreadyQueued  = errors.New("is already queued")
)

// Launch validates the strategy, journals the launch, installs the
// all-baseline route, and starts executing. Strategy names must be
// unique among a tenant's live runs (ErrAlreadyRunning otherwise), and
// at most one of a tenant's live runs may target a given service
// (ErrServiceBusy otherwise).
func (e *Engine) Launch(s *Strategy) (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.hasTopologyChecks() && e.cfg.Topology == nil {
		return nil, fmt.Errorf("bifrost: %s: strategy gates on topology checks but the engine has no topology assessor (enable live tracing)", s.Name)
	}
	e.mu.Lock()
	if existing, ok := e.runs[s.RunKey()]; ok && existing.Status() == StatusRunning {
		e.mu.Unlock()
		return nil, fmt.Errorf("bifrost: strategy %q %w", s.Name, ErrAlreadyRunning)
	}
	for _, other := range e.runs {
		if other.strategy.Tenant == s.Tenant && other.strategy.Service == s.Service &&
			other.Status() == StatusRunning {
			e.mu.Unlock()
			return nil, fmt.Errorf("bifrost: launching %q: %w: %q owns service %q",
				s.Name, ErrServiceBusy, other.strategy.Name, s.Service)
		}
	}
	run := &Run{
		strategy: s,
		engine:   e,
		seq:      e.nextSeq,
		status:   StatusRunning,
		log:      new(runLog),
		done:     make(chan struct{}),
		cancel:   make(chan struct{}),
	}
	e.nextSeq++
	e.runs[s.RunKey()] = run
	e.mu.Unlock()

	now := e.cfg.Clock.Now()
	// Open the run's topology assessment before any traffic shifts, so
	// the baseline graph already grows while the first phase routes.
	if e.cfg.Topology != nil {
		e.cfg.Topology.Register(s.RunKey(), s.RouteService(), s.Baseline, s.Candidate, now)
	}

	// Write-ahead: the launch record (carrying the strategy source) and
	// the baseline routing intent hit the journal before the routing
	// table changes.
	run.recordWire(Event{At: now, Type: EventRunLaunched,
		Detail: fmt.Sprintf("service=%s baseline=%s candidate=%s phases=%d",
			s.Service, s.Baseline, s.Candidate, len(s.Phases))},
		WriteDSL(s), 0)
	run.record(Event{At: now, Type: EventTrafficApplied, Detail: "baseline=100%"})
	if err := e.routeAll(s, s.Baseline); err != nil {
		run.recordWire(Event{At: e.cfg.Clock.Now(), Type: EventRunFinished,
			Detail: "aborted; launch routing error: " + err.Error()}, "", StatusAborted)
		e.mu.Lock()
		delete(e.runs, s.RunKey())
		e.mu.Unlock()
		return nil, err
	}
	go run.loopFrom(cursor{})
	return run, nil
}

// Get returns the run for a (tenant-qualified) strategy name: the bare
// name for the default tenant, "tenant/name" otherwise.
func (e *Engine) Get(name string) (*Run, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.runs[name]
	return r, ok
}

// Runs returns all runs (live and finished) in launch order, so lists
// read chronologically rather than alphabetically.
func (e *Engine) Runs() []*Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Run, 0, len(e.runs))
	for _, r := range e.runs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// JournalErrors reports how many events failed to reach the journal.
// Non-zero means the durable trail is incomplete even though runs kept
// executing — a health-surface red flag.
func (e *Engine) JournalErrors() int64 { return e.journalErrs.Load() }

// EngineMetrics is an instrumentation snapshot.
type EngineMetrics struct {
	// Evaluations is the number of check evaluations performed.
	Evaluations int64
	// BusyTime is the cumulative time spent evaluating checks, a tick's
	// batch timed as one span; divided by wall time it approximates the
	// engine's CPU utilization (Figs 4.7 and 4.9).
	BusyTime time.Duration
	// Delays are the observed lags between check due times and actual
	// evaluations (Figs 4.8 and 4.10): the newest 100k, oldest first.
	Delays []time.Duration
}

// Metrics returns a copy of the instrumentation counters.
func (e *Engine) Metrics() EngineMetrics {
	e.delayMu.Lock()
	delays := make([]time.Duration, 0, len(e.delays))
	delays = append(delays, e.delays[e.delayNext:]...)
	delays = append(delays, e.delays[:e.delayNext]...)
	e.delayMu.Unlock()
	return EngineMetrics{
		Evaluations: e.evalCount.Load(),
		BusyTime:    time.Duration(e.evalBusy.Load()),
		Delays:      delays,
	}
}

// EvalStats returns the evaluation count and cumulative evaluation
// time without copying the delay samples — the cheap read for health
// surfaces that poll frequently.
func (e *Engine) EvalStats() (evaluations int64, busy time.Duration) {
	return e.evalCount.Load(), time.Duration(e.evalBusy.Load())
}

const maxDelaySamples = 100_000

// recordDelays samples how far past due each of a tick's checks is
// evaluated at now, in state order.
func (e *Engine) recordDelays(now time.Time, due []*checkState) {
	e.delayMu.Lock()
	for _, st := range due {
		if d := now.Sub(st.due); len(e.delays) < maxDelaySamples {
			e.delays = append(e.delays, d)
		} else {
			e.delays[e.delayNext] = d
			e.delayNext = (e.delayNext + 1) % maxDelaySamples
		}
	}
	e.delayMu.Unlock()
}

// TrailStats is what the runs' audit trails hold in memory.
type TrailStats struct {
	// Events is the number of events held, over all runs.
	Events int64 `json:"events"`
	// Bytes is the chunk memory allocated to hold them, slack included.
	Bytes int64 `json:"bytes"`
}

// TrailStats sums the audit trails of every run, live and finished.
func (e *Engine) TrailStats() TrailStats {
	var st TrailStats
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.runs {
		r.mu.Lock()
		st.Events += int64(r.log.events.n)
		st.Bytes += int64(r.log.events.bytes)
		r.mu.Unlock()
	}
	return st
}

// --- Run accessors ---

// Status returns the run's lifecycle state.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// CurrentPhase returns the active phase name ("" when finished).
func (r *Run) CurrentPhase() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status != StatusRunning || r.phaseIdx < 0 || r.phaseIdx >= len(r.strategy.Phases) {
		return ""
	}
	return r.strategy.Phases[r.phaseIdx].Name
}

// Events returns a copy of the audit trail.
func (r *Run) Events() []Event { return r.EventsFrom(0) }

// EventsFrom returns a copy of the audit trail from its i-th event on:
// Events()[i:] at the cost of decoding the one chunk holding event i and
// those after it, which is what a reader tailing a long trail pays per
// poll. The lock is held to copy the trail's headers, not to decode.
func (r *Run) EventsFrom(i int) []Event {
	r.mu.Lock()
	view := r.log.events
	r.mu.Unlock()
	return view.from(i)
}

// EventCount is len(Events()) without the copy.
func (r *Run) EventCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.events.n
}

// Done is closed when the run finishes.
func (r *Run) Done() <-chan struct{} { return r.done }

// Abort cancels the run; the current phase concludes as aborted without
// routing changes.
func (r *Run) Abort() {
	r.cancelOnce.Do(func() { close(r.cancel) })
}

// Strategy returns the run's strategy.
func (r *Run) Strategy() *Strategy { return r.strategy }

// Recovered reports whether this run was rebuilt from a journal replay
// rather than launched in this process.
func (r *Run) Recovered() bool { return r.recovered }

// Seq is the run's launch-order position; Engine.Runs sorts by it, so
// it doubles as a stable pagination cursor for list endpoints.
func (r *Run) Seq() uint64 { return r.seq }

// record journals the event (write-ahead), then appends it to the
// in-memory trail.
func (r *Run) record(ev Event) { r.recordWire(ev, "", 0) }

// recordWire is record plus the journal-only envelope fields: the
// strategy source on run-launched records and the terminal status on
// run-finished records. A journal failure counts against the engine's
// journal-error counter but does not stop the run: enactment degrades
// to in-memory-only rather than halting live traffic manipulation
// mid-phase.
func (r *Run) recordWire(ev Event, strategyDSL string, status RunStatus) {
	e := r.engine
	if e.cfg.Journal != nil {
		if err := r.log.head.journal(e.cfg.Journal, r.strategy, ev, strategyDSL, status); err != nil {
			e.journalErrs.Add(1)
		}
	}
	r.mu.Lock()
	r.log.events.append(ev)
	r.mu.Unlock()
}

// --- execution ---

// loopFrom drives the run from c to its end: from the first phase for a
// fresh launch, from where its first step ended for a recovered run.
func (r *Run) loopFrom(c cursor) {
	defer close(r.done)
	for r.step(&c) {
	}
}

// move records ev and applies it to c: the live cursor is the fold of
// the records the run writes, as a recovered one is of those it reads.
func (r *Run) move(c *cursor, ev Event) {
	r.record(ev)
	c.apply(r.strategy, ev)
}

// step drives the state machine: it takes the run from c through the
// rest of c's phase — enter, observe, conclude, decide, apply, each
// recorded before the next begins — leaves c at the phase to enter next,
// and reports whether there is one. Entered past stageLaunched (by
// recovery) it skips what the journal already holds: a recorded outcome
// is not observed again, a recorded transition is applied, never
// re-decided.
func (r *Run) step(c *cursor) bool {
	e, s := r.engine, r.strategy
	from, next, note := c.idx, c.idx, ""
	if c.recovering {
		note = recoveryNote
	}
	settle := func(status RunStatus) bool {
		detail := ""
		if c.recovering {
			detail = "crash recovery: " + c.why
		}
		r.finish(status, detail)
		return false
	}

	if c.stage == stageLaunched && !c.recovering {
		if c.idx < 0 || c.idx >= len(s.Phases) {
			// Walked past the last phase: promote.
			return settle(StatusSucceeded)
		}
		r.mu.Lock()
		r.phaseIdx = c.idx
		r.mu.Unlock()
		phase := &s.Phases[c.idx]
		now := e.cfg.Clock.Now()
		r.move(c, Event{At: now, Type: EventPhaseEntered, Phase: phase.Name})
		outcome, aborted := r.executePhase(phase, now)
		if aborted {
			return settle(StatusAborted)
		}
		r.move(c, Event{At: e.cfg.Clock.Now(), Type: EventPhaseOutcome, Phase: phase.Name, Outcome: outcome})
	}
	if c.stage != stageLaunched {
		phase := &s.Phases[c.idx]
		if c.stage == stageEntered {
			// The restart cut the observation short: inconclusive, and
			// the strategy's own chaining decides what that means.
			c.why = "phase interrupted by restart"
			r.move(c, Event{At: e.cfg.Clock.Now(), Type: EventPhaseOutcome, Phase: phase.Name,
				Outcome: OutcomeInconclusive, Detail: "interrupted by restart (crash recovery)"})
		} else if c.recovering {
			c.why = fmt.Sprintf("phase had concluded %s before restart", c.outcome)
		}
		if c.stage == stageConcluded {
			tr, exhausted := phase.decide(c.outcome, c.retries[phase.Name])
			c.why += exhausted
			r.move(c, Event{At: e.cfg.Clock.Now(), Type: EventTransition, Phase: phase.Name,
				Detail: note + describeTransition(tr)})
		}
		switch c.tr.Kind {
		case TransitionNext:
			next++
		case TransitionGoto:
			next = s.phaseIndex(c.tr.Target)
		case TransitionRetry:
			// Re-execute the same phase.
		case TransitionRollback:
			return settle(StatusRolledBack)
		case TransitionPromote:
			return settle(StatusSucceeded)
		default: // TransitionAbort
			return settle(StatusAborted)
		}
	}
	if c.recovering {
		r.move(c, Event{At: e.cfg.Clock.Now(), Type: EventTransition, Phase: phaseName(s, from),
			Detail: recoveryNote + resumingAt + phaseName(s, next)})
	} else {
		// The one move without a record of its own: the decision just
		// applied names the phase to enter.
		c.idx, c.stage = next, stageLaunched
	}
	c.recovering, c.why = false, ""
	return true
}

// finish settles the run: it journals the terminal routing intent,
// applies it (candidate for success, baseline for rollback, untouched
// for abort), and records the run-finished event carrying the terminal
// status.
func (r *Run) finish(status RunStatus, detail string) {
	e := r.engine
	var routeErr error
	switch status {
	case StatusSucceeded:
		r.record(Event{At: e.cfg.Clock.Now(), Type: EventTrafficApplied, Detail: "candidate=100%"})
		routeErr = e.routeAll(r.strategy, r.strategy.Candidate)
	case StatusRolledBack:
		r.record(Event{At: e.cfg.Clock.Now(), Type: EventTrafficApplied, Detail: "baseline=100%"})
		routeErr = e.routeAll(r.strategy, r.strategy.Baseline)
	}
	d := status.String()
	if detail != "" {
		d += "; " + detail
	}
	if routeErr != nil {
		d += "; routing error: " + routeErr.Error()
	}
	r.mu.Lock()
	r.status = status
	r.mu.Unlock()
	r.recordWire(Event{At: e.cfg.Clock.Now(), Type: EventRunFinished, Detail: d}, "", status)
	// Freeze the topology assessment so post-run traffic does not dilute
	// the record of what the experiment observed.
	if e.cfg.Topology != nil {
		e.cfg.Topology.Freeze(r.strategy.RunKey())
	}
}

// executePhase observes a phase entered at start to its conclusion: it
// walks the phase's traffic steps, routing each weight and observing it
// for the step's dwell, and concludes at the first step that does not
// pass. The bool result is true when the run was aborted mid-phase.
func (r *Run) executePhase(p *Phase, start time.Time) (Outcome, bool) {
	weights, dwell := p.steps()
	for _, w := range weights {
		if err := r.applyTraffic(p, w); err != nil {
			r.record(Event{At: start, Type: EventCheckResult, Phase: p.Name, Detail: "routing error: " + err.Error()})
			return OutcomeFail, false
		}
		if p.Practice == expmodel.PracticeGradualRollout {
			r.record(Event{At: start, Type: EventRolloutStep, Phase: p.Name,
				Detail: fmt.Sprintf("weight=%.0f%%", w*100)})
		}
		if outcome, aborted := r.observe(p, start, dwell); aborted || outcome != OutcomePass {
			return outcome, aborted
		}
		start = r.engine.cfg.Clock.Now()
	}
	return OutcomePass, false
}

// applyTraffic journals the routing a phase requires, with the candidate
// at weight, as a traffic-applied event, then installs it on the table —
// journal first, side effect second.
func (r *Run) applyTraffic(p *Phase, weight float64) error {
	s := r.strategy
	detail := fmt.Sprintf("candidate-weight=%.0f%%", weight*100)
	route := router.Route{
		Service: s.RouteService(),
		Backends: []router.Backend{
			{Version: s.Baseline, Weight: 1 - weight},
			{Version: s.Candidate, Weight: weight},
		},
		StickySalt: s.Name,
	}
	if p.Traffic.Mirror {
		detail = "mirror-to-candidate"
		route.Backends = []router.Backend{{Version: s.Baseline, Weight: 1}}
		route.Mirrors = []string{s.Candidate}
	}
	for _, g := range p.Traffic.Groups {
		route.Rules = append(route.Rules, router.Rule{
			Name:    "group-" + string(g),
			Match:   router.GroupMatcher{Group: g},
			Version: s.Candidate,
		})
	}
	r.record(Event{At: r.engine.cfg.Clock.Now(), Type: EventTrafficApplied, Phase: p.Name, Detail: detail})
	return r.engine.cfg.Table.Set(route)
}

// checkState tracks one check's consecutive failures within a phase.
type checkState struct {
	check    *Check
	due      time.Time
	failures int
}

// observe runs the check loop for `dur` starting at `start`. It
// implements the timed execution of multiple checks (Fig 4.3): each
// check fires on its own interval; a check reaching FailuresToTrip
// consecutive failures concludes the phase immediately.
func (r *Run) observe(p *Phase, start time.Time, dur time.Duration) (Outcome, bool) {
	e := r.engine
	phaseEnd := start.Add(dur)

	states := make([]*checkState, len(p.Checks))
	for i := range p.Checks {
		c := &p.Checks[i]
		states[i] = &checkState{check: c, due: start.Add(e.checkInterval(c))}
	}
	due := make([]*checkState, 0, len(states))
	checks := make([]*Check, 0, len(states))

	for {
		now := e.cfg.Clock.Now()
		next := phaseEnd
		for _, st := range states {
			if st.due.Before(next) {
				next = st.due
			}
		}
		if next.After(now) {
			select {
			case <-e.cfg.Clock.After(next.Sub(now)):
			case <-r.cancel:
				return OutcomeInconclusive, true
			}
		}
		now = e.cfg.Clock.Now()

		// Collect the tick's due checks in state order and evaluate
		// them as one batch at this instant (dispatch.go). The whole
		// batch is evaluated before anything is recorded, and the timer
		// is re-armed only after that.
		due = due[:0]
		checks = checks[:0]
		for _, st := range states {
			if st.due.After(now) {
				continue
			}
			due = append(due, st)
			checks = append(checks, st.check)
		}
		e.recordDelays(now, due)
		results := r.evalBatch(p, checks, now)

		for i, st := range due {
			res := results[i]
			outcome := res.Outcome
			// Topology verdicts are journaled as their own typed event so
			// the structural decision trail survives crashes verbatim;
			// metric checks keep their original check-result form.
			evType, detail := EventTopologyVerdict, res.Detail
			if st.check.Kind != CheckTopology {
				evType, detail = EventCheckResult, valueDetail(res.Value, res.Detail)
			}
			r.record(Event{At: now, Type: evType, Phase: p.Name,
				Check: st.check.Name, Outcome: outcome, Detail: detail})
			switch outcome {
			case OutcomeFail:
				st.failures++
				if st.failures >= e.failuresToTrip(st.check) {
					// Tripped: the batch's later results were
					// evaluated (they count in Evaluations) but are
					// never recorded.
					return OutcomeFail, false
				}
			case OutcomePass:
				st.failures = 0
			default:
				// No data: does not reset or advance the failure count.
			}
			st.due = st.due.Add(e.checkInterval(st.check))
		}

		if !now.Before(phaseEnd) {
			return r.concludePhase(p, start, now), false
		}
	}
}

// sampleMetric is the series counted against Phase.MinSamples: the
// per-call request count every instrumented service reports.
const sampleMetric = "requests"

// concludePhase decides the phase outcome at its natural end.
func (r *Run) concludePhase(p *Phase, start, now time.Time) Outcome {
	e := r.engine
	// Sample-size gate: without enough candidate data the phase is
	// inconclusive regardless of check outcomes.
	if p.MinSamples > 0 {
		scope := e.candidateScope(r.strategy, p)
		n, err := e.cfg.Store.Query(sampleMetric, scope, start, metrics.AggCount)
		if err != nil || int(n) < p.MinSamples {
			return OutcomeInconclusive
		}
	}
	checks := make([]*Check, len(p.Checks))
	for i := range p.Checks {
		checks[i] = &p.Checks[i]
	}
	// now is the instant of the interval tick that just ran, so every
	// check that was due then is answered from the run's memo.
	results := r.evalBatch(p, checks, now)
	outcome := OutcomePass
	for i, c := range checks {
		res := results[i]
		// Conclude-time topology verdicts are journaled like interval
		// ones: the structural evidence that decided the phase must
		// survive in the event trail.
		if c.Kind == CheckTopology {
			r.record(Event{At: now, Type: EventTopologyVerdict, Phase: p.Name,
				Check: c.Name, Outcome: res.Outcome, Detail: res.Detail})
		}
		switch res.Outcome {
		case OutcomeFail:
			// Later results are discarded unrecorded: the first
			// failing check decides the phase.
			return OutcomeFail
		case OutcomeInconclusive:
			outcome = OutcomeInconclusive
		}
	}
	return outcome
}

func (e *Engine) checkInterval(c *Check) time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return e.cfg.DefaultCheckInterval
}

func (e *Engine) failuresToTrip(c *Check) int {
	if c.FailuresToTrip > 0 {
		return c.FailuresToTrip
	}
	return 1
}

// candidateScope resolves where the candidate's metrics live: dark
// launches record under the "dark" variant tag.
func (e *Engine) candidateScope(s *Strategy, p *Phase) metrics.Scope {
	scope := metrics.Scope{Tenant: s.Tenant, Service: s.Service, Version: s.Candidate}
	if p.Traffic.Mirror {
		scope.Variant = "dark"
	}
	return scope
}

// evaluateCheck evaluates one check at `now` through the evaluator for
// its kind; evalBatch counts and times it.
func (r *Run) evaluateCheck(p *Phase, c *Check, now time.Time) CheckResult {
	ev := r.engine.evaluators[c.Kind]
	if ev == nil {
		return CheckResult{Outcome: OutcomeInconclusive,
			Detail: fmt.Sprintf("no evaluator for check kind %v", c.Kind)}
	}
	return ev.Evaluate(r, p, c, now)
}

// valueDetail is a metric check-result's detail: the observed value as
// fmt's %.4g prints it, then the evaluator's own note, if any.
func valueDetail(v float64, note string) string {
	var scratch [48]byte
	b := strconv.AppendFloat(append(scratch[:0], "value="...), v, 'g', 4, 64)
	if note != "" {
		b = append(append(b, "; "...), note...)
	}
	return string(b)
}

func compare(v float64, c *Check) Outcome {
	if c.Upper {
		if v <= c.Threshold {
			return OutcomePass
		}
		return OutcomeFail
	}
	if v >= c.Threshold {
		return OutcomePass
	}
	return OutcomeFail
}

// --- routing ---

// routeAll sends every user of the strategy's service to one version:
// the baseline at launch and on rollback, the candidate on promotion.
func (e *Engine) routeAll(s *Strategy, version string) error {
	return e.cfg.Table.Set(router.Route{
		Service:  s.RouteService(),
		Backends: []router.Backend{{Version: version, Weight: 1}},
	})
}
