package health

import (
	"fmt"
	"sync"
	"time"

	"contexp/internal/topology"
	"contexp/internal/tracing"
)

// Monitor is the live analysis plane: it pulls settled traces out of a
// bounded tracing.LiveCollector and folds each one into the baseline
// and candidate interaction graphs of every registered run, keeping the
// Chapter-5 topological comparison continuously up to date while the
// experiment executes. The engine's topology checks and the control
// plane's health surfaces both read from it.
//
// Ingestion is pull-based: every Verdict/View call first harvests the
// collector, so the Monitor needs no goroutine of its own and the
// graphs are exactly as fresh as the newest settled trace. A trace is
// attributed by the version of the run's service it touched — candidate
// version anywhere in the trace puts the whole trace (the experimental
// user's interaction tree) into the candidate graph, baseline version
// into the baseline graph, and traces that never touched the service
// carry no signal for that run and are skipped.
type Monitor struct {
	src *tracing.LiveCollector
	// settle is how long a trace must be span-quiet before it is
	// harvested as complete.
	settle time.Duration

	mu     sync.Mutex
	runs   map[string]*runAssessment
	broken int64 // harvested traces failing validation
	folded int64 // valid traces folded into at least the harvest pass
}

// runAssessment is the per-run incremental graph pair.
type runAssessment struct {
	run, service, baseline, candidate string
	// since is the registration instant: traces that ended before it
	// belong to earlier traffic (a previous run, pre-launch load) and
	// must not seed this run's graphs.
	since                           time.Time
	frozen                          bool
	base, cand                      *topology.Graph
	baseTraces, candTraces, skipped int
	// inc maintains the topological diff incrementally as traces fold
	// in, so a verdict between harvests costs O(changed endpoints)
	// instead of an O(graph) Compare.
	inc *IncrementalDiff
	// Computed verdicts/views are cached per heuristic and invalidated
	// by generation: gen counts every trace this assessment has seen
	// (folded or skipped), so repeated health polls between harvests are
	// free.
	verdicts  map[string]*LiveVerdict
	view      *AssessmentView
	cachedGen int
}

// gen is the assessment's change generation: it advances whenever a
// harvested trace touched this assessment in any way, including skips
// (which still move the SkippedTraces counters surfaced in verdicts).
func (a *runAssessment) gen() int {
	return a.baseTraces + a.candTraces + a.skipped
}

// cacheAt invalidates stale cached verdicts and reports whether the
// caches are valid for the current generation.
func (a *runAssessment) cacheAt() {
	if g := a.gen(); g != a.cachedGen {
		a.verdicts = nil
		a.view = nil
		a.cachedGen = g
	}
}

// DefaultSettle is the span-quiet window after which a trace is taken
// as complete.
const DefaultSettle = 2 * time.Second

// NewMonitor creates a Monitor reading from collector. A settle of 0
// defaults to DefaultSettle; tests can pass a negative settle to
// harvest immediately.
func NewMonitor(collector *tracing.LiveCollector, settle time.Duration) *Monitor {
	if settle == 0 {
		settle = DefaultSettle
	}
	if settle < 0 {
		settle = 0
	}
	return &Monitor{src: collector, settle: settle, runs: make(map[string]*runAssessment)}
}

// Register starts (or restarts, on run-name reuse) topology assessment
// for a run: traces touching service at the baseline or candidate
// version are folded into fresh per-variant graphs from now on. Traces
// that ended before at are a predecessor's traffic and are skipped; at
// is read from the clock the spans are stamped by (the engine passes
// its own, so a virtual-time run registers at a virtual instant).
func (m *Monitor) Register(run, service, baseline, candidate string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Drain traces already settled before this run existed, so the
	// first verdict cannot be computed from a predecessor's traffic
	// still sitting in the collector.
	m.ingestLocked()
	a := &runAssessment{
		run: run, service: service, baseline: baseline, candidate: candidate,
		since: at,
		base:  topology.NewGraph(tracing.VariantBaseline),
		cand:  topology.NewGraph(tracing.VariantExperiment),
	}
	a.inc = NewIncrementalDiff(a.base, a.cand)
	m.runs[run] = a
}

// Freeze stops folding new traces into a run's graphs while keeping the
// accumulated assessment readable — called when the run finishes, so
// post-run traffic does not dilute the record of what the experiment
// observed. Everything already settled is folded first, so only traces
// still inside the settle window at finish time are excluded.
func (m *Monitor) Freeze(run string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingestLocked()
	if a := m.runs[run]; a != nil {
		a.frozen = true
		// The cached view renders Frozen; drop it so the next poll
		// reflects the state change even though no trace folded.
		a.view = nil
	}
}

// Runs returns how many runs are registered (frozen ones included).
func (m *Monitor) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.runs)
}

// FoldedTraces reports how many valid traces ingestion has processed.
func (m *Monitor) FoldedTraces() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.folded
}

// BrokenTraces reports harvested traces that failed validation (lost
// spans, unknown parents) and were discarded.
func (m *Monitor) BrokenTraces() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.broken
}

// ingestLocked harvests settled traces and folds them into every live
// assessment. Callers hold m.mu.
func (m *Monitor) ingestLocked() {
	for _, tr := range m.src.Harvest(m.settle) {
		if err := tr.Validate(); err != nil {
			m.broken++
			continue
		}
		m.folded++
		for _, a := range m.runs {
			if a.frozen {
				continue
			}
			a.fold(&tr)
		}
	}
}

// fold attributes one valid trace to the assessment's baseline or
// candidate graph.
func (a *runAssessment) fold(tr *tracing.Trace) {
	// Traces that ended before the run was registered are a
	// predecessor's traffic, not this experiment's evidence.
	var latest time.Time
	for _, s := range tr.Spans {
		if end := s.Start.Add(s.Duration); end.After(latest) {
			latest = end
		}
	}
	if latest.Before(a.since) {
		a.skipped++
		return
	}
	sawBaseline := false
	sawCandidate := false
	for _, s := range tr.Spans {
		if s.Service != a.service {
			continue
		}
		switch s.Version {
		case a.candidate:
			sawCandidate = true
		case a.baseline:
			sawBaseline = true
		}
	}
	switch {
	case sawCandidate:
		// A trace that touched the candidate anywhere is an experimental
		// user's interaction — even its baseline-versioned hops belong to
		// the experimental topology.
		if a.cand.AddTrace(tr) == nil {
			a.candTraces++
		}
	case sawBaseline:
		if a.base.AddTrace(tr) == nil {
			a.baseTraces++
		}
	default:
		a.skipped++
	}
}

// LiveVerdict is the topology assessment the engine's `check topology`
// evaluates: the classified changes between the run's baseline and
// candidate graphs, ranked by one heuristic.
type LiveVerdict struct {
	Run string `json:"run"`
	// Heuristic is the ranking heuristic's canonical name.
	Heuristic string `json:"heuristic"`
	// BaselineTraces / CandidateTraces count the traces folded into each
	// graph — the check's evidence base.
	BaselineTraces  int `json:"baselineTraces"`
	CandidateTraces int `json:"candidateTraces"`
	// SkippedTraces count traces that carried no signal for this run:
	// they never touched its service, or predate its registration.
	SkippedTraces int `json:"skippedTraces"`
	// Changes are all classified changes, ranked by descending impact.
	Changes []RankedChange `json:"changes,omitempty"`
}

// RankedChange is one classified topological change with its rank
// evidence, in wire-friendly form.
type RankedChange struct {
	// Class is the change class name (e.g. "call-new-endpoint").
	Class string `json:"class"`
	// Edge renders the changed interaction ("from -> to").
	Edge string `json:"edge"`
	// Subject is the node the change is attributed to.
	Subject string `json:"subject"`
	// Score is the heuristic's impact score.
	Score float64 `json:"score"`
}

// Verdict computes the current topology verdict for a run under the
// named heuristic ("" selects the default). It harvests the collector
// first, so the verdict reflects every settled trace.
func (m *Monitor) Verdict(run, heuristic string) (*LiveVerdict, error) {
	h, err := HeuristicByName(heuristic)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingestLocked()
	a := m.runs[run]
	if a == nil {
		return nil, fmt.Errorf("health: run %q is not registered for topology assessment", run)
	}
	a.cacheAt()
	if v := a.verdicts[h.Name()]; v != nil {
		return v, nil
	}
	v := &LiveVerdict{
		Run:             run,
		Heuristic:       h.Name(),
		BaselineTraces:  a.baseTraces,
		CandidateTraces: a.candTraces,
		SkippedTraces:   a.skipped,
	}
	diff := a.inc.Diff()
	for _, sc := range RankScored(h, diff) {
		v.Changes = append(v.Changes, RankedChange{
			Class:   sc.Type.String(),
			Edge:    sc.Edge.String(),
			Subject: sc.Subject.String(),
			Score:   sc.Score,
		})
	}
	if a.verdicts == nil {
		a.verdicts = make(map[string]*LiveVerdict)
	}
	a.verdicts[h.Name()] = v
	return v, nil
}

// GraphSummary is the wire view of one interaction graph's size.
type GraphSummary struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	Roots int `json:"roots"`
}

// AssessmentView is the full health surface of one run: graphs, the
// classified diff, every heuristic's ranking, and the rendered report —
// what GET /v1/runs/{name}/health serves.
type AssessmentView struct {
	Run       string `json:"run"`
	Service   string `json:"service"`
	Baseline  string `json:"baseline"`
	Candidate string `json:"candidate"`
	// Frozen marks assessments of finished runs: the graphs no longer
	// grow.
	Frozen          bool         `json:"frozen,omitempty"`
	BaselineTraces  int          `json:"baselineTraces"`
	CandidateTraces int          `json:"candidateTraces"`
	SkippedTraces   int          `json:"skippedTraces"`
	BaselineGraph   GraphSummary `json:"baselineGraph"`
	CandidateGraph  GraphSummary `json:"candidateGraph"`
	// Changes is the default heuristic's full ranking.
	Changes []RankedChange `json:"changes,omitempty"`
	// ChangesByClass counts changes per class.
	ChangesByClass map[string]int `json:"changesByClass,omitempty"`
	// Rankings maps every heuristic to its top-ranked change IDs.
	Rankings map[string][]string `json:"rankings,omitempty"`
	// Agreement is the fraction of heuristics agreeing on the top
	// concern; TopChange is that change's ID.
	Agreement float64 `json:"agreement"`
	TopChange string  `json:"topChange,omitempty"`
	// Report is the rendered human-readable assessment.
	Report string `json:"report"`
}

// maxRankedPerHeuristic bounds the per-heuristic ranking lists in the
// view; the full ranking is in Changes.
const maxRankedPerHeuristic = 5

// View assembles the full assessment view of a run, harvesting first.
func (m *Monitor) View(run string) (*AssessmentView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingestLocked()
	a := m.runs[run]
	if a == nil {
		return nil, fmt.Errorf("health: run %q is not registered for topology assessment", run)
	}
	a.cacheAt()
	if a.view != nil {
		return a.view, nil
	}
	view := &AssessmentView{
		Run: run, Service: a.service, Baseline: a.baseline, Candidate: a.candidate,
		Frozen:          a.frozen,
		BaselineTraces:  a.baseTraces,
		CandidateTraces: a.candTraces,
		SkippedTraces:   a.skipped,
		BaselineGraph:   GraphSummary{Nodes: a.base.NumNodes(), Edges: a.base.NumEdges(), Roots: len(a.base.Roots)},
		CandidateGraph:  GraphSummary{Nodes: a.cand.NumNodes(), Edges: a.cand.NumEdges(), Roots: len(a.cand.Roots)},
	}
	diff := a.inc.Diff()
	def, _ := HeuristicByName("")
	for _, sc := range RankScored(def, diff) {
		view.Changes = append(view.Changes, RankedChange{
			Class:   sc.Type.String(),
			Edge:    sc.Edge.String(),
			Subject: sc.Subject.String(),
			Score:   sc.Score,
		})
	}
	if len(diff.Changes) > 0 {
		view.ChangesByClass = make(map[string]int)
		for t, n := range diff.CountByType() {
			view.ChangesByClass[t.String()] = n
		}
	}
	report := Assess(diff)
	view.Agreement = report.Agreement
	if len(diff.Changes) > 0 {
		view.TopChange = report.TopChange.ID()
		view.Rankings = make(map[string][]string, len(report.Rankings))
		for name, ranked := range report.Rankings {
			limit := len(ranked)
			if limit > maxRankedPerHeuristic {
				limit = maxRankedPerHeuristic
			}
			ids := make([]string, limit)
			for i := 0; i < limit; i++ {
				ids[i] = ranked[i].ID()
			}
			view.Rankings[name] = ids
		}
	}
	view.Report = report.Render()
	a.view = view
	return view, nil
}
