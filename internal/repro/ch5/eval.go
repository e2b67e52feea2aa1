package ch5

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"contexp/internal/health"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/stats"
	"contexp/internal/topology"
	"contexp/internal/tracing"
)

// This file is the Chapter 5 evaluation harness.
//
// Section 5.7 (ranking quality): two release scenarios on the
// microservice case-study application, each with and without an
// injected performance degradation; the six heuristic variations are
// scored with nDCG@5 against a ground-truth relevance labeling
// (Figs 5.6 and 5.8). As in the paper, the relevance labels encode the
// evaluator's judgment of which changes a developer should inspect
// first; they are defined per scenario in this file.
//
// Section 5.8 (performance): heuristic execution times on synthetic
// interaction graphs of 500–10,000 endpoints with varying shapes and
// change frequencies (Figs 5.9 and 5.10).

// Relevance labels a change's ground-truth importance on the 0–3 scale
// customary for nDCG.
type Relevance func(health.Change) float64

// HeuristicScore is one heuristic's ranking quality on one scenario.
type HeuristicScore struct {
	Heuristic string
	NDCG5     float64
	// Top lists the first ranked changes (for inspection).
	Top []string
}

// ScenarioResult is a full ranking-quality evaluation of one scenario.
type ScenarioResult struct {
	Scenario string
	Degraded bool
	Diff     *health.Diff
	Scores   []HeuristicScore
}

// Render formats the scenario's nDCG table.
func (r *ScenarioResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (degradation=%v): %d changes\n", r.Scenario, r.Degraded, len(r.Diff.Changes))
	fmt.Fprintf(&b, "%-18s %6s  %s\n", "heuristic", "nDCG5", "top-ranked")
	for _, s := range r.Scores {
		top := ""
		if len(s.Top) > 0 {
			top = s.Top[0]
		}
		fmt.Fprintf(&b, "%-18s %6.3f  %s\n", s.Heuristic, s.NDCG5, top)
	}
	return b.String()
}

// Score evaluates every heuristic against the ground truth.
func scoreHeuristics(d *health.Diff, rel Relevance) []HeuristicScore {
	ideal := make([]float64, len(d.Changes))
	for i, c := range d.Changes {
		ideal[i] = rel(c)
	}
	out := make([]HeuristicScore, 0, 6)
	for _, h := range health.AllHeuristics() {
		ranked := health.Rank(h, d)
		gains := make([]float64, len(ranked))
		top := make([]string, 0, 3)
		for i, c := range ranked {
			gains[i] = rel(c)
			if i < 3 {
				top = append(top, c.String())
			}
		}
		out = append(out, HeuristicScore{
			Heuristic: h.Name(),
			NDCG5:     stats.NDCG(gains, ideal, 5),
			Top:       top,
		})
	}
	return out
}

// scenarioTraces runs the simulated application twice — all-baseline
// and with the experiment's routing — and returns both interaction
// graphs.
func scenarioTraces(app *microsim.Application, experimentRoutes func(*router.Table) error, traces int, seed int64) (*topology.Graph, *topology.Graph, error) {
	start := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	runOnce := func(route func(*router.Table) error, variant tracing.Variant) (*topology.Graph, error) {
		table := router.NewTable()
		if err := microsim.InstallBaselineRoutes(app, table); err != nil {
			return nil, err
		}
		if route != nil {
			if err := route(table); err != nil {
				return nil, err
			}
		}
		collector := tracing.NewLiveCollector(0)
		sim := microsim.NewSim(app, table, collector, metrics.NewStore(0), seed)
		for i := 0; i < traces; i++ {
			req := &router.Request{UserID: fmt.Sprintf("user-%04d", i)}
			if _, err := sim.Execute(req, start.Add(time.Duration(i)*time.Second)); err != nil {
				return nil, err
			}
		}
		return topology.Build(variant, collector.Harvest(0)), nil
	}
	base, err := runOnce(nil, tracing.VariantBaseline)
	if err != nil {
		return nil, nil, err
	}
	exp, err := runOnce(experimentRoutes, tracing.VariantExperiment)
	if err != nil {
		return nil, nil, err
	}
	return base, exp, nil
}

// EvalScenario1 reproduces Section 5.7.2: the sample application with
// the recommendation-v2 release (new dependency on the user-history
// endpoint plus a version update). With degraded=true the new version
// carries a strong latency regression.
func EvalScenario1(traces int, degraded bool, seed int64) (*ScenarioResult, error) {
	app, err := microsim.ShopApplication()
	if err != nil {
		return nil, err
	}
	if degraded {
		// Replace the v2 recommender's latency with a 6x regression.
		sv, err := app.Lookup("recommendation", "v2")
		if err != nil {
			return nil, err
		}
		ep := sv.Endpoints["GET /recommendations"]
		ep.Latency = stats.LogNormalFromMeanP95(60, 150)
	}
	routeExperiment := func(t *router.Table) error {
		return t.SetWeights("recommendation", []router.Backend{{Version: "v2", Weight: 1}})
	}
	base, exp, err := scenarioTraces(app, routeExperiment, traces, seed)
	if err != nil {
		return nil, err
	}
	d := health.Compare(base, exp)

	rel := func(c health.Change) float64 {
		switch {
		case c.Type == health.ChangeCallNewEndpoint && c.Subject.Service == "users":
			// The brand-new dependency: always worth inspecting; the
			// top concern when nothing is degraded.
			if degraded {
				return 2
			}
			return 3
		case c.Type == health.ChangeUpdatedCalleeVersion && c.Subject.Service == "recommendation":
			// The updated service: the root cause when degraded.
			if degraded {
				return 3
			}
			return 2
		case c.Subject.Service == "recommendation" || c.Edge.From.Service == "recommendation":
			return 1
		default:
			return 0
		}
	}
	return &ScenarioResult{
		Scenario: "scenario-1 (sample application)",
		Degraded: degraded,
		Diff:     d,
		Scores:   scoreHeuristics(d, rel),
	}, nil
}

// EvalScenario2 reproduces Section 5.7.3: multiple breaking changes at
// once — catalog v2 drops its inventory call and adds a dependency on a
// brand-new pricing service, while recommendation v2 rolls out in
// parallel. With degraded=true catalog v2 carries the regression.
func EvalScenario2(traces int, degraded bool, seed int64) (*ScenarioResult, error) {
	app, err := microsim.ShopApplication()
	if err != nil {
		return nil, err
	}
	// New pricing service (baseline never calls it).
	if err := app.AddService("pricing", "v1").
		Endpoint("GET /price", 7, 18).Err(); err != nil {
		return nil, err
	}
	// catalog v2: inventory call removed, pricing call added.
	meanMs := 12.0
	if degraded {
		meanMs = 80
	}
	if err := app.AddService("catalog", "v2").
		Endpoint("GET /products", meanMs, meanMs*2.5).
		Calls("pricing", "GET /price").
		Endpoint("GET /product", 9, 22).
		Calls("pricing", "GET /price").Err(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}

	routeExperiment := func(t *router.Table) error {
		if err := t.SetWeights("catalog", []router.Backend{{Version: "v2", Weight: 1}}); err != nil {
			return err
		}
		return t.SetWeights("recommendation", []router.Backend{{Version: "v2", Weight: 1}})
	}
	base, exp, err := scenarioTraces(app, routeExperiment, traces, seed)
	if err != nil {
		return nil, err
	}
	d := health.Compare(base, exp)

	rel := func(c health.Change) float64 {
		switch {
		case c.Type == health.ChangeUpdatedCalleeVersion && c.Subject.Service == "catalog":
			if degraded {
				return 3
			}
			return 2
		case c.Type == health.ChangeCallNewEndpoint && c.Subject.Service == "pricing":
			if degraded {
				return 2
			}
			return 3
		case c.Type == health.ChangeRemoveCall && c.Subject.Service == "inventory":
			return 1
		case c.Subject.Service == "recommendation" || c.Type == health.ChangeCallNewEndpoint:
			return 1
		case c.Edge.From.Service == "catalog" || c.Edge.From.Service == "recommendation":
			return 1
		default:
			return 0
		}
	}
	return &ScenarioResult{
		Scenario: "scenario-2 (breaking changes)",
		Degraded: degraded,
		Diff:     d,
		Scores:   scoreHeuristics(d, rel),
	}, nil
}

// Figure5_6 bundles both sub-scenarios of a scenario.
type Figure5_6 struct {
	Title   string
	Results []*ScenarioResult
}

// EvalFigure5_6 runs scenario 1 with and without degradation.
func EvalFigure5_6(traces int, seed int64) (*Figure5_6, error) {
	return evalScenarioPair("Figure 5.6 — scenario 1 nDCG5", EvalScenario1, traces, seed)
}

// EvalFigure5_8 runs scenario 2 with and without degradation.
func EvalFigure5_8(traces int, seed int64) (*Figure5_6, error) {
	return evalScenarioPair("Figure 5.8 — scenario 2 nDCG5", EvalScenario2, traces, seed)
}

func evalScenarioPair(title string, f func(int, bool, int64) (*ScenarioResult, error), traces int, seed int64) (*Figure5_6, error) {
	healthy, err := f(traces, false, seed)
	if err != nil {
		return nil, err
	}
	degraded, err := f(traces, true, seed)
	if err != nil {
		return nil, err
	}
	return &Figure5_6{Title: title, Results: []*ScenarioResult{healthy, degraded}}, nil
}

// Render formats both sub-scenarios plus the cross-scenario mean.
func (f *Figure5_6) Render() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	for _, r := range f.Results {
		b.WriteString(r.Render())
		b.WriteString("\n")
	}
	b.WriteString("mean nDCG5 across sub-scenarios:\n")
	means := f.MeanByHeuristic()
	for _, name := range slices.Sorted(maps.Keys(means)) {
		fmt.Fprintf(&b, "  %-18s %6.3f\n", name, means[name])
	}
	return b.String()
}

// MeanByHeuristic averages nDCG5 over the sub-scenarios.
func (f *Figure5_6) MeanByHeuristic() map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, r := range f.Results {
		for _, s := range r.Scores {
			sums[s.Heuristic] += s.NDCG5
			counts[s.Heuristic]++
		}
	}
	out := make(map[string]float64, len(sums))
	for name, sum := range sums {
		out[name] = sum / float64(counts[name])
	}
	return out
}

// --- performance evaluation (Section 5.8) ---

// PerfPoint is one performance measurement.
type PerfPoint struct {
	Endpoints      int
	ChangeFraction float64
	Changes        int
	// CompareTime is the diff-construction time.
	CompareTime time.Duration
	// HeuristicTimes maps heuristic name to ranking time.
	HeuristicTimes map[string]time.Duration
}

// Figure5_9 is the scalability sweep over graph sizes.
type Figure5_9 struct {
	Points []PerfPoint
}

// EvalFigure5_9 measures heuristic runtimes for growing graphs.
func EvalFigure5_9(sizes []int, seed int64) (*Figure5_9, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 2000, 4000, 10000}
	}
	fig := &Figure5_9{}
	for _, size := range sizes {
		p, err := perfPoint(health.GraphGenConfig{Endpoints: size, ChangeFraction: 0.1, Seed: seed})
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, *p)
	}
	return fig, nil
}

// Figure5_10 varies the change frequency on a fixed graph size.
type Figure5_10 struct {
	Endpoints int
	Points    []PerfPoint
}

// EvalFigure5_10 measures runtime stability across change frequencies.
func EvalFigure5_10(endpoints int, fractions []float64, seed int64) (*Figure5_10, error) {
	if endpoints <= 0 {
		endpoints = 4000
	}
	if len(fractions) == 0 {
		fractions = []float64{0.01, 0.05, 0.1, 0.2}
	}
	fig := &Figure5_10{Endpoints: endpoints}
	for _, f := range fractions {
		p, err := perfPoint(health.GraphGenConfig{Endpoints: endpoints, ChangeFraction: f, Seed: seed})
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, *p)
	}
	return fig, nil
}

func perfPoint(cfg health.GraphGenConfig) (*PerfPoint, error) {
	base, exp, err := health.GenerateGraphPair(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d := health.Compare(base, exp)
	compareTime := time.Since(start)

	times := make(map[string]time.Duration, 6)
	for _, h := range health.AllHeuristics() {
		hs := time.Now()
		health.Rank(h, d)
		times[h.Name()] = time.Since(hs)
	}
	return &PerfPoint{
		Endpoints:      cfg.Endpoints,
		ChangeFraction: cfg.ChangeFraction,
		Changes:        len(d.Changes),
		CompareTime:    compareTime,
		HeuristicTimes: times,
	}, nil
}

// Render formats the scalability table.
func (f *Figure5_9) Render() string {
	return renderPerf("Figure 5.9 — heuristic execution time vs. graph size", f.Points, false)
}

// Render formats the change-frequency table.
func (f *Figure5_10) Render() string {
	title := fmt.Sprintf("Figure 5.10 — execution time vs. change frequency (%d endpoints)", f.Endpoints)
	return renderPerf(title, f.Points, true)
}

func renderPerf(title string, points []PerfPoint, byFraction bool) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	names := make([]string, 0, 6)
	for _, h := range health.AllHeuristics() {
		names = append(names, h.Name())
	}
	if byFraction {
		fmt.Fprintf(&b, "%9s %8s %10s", "chg-frac", "changes", "compare")
	} else {
		fmt.Fprintf(&b, "%9s %8s %10s", "endpoints", "changes", "compare")
	}
	for _, n := range names {
		fmt.Fprintf(&b, " %16s", n)
	}
	b.WriteString("\n")
	for _, p := range points {
		if byFraction {
			fmt.Fprintf(&b, "%9.2f %8d %10s", p.ChangeFraction, p.Changes, p.CompareTime.Round(time.Microsecond))
		} else {
			fmt.Fprintf(&b, "%9d %8d %10s", p.Endpoints, p.Changes, p.CompareTime.Round(time.Microsecond))
		}
		for _, n := range names {
			fmt.Fprintf(&b, " %16s", p.HeuristicTimes[n].Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}
