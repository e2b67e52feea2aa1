package ch4

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/expmodel"
	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/stats"
)

// This file is the Chapter 4 evaluation harness.
//
// Section 4.5.1 (end-user overhead, Fig 4.6 / Table 4.1) measures real
// HTTP request latencies against backend services with and without the
// Bifrost routing layer while a four-phase strategy (canary → dark
// launch → A/B test → gradual rollout) executes — the same experiment
// design as the paper, with localhost standing in for the cloud testbed.
//
// Section 4.5.2 (engine performance, Figs 4.7–4.10) measures the
// engine's check-evaluation delay and busy time while scaling (a) the
// number of parallel strategies and (b) the number of checks per
// strategy. "CPU utilization" is reproduced as the engine's busy
// fraction: cumulative check-evaluation time over wall time.

// OverheadConfig parameterizes EvalFigure4_6.
type OverheadConfig struct {
	// Requests per measurement arm.
	Requests int
	// ServiceTimeMs is the mean simulated backend processing time.
	ServiceTimeMs float64
	// PhaseDuration is the length of each of the four strategy phases.
	PhaseDuration time.Duration
	// Seed for backend latency sampling.
	Seed int64
}

// Figure4_6 is the end-user overhead result.
type Figure4_6 struct {
	// Baseline are request latencies (ms) hitting the service directly.
	Baseline []float64
	// Bifrost are request latencies (ms) through the routing layer
	// while the four-phase strategy executes.
	Bifrost []float64
	// RunStatus is the strategy's final state (should be succeeded).
	RunStatus bifrost.RunStatus
	// PhaseOutcomes lists the phase conclusions in order.
	PhaseOutcomes []string
}

// OverheadMs returns the mean added latency.
func (f *Figure4_6) OverheadMs() float64 {
	return stats.Mean(f.Bifrost) - stats.Mean(f.Baseline)
}

// Render formats Table 4.1 plus the moving-average series of Fig 4.6.
func (f *Figure4_6) Render() string {
	var b strings.Builder
	b.WriteString("Table 4.1 — response times in milliseconds\n")
	fmt.Fprintf(&b, "%-10s %6s %6s %6s %6s %6s %6s\n", "arm", "mean", "sd", "min", "med", "p95", "max")
	for _, arm := range []struct {
		name string
		xs   []float64
	}{{"baseline", f.Baseline}, {"bifrost", f.Bifrost}} {
		s := stats.Summarize(arm.xs)
		fmt.Fprintf(&b, "%-10s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			arm.name, s.Mean, s.StdDev, s.Min, s.Median, s.P95, s.Max)
	}
	fmt.Fprintf(&b, "mean overhead: %.2f ms\n", f.OverheadMs())
	fmt.Fprintf(&b, "strategy: %s, phases: %s\n", f.RunStatus, strings.Join(f.PhaseOutcomes, ", "))
	b.WriteString("\nFigure 4.6 — 3-second moving average of response times (ms)\n")
	window := 50
	bl := stats.MovingAverage(f.Baseline, window)
	bf := stats.MovingAverage(f.Bifrost, window)
	fmt.Fprintf(&b, "baseline: %s\n", sparkline(bl, 100))
	fmt.Fprintf(&b, "bifrost:  %s\n", sparkline(bf, 100))
	return b.String()
}

// EvalFigure4_6 runs the overhead measurement.
func EvalFigure4_6(cfg OverheadConfig) (*Figure4_6, error) {
	store := metrics.NewStore(0)
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	dist := stats.LogNormalFromMeanP95(cfg.ServiceTimeMs, cfg.ServiceTimeMs*2.5)
	sample := func() float64 {
		rngMu.Lock()
		defer rngMu.Unlock()
		return dist.Sample(rng)
	}

	// Backend handler: sleeps a sampled service time and self-reports
	// telemetry, like an instrumented microservice would.
	mkBackend := func(version string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ms := sample()
			time.Sleep(time.Duration(ms * float64(time.Millisecond)))
			variant := ""
			if r.Header.Get("X-Dark-Launch") == "true" {
				variant = "dark"
			}
			scope := metrics.Scope{Service: "catalog", Version: version, Variant: variant}
			now := time.Now()
			store.Record("response_time", scope, now, ms)
			store.Record("requests", scope, now, 1)
			w.Header().Set("X-Version", version)
			fmt.Fprint(w, "ok")
		}))
	}
	v1 := mkBackend("v1")
	defer v1.Close()
	v2 := mkBackend("v2")
	defer v2.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	measure := func(url string, n int) ([]float64, error) {
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("X-User-ID", fmt.Sprintf("user-%d", i%500))
			start := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				return nil, err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out = append(out, float64(time.Since(start))/float64(time.Millisecond))
		}
		return out, nil
	}

	// Arm 1: direct access to the stable version.
	baseline, err := measure(v1.URL, cfg.Requests)
	if err != nil {
		return nil, fmt.Errorf("bifrost: baseline arm: %w", err)
	}

	// Arm 2: through the Bifrost routing layer with the strategy live.
	table := router.NewTable()
	proxy := router.NewProxy("catalog", table)
	defer proxy.Close()
	if err := proxy.RegisterUpstream("v1", v1.URL); err != nil {
		return nil, err
	}
	if err := proxy.RegisterUpstream("v2", v2.URL); err != nil {
		return nil, err
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store, DefaultCheckInterval: 200 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	strategy := fourPhaseStrategy(cfg.PhaseDuration)
	run, err := engine.Launch(strategy)
	if err != nil {
		return nil, err
	}

	proxied, err := measure(front.URL, cfg.Requests)
	if err != nil {
		return nil, fmt.Errorf("bifrost: middleware arm: %w", err)
	}
	// Keep traffic flowing until the strategy finishes so its checks
	// always see fresh data.
	for {
		select {
		case <-run.Done():
			goto done
		default:
			if _, err := measure(front.URL, 25); err != nil {
				return nil, err
			}
		}
	}
done:
	fig := &Figure4_6{Baseline: baseline, Bifrost: proxied, RunStatus: run.Status()}
	for _, ev := range run.Events() {
		if ev.Type == bifrost.EventPhaseOutcome {
			fig.PhaseOutcomes = append(fig.PhaseOutcomes, ev.Phase+"="+ev.Outcome.String())
		}
	}
	return fig, nil
}

// fourPhaseStrategy is the evaluation strategy of Section 4.5.1: canary,
// dark launch, A/B test, gradual rollout. Thresholds are generous — the
// measurement is about overhead, not about tripping checks.
func fourPhaseStrategy(phaseDur time.Duration) *bifrost.Strategy {
	interval := phaseDur / 8
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	latencyCheck := func(scope bifrost.CheckScope, threshold float64) bifrost.Check {
		return bifrost.Check{
			Name: "latency", Metric: "response_time",
			Aggregation: metrics.AggMean, Scope: scope,
			Upper: true, Threshold: threshold,
			Interval: interval, Window: phaseDur,
		}
	}
	return &bifrost.Strategy{
		Name: "four-phase", Service: "catalog", Baseline: "v1", Candidate: "v2",
		Phases: []bifrost.Phase{
			{
				Name: "canary", Practice: expmodel.PracticeCanary,
				Traffic: bifrost.TrafficSpec{CandidateWeight: 0.05}, Duration: phaseDur,
				Checks: []bifrost.Check{latencyCheck(bifrost.ScopeCandidate, 1000)},
			},
			{
				Name: "dark", Practice: expmodel.PracticeDarkLaunch,
				Traffic: bifrost.TrafficSpec{Mirror: true}, Duration: phaseDur,
				Checks: []bifrost.Check{latencyCheck(bifrost.ScopeCandidate, 1000)},
			},
			{
				Name: "ab", Practice: expmodel.PracticeABTest,
				Traffic: bifrost.TrafficSpec{CandidateWeight: 0.5}, Duration: phaseDur,
				Checks: []bifrost.Check{latencyCheck(bifrost.ScopeRelative, 10)},
			},
			{
				Name: "rollout", Practice: expmodel.PracticeGradualRollout,
				Traffic: bifrost.TrafficSpec{
					Steps:        []float64{0.5, 1.0},
					StepDuration: phaseDur / 2,
				},
				Checks:    []bifrost.Check{latencyCheck(bifrost.ScopeCandidate, 1000)},
				OnSuccess: bifrost.Transition{Kind: bifrost.TransitionPromote},
			},
		},
	}
}

// ScalingConfig parameterizes the engine-performance measurements.
type ScalingConfig struct {
	// Points are the x-axis values (strategy counts for Fig 4.7/4.8,
	// check counts for Fig 4.9/4.10).
	Points []int
	// RunDuration is each measurement's length.
	RunDuration time.Duration
	// CheckInterval is how often each check fires.
	CheckInterval time.Duration
	// ChecksPerStrategy for the parallel-strategy sweep (default 5).
	ChecksPerStrategy int
}

// DefaultParallelConfig reproduces Figs 4.7/4.8 in a few seconds.
func DefaultParallelConfig() ScalingConfig {
	return ScalingConfig{
		Points:            []int{1, 16, 32, 64, 128},
		RunDuration:       2 * time.Second,
		CheckInterval:     100 * time.Millisecond,
		ChecksPerStrategy: 5,
	}
}

// DefaultChecksConfig reproduces Figs 4.9/4.10.
func DefaultChecksConfig() ScalingConfig {
	return ScalingConfig{
		Points:        []int{10, 50, 100, 500, 1000},
		RunDuration:   2 * time.Second,
		CheckInterval: 100 * time.Millisecond,
	}
}

// ScalingPoint is one x-axis measurement.
type ScalingPoint struct {
	X           int
	Evaluations int64
	// BusyFraction = check-evaluation time / wall time (Fig 4.7/4.9).
	BusyFraction float64
	// Delay is the box plot of check-evaluation delays (Fig 4.8/4.10).
	Delay stats.BoxPlot
	// MeanDelayMs is the mean delay in milliseconds.
	MeanDelayMs float64
}

// ScalingResult is a full sweep.
type ScalingResult struct {
	Title  string
	XLabel string
	Points []ScalingPoint
}

// Render formats the sweep as a table.
func (r *ScalingResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	fmt.Fprintf(&b, "%10s %8s %8s %10s %10s %10s %10s\n",
		r.XLabel, "evals", "busy%", "delay-mean", "delay-med", "delay-p75", "delay-max")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %8d %7.2f%% %9.3fms %9.3fms %9.3fms %9.3fms\n",
			p.X, p.Evaluations, p.BusyFraction*100, p.MeanDelayMs,
			float64(p.Delay.Median)/1e6, float64(p.Delay.Q3)/1e6, float64(p.Delay.Max)/1e6)
	}
	return b.String()
}

// EvalFigure4_7And4_8 sweeps the number of parallel strategies.
func EvalFigure4_7And4_8(cfg ScalingConfig) (*ScalingResult, error) {
	if cfg.ChecksPerStrategy <= 0 {
		cfg.ChecksPerStrategy = 5
	}
	res := &ScalingResult{
		Title:  "Figures 4.7 / 4.8 — engine load and check delay vs. parallel strategies",
		XLabel: "strategies",
	}
	for _, n := range cfg.Points {
		point, err := runScalingPoint(n, cfg.ChecksPerStrategy, cfg)
		if err != nil {
			return nil, err
		}
		point.X = n
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

// EvalFigure4_9And4_10 sweeps the number of checks on one strategy.
func EvalFigure4_9And4_10(cfg ScalingConfig) (*ScalingResult, error) {
	res := &ScalingResult{
		Title:  "Figures 4.9 / 4.10 — engine load and check delay vs. checks per strategy",
		XLabel: "checks",
	}
	for _, k := range cfg.Points {
		point, err := runScalingPoint(1, k, cfg)
		if err != nil {
			return nil, err
		}
		point.X = k
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

// runScalingPoint launches `strategies` single-phase strategies with
// `checks` checks each on the real clock and measures the engine.
func runScalingPoint(strategies, checks int, cfg ScalingConfig) (*ScalingPoint, error) {
	table := router.NewTable()
	store := metrics.NewStore(0)
	engine, err := bifrost.NewEngine(bifrost.Config{Table: table, Store: store, DefaultCheckInterval: cfg.CheckInterval})
	if err != nil {
		return nil, err
	}

	// Pre-seed healthy metrics covering the whole run, one batched
	// write per strategy.
	now := time.Now()
	for i := 0; i < strategies; i++ {
		scope := metrics.Scope{Service: svcName(i), Version: "v2"}
		var batch []metrics.Sample
		for ts := -cfg.RunDuration; ts <= 2*cfg.RunDuration; ts += cfg.CheckInterval / 2 {
			batch = append(batch, metrics.Sample{
				Metric: "response_time", Scope: scope, At: now.Add(ts), Value: 50,
			})
		}
		store.RecordBatch(batch)
	}

	runs := make([]*bifrost.Run, 0, strategies)
	wallStart := time.Now()
	for i := 0; i < strategies; i++ {
		s := &bifrost.Strategy{
			Name:    fmt.Sprintf("strat-%d", i),
			Service: svcName(i), Baseline: "v1", Candidate: "v2",
			Phases: []bifrost.Phase{{
				Name: "canary", Practice: expmodel.PracticeCanary,
				Traffic:  bifrost.TrafficSpec{CandidateWeight: 0.1},
				Duration: cfg.RunDuration,
				Checks:   makeChecks(checks, cfg.CheckInterval),
				// Conclude without routing churn at the end.
				OnSuccess:      bifrost.Transition{Kind: bifrost.TransitionPromote},
				OnInconclusive: bifrost.Transition{Kind: bifrost.TransitionAbort},
			}},
		}
		run, err := engine.Launch(s)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	for _, r := range runs {
		<-r.Done()
	}
	wall := time.Since(wallStart)

	m := engine.Metrics()
	delays := make([]float64, len(m.Delays))
	var meanDelay float64
	durs := make([]float64, len(m.Delays))
	for i, d := range m.Delays {
		delays[i] = float64(d)
		durs[i] = float64(d) / float64(time.Millisecond)
		meanDelay += durs[i]
	}
	if len(durs) > 0 {
		meanDelay /= float64(len(durs))
	}
	return &ScalingPoint{
		Evaluations:  m.Evaluations,
		BusyFraction: float64(m.BusyTime) / float64(wall),
		Delay:        boxPlotFromNs(delays),
		MeanDelayMs:  meanDelay,
	}, nil
}

func svcName(i int) string { return fmt.Sprintf("svc-%03d", i) }

func makeChecks(n int, interval time.Duration) []bifrost.Check {
	out := make([]bifrost.Check, n)
	for i := range out {
		out[i] = bifrost.Check{
			Name: fmt.Sprintf("check-%03d", i), Metric: "response_time",
			Aggregation: metrics.AggMean, Upper: true, Threshold: 1000,
			Interval: interval, Window: 4 * interval,
		}
	}
	return out
}

func boxPlotFromNs(ns []float64) stats.BoxPlot {
	b := stats.NewBoxPlot(ns)
	return b
}

// sparkline renders a series as unicode blocks.
func sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	if width > len(xs) {
		width = len(xs)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	bucket := float64(len(xs)) / float64(width)
	var maxV float64
	vals := make([]float64, width)
	for i := 0; i < width; i++ {
		lo, hi := int(float64(i)*bucket), int(float64(i+1)*bucket)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		var sum float64
		for j := lo; j < hi; j++ {
			sum += xs[j]
		}
		vals[i] = sum / float64(hi-lo)
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
