package ch3

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"contexp/internal/fenrir"
	"contexp/internal/stats"
	"contexp/internal/traffic"
)

// This file is the Chapter 3 evaluation harness: it regenerates the
// data behind Fig 3.3 (traffic profile and consumption), Fig 3.4 and
// Table 3.2 (fitness for 15 experiments), Fig 3.5 and Table 3.3
// (scaling the number of experiments), and Fig 3.6 (reevaluation).
// Budgets are scaled so a full run takes seconds instead of the paper's
// cloud-hours; the comparison unit (fitness evaluations) is identical
// across algorithms, which preserves the relative results.

// EvalConfig controls the harness.
type EvalConfig struct {
	// Budget is the number of fitness evaluations per optimizer run.
	Budget int
	// Runs is the number of independent seeds per configuration.
	Runs int
	// Days is the traffic-profile length.
	Days int
	// Seed bases all scenario generation.
	Seed int64
}

// evalProfile builds the evaluation traffic profile.
func evalProfile(cfg EvalConfig) (*traffic.Profile, error) {
	pc := traffic.DefaultGeneratorConfig()
	pc.Seed = cfg.Seed
	return traffic.Generate(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), cfg.Days, pc)
}

// evalProblem builds a scheduling problem with n experiments of a class.
func evalProblem(cfg EvalConfig, n int, class fenrir.SampleSizeClass, seedOffset int64) (*fenrir.Problem, error) {
	profile, err := evalProfile(cfg)
	if err != nil {
		return nil, err
	}
	exps, err := fenrir.GenerateExperiments(fenrir.GeneratorConfig{
		N: n, Class: class, Seed: cfg.Seed + seedOffset, Horizon: profile.NumSlots(),
	})
	if err != nil {
		return nil, err
	}
	p := &fenrir.Problem{Experiments: exps, Profile: profile, Capacity: 0.8}
	return p, p.Validate()
}

// evalOptimizers returns the four algorithms of Section 3.5.
func evalOptimizers() []fenrir.Optimizer {
	return []fenrir.Optimizer{
		&fenrir.GeneticAlgorithm{},
		fenrir.RandomSampling{},
		fenrir.LocalSearch{},
		fenrir.SimulatedAnnealing{},
	}
}

// AlgorithmResult aggregates one algorithm's runs on one configuration.
type AlgorithmResult struct {
	Algorithm string
	// FitnessFrac holds best-fitness / max-fitness per run.
	FitnessFrac []float64
	// Elapsed holds wall time per run.
	Elapsed []time.Duration
}

// Summary of the fitness fractions.
func (r *AlgorithmResult) Summary() stats.Summary { return stats.Summarize(r.FitnessFrac) }

// MeanElapsed returns the average wall time.
func (r *AlgorithmResult) MeanElapsed() time.Duration {
	if len(r.Elapsed) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Elapsed {
		sum += d
	}
	return sum / time.Duration(len(r.Elapsed))
}

func runAlgorithms(p *fenrir.Problem, cfg EvalConfig, initial *fenrir.Schedule) ([]AlgorithmResult, error) {
	maxF := p.MaxFitness()
	out := make([]AlgorithmResult, 0, 4)
	for _, opt := range evalOptimizers() {
		res := AlgorithmResult{Algorithm: opt.Name()}
		for run := 0; run < cfg.Runs; run++ {
			s, st := opt.Optimize(p, cfg.Budget, cfg.Seed+int64(run)*101, initial)
			frac := 0.0
			if p.Valid(s) {
				frac = st.BestFitness / maxF
			}
			res.FitnessFrac = append(res.FitnessFrac, frac)
			res.Elapsed = append(res.Elapsed, st.Elapsed)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figure3_3 reproduces the example traffic profile and its consumption
// under a GA-optimized schedule of 15 experiments.
type Figure3_3 struct {
	Profile     *traffic.Profile
	Consumption []float64 // share consumed per slot under the schedule
	Schedule    string    // formatted schedule table
	Valid       bool
}

// EvalFigure3_3 runs the Fig 3.3 scenario.
func EvalFigure3_3(cfg EvalConfig) (*Figure3_3, error) {
	p, err := evalProblem(cfg, 15, fenrir.SamplesMedium, 0)
	if err != nil {
		return nil, err
	}
	ga := &fenrir.GeneticAlgorithm{}
	s, _ := ga.Optimize(p, cfg.Budget, cfg.Seed, nil)
	consumption := make([]float64, p.Profile.NumSlots())
	for i := range s.Genes {
		g := s.Genes[i]
		for t := g.Start; t < g.End() && t < len(consumption); t++ {
			consumption[t] += g.Share
		}
	}
	return &Figure3_3{
		Profile:     p.Profile,
		Consumption: consumption,
		Schedule:    p.FormatSchedule(s),
		Valid:       p.Valid(s),
	}, nil
}

// Render formats the figure as text (profile and consumption sparklines).
func (f *Figure3_3) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3.3 — traffic profile and consumption (14 days, hourly)\n")
	b.WriteString("profile:     " + f.Profile.Sparkline(112) + "\n")
	cons := &traffic.Profile{Slots: f.Consumption}
	b.WriteString("consumption: " + cons.Sparkline(112) + "\n\n")
	b.WriteString(f.Schedule)
	return b.String()
}

// Figure3_4 holds the per-algorithm fitness distributions for scheduling
// 15 experiments (Fig 3.4) and their basic statistics (Table 3.2).
type Figure3_4 struct {
	Results []AlgorithmResult
}

// EvalFigure3_4 runs the Fig 3.4 / Table 3.2 scenario.
func EvalFigure3_4(cfg EvalConfig) (*Figure3_4, error) {
	p, err := evalProblem(cfg, 15, fenrir.SamplesMedium, 0)
	if err != nil {
		return nil, err
	}
	results, err := runAlgorithms(p, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &Figure3_4{Results: results}, nil
}

// Render formats figure and table.
func (f *Figure3_4) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3.4 / Table 3.2 — fitness for 15 experiments (fraction of max)\n")
	fmt.Fprintf(&b, "%-14s %6s %6s %6s %6s %6s\n", "algorithm", "mean", "sd", "min", "med", "max")
	for _, r := range f.Results {
		s := r.Summary()
		fmt.Fprintf(&b, "%-14s %6.3f %6.3f %6.3f %6.3f %6.3f\n",
			r.Algorithm, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
	}
	return b.String()
}

// Figure3_5Cell is one (n, class) configuration of the scaling study.
type Figure3_5Cell struct {
	N       int
	Class   fenrir.SampleSizeClass
	Results []AlgorithmResult
}

// Figure3_5 is the scaling study: fitness (Fig 3.5) and execution time
// (Table 3.3) across the number of experiments and sample-size classes.
type Figure3_5 struct {
	Cells []Figure3_5Cell
}

// EvalFigure3_5 runs the scaling study. ns defaults to {10, 20, 30, 40}.
func EvalFigure3_5(cfg EvalConfig, ns []int) (*Figure3_5, error) {
	if len(ns) == 0 {
		ns = []int{10, 20, 30, 40}
	}
	classes := []fenrir.SampleSizeClass{fenrir.SamplesLow, fenrir.SamplesMedium, fenrir.SamplesHigh}
	fig := &Figure3_5{}
	for _, n := range ns {
		for _, class := range classes {
			p, err := evalProblem(cfg, n, class, int64(n)*10+int64(class))
			if err != nil {
				return nil, err
			}
			results, err := runAlgorithms(p, cfg, nil)
			if err != nil {
				return nil, err
			}
			fig.Cells = append(fig.Cells, Figure3_5Cell{N: n, Class: class, Results: results})
		}
	}
	return fig, nil
}

// Render formats the fitness matrix.
func (f *Figure3_5) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3.5 — mean fitness fraction by #experiments and sample-size class\n")
	fmt.Fprintf(&b, "%4s %-8s", "n", "class")
	if len(f.Cells) > 0 {
		for _, r := range f.Cells[0].Results {
			fmt.Fprintf(&b, " %12s", r.Algorithm)
		}
	}
	b.WriteString("\n")
	for _, c := range f.Cells {
		fmt.Fprintf(&b, "%4d %-8s", c.N, c.Class)
		for _, r := range c.Results {
			fmt.Fprintf(&b, " %12.3f", stats.Mean(r.FitnessFrac))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTable3_3 formats mean execution times per configuration.
func (f *Figure3_5) RenderTable3_3() string {
	var b strings.Builder
	b.WriteString("Table 3.3 — mean execution time per run\n")
	fmt.Fprintf(&b, "%4s %-8s", "n", "class")
	if len(f.Cells) > 0 {
		for _, r := range f.Cells[0].Results {
			fmt.Fprintf(&b, " %12s", r.Algorithm)
		}
	}
	b.WriteString("\n")
	for _, c := range f.Cells {
		fmt.Fprintf(&b, "%4d %-8s", c.N, c.Class)
		for _, r := range c.Results {
			fmt.Fprintf(&b, " %12s", r.MeanElapsed().Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure3_6 is the reevaluation study: an existing GA schedule is
// reevaluated mid-execution with canceled and newly added experiments,
// and each algorithm re-optimizes from the seed.
type Figure3_6 struct {
	Results []AlgorithmResult
	// Finished and Canceled record what the reevaluation point saw.
	Finished int
	Frozen   int
	Added    int
}

// EvalFigure3_6 runs the reevaluation scenario.
func EvalFigure3_6(cfg EvalConfig) (*Figure3_6, error) {
	p, err := evalProblem(cfg, 15, fenrir.SamplesMedium, 0)
	if err != nil {
		return nil, err
	}
	ga := &fenrir.GeneticAlgorithm{}
	s, _ := ga.Optimize(p, cfg.Budget, cfg.Seed, nil)

	// Reevaluate at the median experiment midpoint.
	mids := make([]int, len(s.Genes))
	for i, g := range s.Genes {
		mids[i] = g.Start + g.Duration/2
	}
	sort.Ints(mids)
	now := mids[len(mids)/2]
	if now >= p.Profile.NumSlots() {
		now = p.Profile.NumSlots() / 2
	}

	added, err := fenrir.GenerateExperiments(fenrir.GeneratorConfig{
		N: 5, Class: fenrir.SamplesMedium, Seed: cfg.Seed + 999, Horizon: p.Profile.NumSlots(),
	})
	if err != nil {
		return nil, err
	}
	for i := range added {
		added[i].ID = fmt.Sprintf("added-%02d", i+1)
	}
	canceled := []string{p.Experiments[1].ID, p.Experiments[3].ID}

	res, err := fenrir.Reevaluate(p, s, fenrir.ReevalInput{Now: now, Canceled: canceled, Added: added})
	if err != nil {
		return nil, err
	}
	results, err := runAlgorithms(res.Problem, cfg, res.Seed)
	if err != nil {
		return nil, err
	}
	return &Figure3_6{
		Results:  results,
		Finished: len(res.Finished),
		Frozen:   fenrir.FrozenCount(res.Seed),
		Added:    len(added),
	}, nil
}

// Render formats the reevaluation figure.
func (f *Figure3_6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.6 — fitness after reevaluation (%d finished, %d running/frozen, %d added)\n",
		f.Finished, f.Frozen, f.Added)
	fmt.Fprintf(&b, "%-14s %6s %6s %6s\n", "algorithm", "mean", "min", "max")
	for _, r := range f.Results {
		s := r.Summary()
		fmt.Fprintf(&b, "%-14s %6.3f %6.3f %6.3f\n", r.Algorithm, s.Mean, s.Min, s.Max)
	}
	return b.String()
}

// Table3_1 renders the generated experiment inputs (the reproduction of
// the paper's "input data for experiments" table).
func Table3_1(cfg EvalConfig) (string, error) {
	p, err := evalProblem(cfg, 15, fenrir.SamplesMedium, 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 3.1 — input data for experiments\n")
	fmt.Fprintf(&b, "%-8s %-16s %10s %5s %5s %7s %7s  %s\n",
		"ID", "practice", "samples", "dMin", "dMax", "shMin", "shMax", "groups")
	for _, e := range p.Experiments {
		groups := make([]string, len(e.CandidateGroups))
		for i, g := range e.CandidateGroups {
			groups[i] = string(g)
		}
		fmt.Fprintf(&b, "%-8s %-16s %10.0f %5d %5d %6.1f%% %6.1f%%  %s\n",
			e.ID, e.Practice, e.RequiredSamples, e.MinDuration, e.MaxDuration,
			e.MinShare*100, e.MaxShare*100, strings.Join(groups, ","))
	}
	return b.String(), nil
}
