package fenrir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"contexp/internal/traffic"
)

// mediumProblem builds a reproducible 10-experiment problem on a
// seasonal profile.
func mediumProblem(t testing.TB, n int, class SampleSizeClass) *Problem {
	t.Helper()
	profile, err := traffic.Generate(flatProfile(1, 1).Start, 14, traffic.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	exps, err := GenerateExperiments(GeneratorConfig{
		N: n, Class: class, Seed: 42, Horizon: profile.NumSlots(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Experiments: exps, Profile: profile, Capacity: 0.8}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func allOptimizers() []Optimizer {
	return []Optimizer{
		&GeneticAlgorithm{},
		RandomSampling{},
		LocalSearch{},
		SimulatedAnnealing{},
	}
}

func TestOptimizersFindValidSchedules(t *testing.T) {
	p := mediumProblem(t, 10, SamplesLow)
	for _, opt := range allOptimizers() {
		opt := opt
		t.Run(opt.Name(), func(t *testing.T) {
			t.Parallel()
			s, stats := opt.Optimize(p, 2000, 1, nil)
			if s == nil {
				t.Fatal("nil schedule")
			}
			if !p.Valid(s) {
				t.Fatalf("%s produced invalid schedule: %v", opt.Name(), p.Check(s)[:min(3, len(p.Check(s)))])
			}
			if stats.BestFitness <= 0 {
				t.Errorf("best fitness = %v", stats.BestFitness)
			}
			if stats.Evaluations > 2000 {
				t.Errorf("budget exceeded: %d evaluations", stats.Evaluations)
			}
			frac := stats.BestFitness / p.MaxFitness()
			if frac < 0.3 {
				t.Errorf("%s reached only %.0f%% of max fitness", opt.Name(), frac*100)
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGABeatsRandomSampling(t *testing.T) {
	p := mediumProblem(t, 15, SamplesMedium)
	ga := &GeneticAlgorithm{}
	rs := RandomSampling{}
	const budget = 3000
	var gaScore, rsScore float64
	for seed := int64(1); seed <= 3; seed++ {
		_, s1 := ga.Optimize(p, budget, seed, nil)
		_, s2 := rs.Optimize(p, budget, seed, nil)
		gaScore += s1.BestFitness
		rsScore += s2.BestFitness
	}
	if gaScore <= rsScore {
		t.Errorf("GA (%v) did not beat random sampling (%v)", gaScore/3, rsScore/3)
	}
}

func TestOptimizersDeterministicPerSeed(t *testing.T) {
	p := mediumProblem(t, 8, SamplesLow)
	for _, opt := range []Optimizer{RandomSampling{}, LocalSearch{}, SimulatedAnnealing{}} {
		_, s1 := opt.Optimize(p, 500, 7, nil)
		_, s2 := opt.Optimize(p, 500, 7, nil)
		if s1.BestFitness != s2.BestFitness {
			t.Errorf("%s not deterministic: %v vs %v", opt.Name(), s1.BestFitness, s2.BestFitness)
		}
	}
}

func TestGARespectsFrozenGenes(t *testing.T) {
	p := mediumProblem(t, 8, SamplesLow)
	rng := rand.New(rand.NewSource(3))
	seedSchedule := randomSchedule(p, rng)
	frozen := seedSchedule.Genes[0]
	frozen.Frozen = true
	seedSchedule.Genes[0] = frozen

	for _, opt := range allOptimizers() {
		s, _ := opt.Optimize(p, 1000, 5, seedSchedule)
		g := s.Genes[0]
		if g.Start != frozen.Start || g.Duration != frozen.Duration ||
			g.Share != frozen.Share || g.GroupMask != frozen.GroupMask {
			t.Errorf("%s modified a frozen gene: %+v -> %+v", opt.Name(), frozen, g)
		}
	}
}

func TestCrossoverPreservesGeneCount(t *testing.T) {
	p := mediumProblem(t, 6, SamplesLow)
	rng := rand.New(rand.NewSource(1))
	a := randomSchedule(p, rng)
	b := randomSchedule(p, rng)
	child := crossover(a, b, rng)
	if len(child.Genes) != len(a.Genes) {
		t.Fatalf("child has %d genes", len(child.Genes))
	}
	// Child genes come from either parent.
	for i := range child.Genes {
		g := child.Genes[i]
		if g != a.Genes[i] && g != b.Genes[i] {
			t.Errorf("gene %d from neither parent", i)
		}
	}
}

func TestMutateGeneStaysInBounds(t *testing.T) {
	p := smallProblem()
	e := &p.Experiments[0]
	f := func(seed int64, start, dur uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Gene{
			Start:     int(start) % 80,
			Duration:  e.MinDuration + int(dur)%(e.MaxDuration-e.MinDuration+1),
			Share:     0.1,
			GroupMask: 1,
		}
		if g.Start < e.EarliestStart {
			g.Start = e.EarliestStart
		}
		for i := 0; i < 50; i++ {
			g = mutateGene(p, e, g, rng)
			if g.Duration < e.MinDuration || g.Duration > e.MaxDuration {
				return false
			}
			if g.Share < e.MinShare || g.Share > e.MaxShare {
				return false
			}
			if g.GroupMask == 0 || g.GroupMask >= 1<<uint(len(e.CandidateGroups)) {
				return false
			}
			if g.Start < e.EarliestStart {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMutateFrozenGeneUnchanged(t *testing.T) {
	p := smallProblem()
	rng := rand.New(rand.NewSource(1))
	g := Gene{Start: 3, Duration: 5, Share: 0.1, GroupMask: 1, Frozen: true}
	for i := 0; i < 20; i++ {
		if got := mutateGene(p, &p.Experiments[0], g, rng); got != g {
			t.Fatal("mutateGene modified frozen gene")
		}
	}
}

func TestGARepairImprovesValidity(t *testing.T) {
	p := mediumProblem(t, 20, SamplesMedium)
	plain := &GeneticAlgorithm{}
	repair := &GeneticAlgorithm{Repair: true}
	const budget = 2000
	_, sPlain := plain.Optimize(p, budget, 11, nil)
	_, sRepair := repair.Optimize(p, budget, 11, nil)
	// Repair should never be much worse; usually better on tight problems.
	if sRepair.BestFitness < sPlain.BestFitness*0.8 {
		t.Errorf("repairing crossover regressed badly: %v vs %v", sRepair.BestFitness, sPlain.BestFitness)
	}
}

func TestOptimizerStatsElapsed(t *testing.T) {
	p := mediumProblem(t, 5, SamplesLow)
	_, stats := RandomSampling{}.Optimize(p, 100, 1, nil)
	if stats.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	if stats.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestReevaluate(t *testing.T) {
	p := mediumProblem(t, 10, SamplesLow)
	ga := &GeneticAlgorithm{}
	s, _ := ga.Optimize(p, 2000, 1, nil)
	if !p.Valid(s) {
		t.Fatal("precondition: schedule invalid")
	}

	// Pick a reevaluation point that has at least one running experiment.
	now := 0
	for _, g := range s.Genes {
		if g.Start+g.Duration/2 > now {
			now = g.Start + g.Duration/2
		}
	}
	if now >= p.Profile.NumSlots() {
		now = p.Profile.NumSlots() - 1
	}

	added, err := GenerateExperiments(GeneratorConfig{N: 3, Class: SamplesLow, Seed: 99, Horizon: p.Profile.NumSlots()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range added {
		added[i].ID = "new-" + added[i].ID
	}
	res, err := Reevaluate(p, s, ReevalInput{
		Now:      now,
		Canceled: []string{p.Experiments[0].ID},
		Added:    added,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 {
		t.Errorf("Dropped = %v", res.Dropped)
	}
	wantCount := len(p.Experiments) - 1 - len(res.Finished) + len(added)
	if got := len(res.Problem.Experiments); got != wantCount {
		t.Errorf("surviving experiments = %d, want %d", got, wantCount)
	}
	if len(res.Seed.Genes) != len(res.Problem.Experiments) {
		t.Error("seed genes misaligned")
	}
	// Running experiments are frozen.
	for i, e := range res.Problem.Experiments {
		g := res.Seed.Genes[i]
		if g.Frozen {
			if g.Start > now {
				t.Errorf("%s frozen but starts at %d > now %d", e.ID, g.Start, now)
			}
		} else if g.Start < now && g.Start > 0 {
			// Pending experiments must have been clamped to >= now
			// (unless their gene legitimately starts at slot >= now).
			t.Errorf("%s not frozen but starts at %d < now %d", e.ID, g.Start, now)
		}
	}
	// The reduced problem can be re-optimized from the seed.
	s2, stats := ga.Optimize(res.Problem, 2000, 2, res.Seed)
	if !res.Problem.Valid(s2) {
		t.Fatalf("reoptimized schedule invalid: %v", res.Problem.Check(s2)[:min(3, len(res.Problem.Check(s2)))])
	}
	if stats.BestFitness <= 0 {
		t.Errorf("reoptimized fitness = %v", stats.BestFitness)
	}
}

func TestReevaluateErrors(t *testing.T) {
	p := smallProblem()
	s := &Schedule{Genes: []Gene{{}}}
	if _, err := Reevaluate(p, s, ReevalInput{Now: 5}); err == nil {
		t.Error("gene count mismatch should fail")
	}
	s2 := &Schedule{Genes: make([]Gene, len(p.Experiments))}
	if _, err := Reevaluate(p, s2, ReevalInput{Now: -1}); err == nil {
		t.Error("negative now should fail")
	}
	if _, err := Reevaluate(p, s2, ReevalInput{Now: 9999}); err == nil {
		t.Error("now past horizon should fail")
	}
}

func TestFrozenCount(t *testing.T) {
	s := &Schedule{Genes: []Gene{{Frozen: true}, {}, {Frozen: true}}}
	if FrozenCount(s) != 2 {
		t.Errorf("FrozenCount = %d", FrozenCount(s))
	}
}
