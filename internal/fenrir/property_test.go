package fenrir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: any valid schedule's fitness lies in (0, MaxFitness].
func TestFitnessBoundsProperty(t *testing.T) {
	p := mediumProblem(t, 8, SamplesLow)
	maxF := p.MaxFitness()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(p, rng)
		fit := p.Fitness(s)
		if p.Valid(s) {
			return fit > 0 && fit <= maxF+1e-9
		}
		return fit < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Fitness and Check agree — zero violations iff positive
// fitness.
func TestFitnessCheckConsistencyProperty(t *testing.T) {
	p := mediumProblem(t, 6, SamplesMedium)
	f := func(seed int64, mutations uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(p, rng)
		// Random walk through mutation space, checking consistency at
		// every step.
		for i := 0; i < int(mutations%16); i++ {
			s = mutateSchedule(p, s, 0.3, rng)
			violations := len(p.Check(s))
			fit := p.Fitness(s)
			if (violations == 0) != (fit > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: constructive schedules never break per-experiment bounds
// even when the global constraints are unsatisfiable.
func TestConstructiveRespectsExperimentBoundsProperty(t *testing.T) {
	p := mediumProblem(t, 12, SamplesHigh)
	horizon := p.Profile.NumSlots()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(p, rng)
		for i := range p.Experiments {
			e := &p.Experiments[i]
			g := s.Genes[i]
			if g.Start < e.EarliestStart || g.End() > horizon {
				return false
			}
			if g.Duration < e.MinDuration || g.Duration > e.MaxDuration {
				return false
			}
			if g.GroupMask == 0 || g.GroupMask >= 1<<uint(len(e.CandidateGroups)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: crossover never mixes genes across experiment boundaries —
// every child gene equals the corresponding gene of one parent.
func TestCrossoverGeneIntegrityProperty(t *testing.T) {
	p := mediumProblem(t, 10, SamplesLow)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSchedule(p, rng)
		b := randomSchedule(p, rng)
		child := crossover(a, b, rng)
		for i := range child.Genes {
			if child.Genes[i] != a.Genes[i] && child.Genes[i] != b.Genes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: generated experiments are always individually satisfiable
// against the calibration volume.
func TestGeneratorSatisfiabilityProperty(t *testing.T) {
	f := func(seed int64, nRaw, classRaw uint8) bool {
		n := 1 + int(nRaw%50)
		class := SampleSizeClass(1 + classRaw%3)
		exps, err := GenerateExperiments(GeneratorConfig{
			N: n, Class: class, Seed: seed, Horizon: 336,
		})
		if err != nil {
			return false
		}
		for _, e := range exps {
			if e.Validate(336) != nil {
				return false
			}
			// Collectible on the trough estimate used by the generator.
			if e.MaxShare*float64(e.MaxDuration)*0.4*50_000 < e.RequiredSamples {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
