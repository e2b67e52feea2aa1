package fenrir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/traffic"
)

func flatProfile(slots int, volume float64) *traffic.Profile {
	vs := make([]float64, slots)
	for i := range vs {
		vs[i] = volume
	}
	return &traffic.Profile{
		Start:      time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC),
		SlotLength: time.Hour,
		Slots:      vs,
	}
}

// randomSchedule draws a constructive schedule with nothing frozen.
func randomSchedule(p *Problem, rng *rand.Rand) *Schedule { return p.RandomScheduleFrom(rng, nil) }

// smallProblem: two experiments on a flat profile, generously satisfiable.
func smallProblem() *Problem {
	return &Problem{
		Profile:  flatProfile(96, 10000),
		Capacity: 0.8,
		Experiments: []Experiment{
			{
				ID: "a", Practice: expmodel.PracticeCanary, RequiredSamples: 5000,
				MinDuration: 2, MaxDuration: 24, EarliestStart: 0,
				MinShare: 0.05, MaxShare: 0.3,
				CandidateGroups: []expmodel.UserGroup{"eu", "us"},
				PreferredGroups: []expmodel.UserGroup{"eu"},
				Priority:        1,
			},
			{
				ID: "b", Practice: expmodel.PracticeABTest, RequiredSamples: 8000,
				MinDuration: 3, MaxDuration: 24, EarliestStart: 0,
				MinShare: 0.05, MaxShare: 0.3,
				CandidateGroups: []expmodel.UserGroup{"us", "apac"},
				Priority:        1,
			},
		},
	}
}

func TestExperimentValidate(t *testing.T) {
	base := smallProblem().Experiments[0]
	tests := []struct {
		name   string
		mutate func(*Experiment)
	}{
		{"empty id", func(e *Experiment) { e.ID = "" }},
		{"zero samples", func(e *Experiment) { e.RequiredSamples = 0 }},
		{"bad durations", func(e *Experiment) { e.MaxDuration = e.MinDuration - 1 }},
		{"negative start", func(e *Experiment) { e.EarliestStart = -1 }},
		{"start past horizon", func(e *Experiment) { e.EarliestStart = 10000 }},
		{"deadline before start", func(e *Experiment) { e.EarliestStart = 5; e.Deadline = 3 }},
		{"zero share", func(e *Experiment) { e.MinShare = 0 }},
		{"share above one", func(e *Experiment) { e.MaxShare = 1.5 }},
		{"no groups", func(e *Experiment) { e.CandidateGroups = nil }},
		{"preferred not candidate", func(e *Experiment) { e.PreferredGroups = []expmodel.UserGroup{"mars"} }},
		{"zero priority", func(e *Experiment) { e.Priority = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := base
			e.CandidateGroups = append([]expmodel.UserGroup(nil), base.CandidateGroups...)
			tt.mutate(&e)
			if err := e.Validate(96); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := base.Validate(96); err != nil {
		t.Errorf("valid experiment rejected: %v", err)
	}
}

func TestProblemValidate(t *testing.T) {
	p := smallProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Capacity = 0
	if err := p.Validate(); err == nil {
		t.Error("capacity 0 should fail")
	}
	p = smallProblem()
	p.Experiments[1].ID = "a"
	if err := p.Validate(); err == nil {
		t.Error("duplicate IDs should fail")
	}
	p = smallProblem()
	p.Profile = nil
	if err := p.Validate(); err == nil {
		t.Error("missing profile should fail")
	}
}

func TestCheckConstraints(t *testing.T) {
	p := smallProblem()
	valid := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b01}, // a on eu
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b11}, // b on us+apac
	}}
	if vs := p.Check(valid); len(vs) != 0 {
		t.Fatalf("valid schedule flagged: %v", vs)
	}

	tests := []struct {
		name    string
		genes   []Gene
		wantSub string
	}{
		{"early start", []Gene{
			{Start: -1, Duration: 10, Share: 0.1, GroupMask: 1},
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "before earliest"},
		{"short duration", []Gene{
			{Start: 0, Duration: 1, Share: 0.1, GroupMask: 1},
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "duration"},
		{"past horizon", []Gene{
			{Start: 90, Duration: 10, Share: 0.3, GroupMask: 1},
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "after bound"},
		{"share bounds", []Gene{
			{Start: 0, Duration: 10, Share: 0.9, GroupMask: 1},
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "share"},
		{"zero mask", []Gene{
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0},
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "group mask"},
		{"insufficient samples", []Gene{
			{Start: 0, Duration: 2, Share: 0.05, GroupMask: 1}, // 2*10000*0.05 = 1000 < 5000
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
		}, "required samples"},
		{"group overlap", []Gene{
			{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10}, // a on us
			{Start: 5, Duration: 10, Share: 0.1, GroupMask: 0b01}, // b on us
		}, "shared user groups"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			vs := p.Check(&Schedule{Genes: tt.genes})
			if len(vs) == 0 {
				t.Fatal("expected violation")
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.String(), tt.wantSub) {
					found = true
				}
			}
			if !found {
				t.Errorf("violations %v missing %q", vs, tt.wantSub)
			}
		})
	}
}

func TestCheckCapacity(t *testing.T) {
	p := smallProblem()
	p.Capacity = 0.15
	// Two experiments at 0.1 each in the same slots exceed 0.15 (groups disjoint).
	s := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b01},
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
	}}
	vs := p.Check(s)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "capacity") {
			found = true
		}
	}
	if !found {
		t.Errorf("capacity violation not reported: %v", vs)
	}
}

func TestCheckNonOverlappingSharedGroupsOK(t *testing.T) {
	p := smallProblem()
	// Both touch "us" but at disjoint times: fine.
	s := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 5, Share: 0.1, GroupMask: 0b10},
		{Start: 5, Duration: 10, Share: 0.1, GroupMask: 0b01},
	}}
	if vs := p.Check(s); len(vs) != 0 {
		t.Errorf("sequential shared-group schedule flagged: %v", vs)
	}
}

func TestFitness(t *testing.T) {
	p := smallProblem()
	good := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 2, Share: 0.25, GroupMask: 0b01}, // 2*10000*0.25=5000 exactly
		{Start: 0, Duration: 3, Share: 0.3, GroupMask: 0b11},  // 9000 >= 8000
	}}
	f := p.Fitness(good)
	if f <= 0 {
		t.Fatalf("fitness = %v for valid schedule (violations: %v)", f, p.Check(good))
	}
	if max := p.MaxFitness(); f > max {
		t.Errorf("fitness %v exceeds max %v", f, max)
	}
	// Shortest duration + earliest start + full coverage should be near max.
	if f < 0.95*p.MaxFitness() {
		t.Errorf("near-ideal schedule scores only %v of %v", f, p.MaxFitness())
	}

	// A longer, later schedule scores lower.
	worse := &Schedule{Genes: []Gene{
		{Start: 40, Duration: 20, Share: 0.25, GroupMask: 0b10}, // a on us (not preferred)
		{Start: 40, Duration: 20, Share: 0.3, GroupMask: 0b10},  // b on apac
	}}
	if vs := p.Check(worse); len(vs) != 0 {
		t.Fatalf("worse schedule unexpectedly invalid: %v", vs)
	}
	if p.Fitness(worse) >= f {
		t.Errorf("worse schedule scored %v >= %v", p.Fitness(worse), f)
	}
}

func TestFitnessInvalidNegative(t *testing.T) {
	p := smallProblem()
	invalid := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 1, Share: 0.01, GroupMask: 1},
		{Start: 0, Duration: 1, Share: 0.01, GroupMask: 1},
	}}
	if f := p.Fitness(invalid); f >= 0 {
		t.Errorf("invalid schedule fitness = %v, want negative", f)
	}
	// More violations -> more negative.
	lessInvalid := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b01},
		{Start: 0, Duration: 1, Share: 0.01, GroupMask: 0b10},
	}}
	if p.Fitness(lessInvalid) <= p.Fitness(invalid) {
		t.Error("fitness should order schedules by violation count")
	}
}

func TestRandomScheduleMostlyValid(t *testing.T) {
	p := smallProblem()
	rng := rand.New(rand.NewSource(1))
	valid := 0
	const n = 100
	for i := 0; i < n; i++ {
		if p.Valid(randomSchedule(p, rng)) {
			valid++
		}
	}
	if valid < n*8/10 {
		t.Errorf("only %d/%d constructive schedules valid", valid, n)
	}
}

func TestGenerateExperiments(t *testing.T) {
	for _, class := range []SampleSizeClass{SamplesLow, SamplesMedium, SamplesHigh} {
		exps, err := GenerateExperiments(GeneratorConfig{N: 15, Class: class, Seed: 1, Horizon: 336})
		if err != nil {
			t.Fatal(err)
		}
		if len(exps) != 15 {
			t.Fatalf("got %d experiments", len(exps))
		}
		for _, e := range exps {
			if err := e.Validate(336); err != nil {
				t.Errorf("generated experiment invalid: %v", err)
			}
		}
	}
	if _, err := GenerateExperiments(GeneratorConfig{N: 0, Class: SamplesLow, Horizon: 336}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := GenerateExperiments(GeneratorConfig{N: 5, Class: 0, Horizon: 336}); err == nil {
		t.Error("unknown class should fail")
	}
	if _, err := GenerateExperiments(GeneratorConfig{N: 5, Class: SamplesLow, Horizon: 10}); err == nil {
		t.Error("tiny horizon should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := GenerateExperiments(GeneratorConfig{N: 10, Class: SamplesMedium, Seed: 7, Horizon: 336})
	b, _ := GenerateExperiments(GeneratorConfig{N: 10, Class: SamplesMedium, Seed: 7, Horizon: 336})
	for i := range a {
		if a[i].RequiredSamples != b[i].RequiredSamples || a[i].MinDuration != b[i].MinDuration {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestSampleSizeClassString(t *testing.T) {
	if SamplesLow.String() != "low" || SamplesHigh.String() != "high" || SamplesMedium.String() != "medium" {
		t.Error("bad class names")
	}
	if SampleSizeClass(9).String() == "" {
		t.Error("unknown class should stringify")
	}
}

func TestFormatSchedule(t *testing.T) {
	p := smallProblem()
	s := &Schedule{Genes: []Gene{
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b01},
		{Start: 0, Duration: 10, Share: 0.1, GroupMask: 0b10},
	}}
	out := p.FormatSchedule(s)
	if !strings.Contains(out, "exp") && !strings.Contains(out, "a") {
		t.Errorf("FormatSchedule output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "canary") {
		t.Errorf("practice missing from output:\n%s", out)
	}
}

func TestScheduleClone(t *testing.T) {
	s := &Schedule{Genes: []Gene{{Start: 1}}}
	c := s.Clone()
	c.Genes[0].Start = 99
	if s.Genes[0].Start != 1 {
		t.Error("Clone aliases genes")
	}
}

func TestMaxFitnessScalesWithWeights(t *testing.T) {
	p := smallProblem()
	base := p.MaxFitness()
	p.Weights = Weights{Duration: 2, Start: 2, Coverage: 2}
	if got := p.MaxFitness(); math.Abs(got-2*base) > 1e-9 {
		t.Errorf("MaxFitness with doubled weights = %v, want %v", got, 2*base)
	}
}
